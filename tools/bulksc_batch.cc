/**
 * @file
 * Parallel parameter-sweep driver: runs the cross product of one or
 * more sweep axes over a base configuration, one fully-isolated
 * simulator instance per grid point, on a pool of worker threads, and
 * streams one JSONL record per point.
 *
 *   bulksc_batch --sweep chunk=500,1000,2000 --sweep procs=4,8 \
 *                -j 8 --out grid.jsonl [base options]
 *
 *   --sweep NAME=V1,V2,...  add a sweep axis (repeatable; NAME is any
 *                           config option, e.g. chunk, procs, model,
 *                           sig-bits; the last axis varies fastest)
 *   -j, --jobs N            worker threads, N >= 1      (default 1)
 *   --out FILE              JSONL output path       (default stdout)
 *   --progress              report completed points on stderr
 *
 * Base options are the shared registry (--config/--dump-config work
 * here too); per-point records are byte-identical for any -j, so grids
 * can be diffed across worker counts. Timing runs skip the signatures'
 * exact stats mirror by default — pass --exact-stats to collect
 * set-size/aliasing statistics and squash attribution.
 *
 * Exit status: 0 if every point completed, 1 on usage/config errors,
 * 2 if any point failed (its record carries an "error" field or
 * "completed": false).
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "system/sim_options.hh"
#include "system/sweep_runner.hh"

using namespace bulksc;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--sweep NAME=V1,V2,...]... [-j N] "
                 "[--out FILE] [--progress]\n"
                 "          [base options]\n"
                 "batch options:\n"
                 "  --sweep NAME=LIST      add a sweep axis "
                 "(repeatable; cross product, last varies fastest)\n"
                 "  -j, --jobs N           worker threads "
                 "(default 1)\n"
                 "  --out FILE             JSONL output path "
                 "(default stdout)\n"
                 "  --progress             report completed points "
                 "on stderr\n",
                 argv0);
    OptionRegistry::instance().printUsage(stderr, OptionGroup::Batch);
    std::exit(1);
}

bool
parseAxis(const std::string &spec, SweepAxis &axis, std::string &err)
{
    std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
        err = "--sweep expects NAME=V1,V2,..., got '" + spec + "'";
        return false;
    }
    // Empty values are dropped; SweepRunner::validateGrid rejects an
    // axis left with none.
    axis.name = spec.substr(0, eq);
    std::istringstream values(spec.substr(eq + 1));
    for (std::string v; std::getline(values, v, ',');) {
        if (!v.empty())
            axis.values.push_back(v);
    }
    return true;
}

/** Parse a worker count: a positive decimal integer, nothing else. */
bool
parseJobs(const char *s, unsigned &jobs)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
        v == 0 || v > std::numeric_limits<unsigned>::max())
        return false;
    jobs = static_cast<unsigned>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<SweepAxis> axes;
    unsigned jobs = 1;
    std::string out_path;
    bool progress = false;
    std::vector<const char *> rest;
    std::string err;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(argv[0]);
        } else if (!std::strcmp(a, "--sweep")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            SweepAxis axis;
            if (!parseAxis(argv[++i], axis, err)) {
                std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
                return 1;
            }
            axes.push_back(std::move(axis));
        } else if (!std::strncmp(a, "-j", 2) ||
                   !std::strcmp(a, "--jobs")) {
            // -j N, --jobs N, or the attached form -jN.
            const char *v = a[1] == 'j' && a[2] ? a + 2 : nullptr;
            if (!v) {
                if (i + 1 >= argc)
                    usage(argv[0]);
                v = argv[++i];
            }
            if (!parseJobs(v, jobs)) {
                std::fprintf(stderr,
                             "%s: -j/--jobs expects a positive "
                             "integer, got '%s'\n",
                             argv[0], v);
                return 1;
            }
        } else if (!std::strcmp(a, "--out")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            out_path = argv[++i];
        } else if (!std::strcmp(a, "--progress")) {
            progress = true;
        } else {
            rest.push_back(a);
        }
    }

    SimOptions opts;
    // A batch run is a timing sweep: skip the signatures' exact stats
    // mirror unless explicitly requested (--exact-stats), so the hot
    // path never maintains per-signature unordered_sets. Forced back
    // on by resolve() where it is functional (BSCexact, multi-module
    // arbiters).
    opts.cfg.bulk.sigCfg.trackExact = false;

    const OptionRegistry &reg = OptionRegistry::instance();
    if (!reg.parse(static_cast<int>(rest.size()), rest.data(), opts,
                   OptionGroup::Batch, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        usage(argv[0]);
    }

    if (opts.dumpConfig) {
        reg.dumpConfigJson(stdout, opts);
        return 0;
    }

    SweepRunner runner(std::move(opts), std::move(axes));
    if (!runner.validateGrid(err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }

    std::FILE *out = stdout;
    if (!out_path.empty()) {
        out = std::fopen(out_path.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "%s: cannot open '%s' for writing\n",
                         argv[0], out_path.c_str());
            return 1;
        }
    }

    std::size_t failed = runner.run(jobs, out, progress);

    if (out != stdout)
        std::fclose(out);
    if (failed) {
        std::fprintf(stderr, "%zu/%zu points failed\n", failed,
                     runner.numPoints());
        return 2;
    }
    return 0;
}
