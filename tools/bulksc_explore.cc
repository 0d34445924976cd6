/**
 * @file
 * Systematic schedule explorer: model-check the BulkSC machine by
 * enumerating message orderings and delivery delays.
 *
 *   bulksc_explore --litmus sb [options]
 *
 * Each schedule is one full simulation driven by a forced decision
 * prefix; the explorer branches on every same-tick delivery ordering
 * (and, with --explore-delay N, every delivery latency in [0,N]),
 * prunes commuting alternatives with signature-based partial-order
 * reduction, and judges every run with the axiomatic SC checker, the
 * race detector, the litmus outcome predicate, and the watchdog.
 *
 *   --explore-schedules N  schedule budget (default 1000)
 *   --explore-delay N      delivery delays in [0,N] become choices
 *   --faults SPEC          inject faults (e.g. arb.skip_collision=1)
 *   --schedule FILE        replay one recorded schedule, no search
 *   --schedule-out FILE    write the minimized counterexample
 *   --results-out FILE     one JSON object per explored schedule
 *
 * Exit codes are the run pipeline's (system/run.hh,
 * docs/analysis.md), shared with bulksc_sim; an exploration that finds
 * no violation exits 0 even when a budget ran out.
 */

#include <cstdio>
#include <string>

#include "explore/explorer.hh"
#include "sim/stats.hh"

using namespace bulksc;

int
main(int argc, char **argv)
{
    SimOptions opts;
    int rc;
    if (!parseDriverOptions(argc, argv, OptionGroup::Explore, opts, rc))
        return rc;

    ExploreConfig ec;
    std::string err;
    if (!configureExploration(opts, ec, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }
    Explorer ex(std::move(ec));

    // --schedule FILE: replay exactly one recorded schedule.
    if (!opts.explore.schedule.empty()) {
        Schedule s;
        if (!s.load(opts.explore.schedule, err)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
            return 1;
        }
        RunOutcome out = ex.runOne(s);
        if (out.mismatches) {
            std::fprintf(stderr,
                         "warning: %llu forced choices did not match "
                         "the decisions reached (stale schedule?)\n",
                         static_cast<unsigned long long>(
                             out.mismatches));
        }
        if (!opts.explore.scheduleOut.empty()) {
            if (!scheduleOf(out.trace).save(opts.explore.scheduleOut)) {
                std::fprintf(stderr,
                             "error: cannot write schedule to %s\n",
                             opts.explore.scheduleOut.c_str());
                return 1;
            }
        }
        if (opts.jsonOut) {
            std::printf("{\n  \"mode\": \"replay\",\n"
                        "  \"verdict\": \"%s\",\n"
                        "  \"decisions\": %zu,\n"
                        "  \"mismatches\": %llu,\n"
                        "  \"exec_time\": %llu",
                        exploreVerdictName(out.verdict),
                        out.trace.size(),
                        static_cast<unsigned long long>(
                            out.mismatches),
                        static_cast<unsigned long long>(
                            out.execTime));
            if (!out.detail.empty())
                std::printf(",\n  \"detail\": \"%s\"",
                            jsonEscape(out.detail).c_str());
            std::printf("\n}\n");
        } else {
            std::printf("replay %s: %s (%zu decisions, exec_time=%llu"
                        ")\n",
                        opts.explore.schedule.c_str(),
                        exploreVerdictName(out.verdict),
                        out.trace.size(),
                        static_cast<unsigned long long>(
                            out.execTime));
            if (!out.detail.empty())
                std::printf("  %s\n", out.detail.c_str());
        }
        return exitCodeOf(out.verdict);
    }

    std::FILE *results = nullptr;
    if (!opts.explore.resultsOut.empty()) {
        results = std::fopen(opts.explore.resultsOut.c_str(), "w");
        if (!results) {
            std::fprintf(stderr, "error: cannot open %s\n",
                         opts.explore.resultsOut.c_str());
            return 1;
        }
        ex.onSchedule = [results](std::uint64_t idx,
                                  const Schedule &pfx,
                                  const RunOutcome &out) {
            std::fprintf(results,
                         "{\"schedule\": %llu, \"prefix_len\": %zu, "
                         "\"decisions\": %zu, \"verdict\": \"%s\", "
                         "\"exec_time\": %llu}\n",
                         static_cast<unsigned long long>(idx),
                         pfx.size(), out.trace.size(),
                         exploreVerdictName(out.verdict),
                         static_cast<unsigned long long>(
                             out.execTime));
        };
    }

    ExploreResult r = ex.explore();
    if (results)
        std::fclose(results);

    if (r.found && !opts.explore.scheduleOut.empty()) {
        if (!r.counterexample.save(opts.explore.scheduleOut)) {
            std::fprintf(stderr,
                         "error: cannot write schedule to %s\n",
                         opts.explore.scheduleOut.c_str());
            return 1;
        }
    }

    if (opts.jsonOut) {
        std::printf("{\n  \"mode\": \"explore\",\n"
                    "  \"schedules\": %llu,\n"
                    "  \"decisions\": %llu,\n"
                    "  \"pruned_por\": %llu,\n"
                    "  \"pruned_fingerprint\": %llu,\n"
                    "  \"frontier_peak\": %llu,\n"
                    "  \"violations\": %llu,\n"
                    "  \"exhaustive\": %s,\n"
                    "  \"budget_exhausted\": %s,\n"
                    "  \"wall_ms\": %.1f,\n"
                    "  \"verdict\": \"%s\"",
                    static_cast<unsigned long long>(r.schedulesRun),
                    static_cast<unsigned long long>(r.decisionsTotal),
                    static_cast<unsigned long long>(r.prunedPor),
                    static_cast<unsigned long long>(
                        r.prunedFingerprint),
                    static_cast<unsigned long long>(r.frontierPeak),
                    static_cast<unsigned long long>(r.violations),
                    r.exhaustive ? "true" : "false",
                    r.budgetExhausted ? "true" : "false", r.wallMs,
                    exploreVerdictName(r.verdict));
        if (r.found) {
            std::printf(",\n  \"counterexample_len\": %zu,\n"
                        "  \"minimized_prefix_len\": %zu,\n"
                        "  \"minimize_runs\": %llu",
                        r.counterexample.size(),
                        r.minimizedPrefixLen,
                        static_cast<unsigned long long>(
                            r.minimizeRuns));
            if (!r.detail.empty())
                std::printf(",\n  \"detail\": \"%s\"",
                            jsonEscape(r.detail).c_str());
        }
        std::printf("\n}\n");
    } else {
        std::printf("explored %llu schedules (%llu decisions, "
                    "frontier peak %llu) in %.1f ms\n",
                    static_cast<unsigned long long>(r.schedulesRun),
                    static_cast<unsigned long long>(r.decisionsTotal),
                    static_cast<unsigned long long>(r.frontierPeak),
                    r.wallMs);
        std::printf("pruned: %llu by POR, %llu by fingerprint%s\n",
                    static_cast<unsigned long long>(r.prunedPor),
                    static_cast<unsigned long long>(
                        r.prunedFingerprint),
                    r.exhaustive        ? " (tree exhausted)"
                    : r.budgetExhausted ? " (budget exhausted)"
                                        : "");
        if (r.found) {
            std::printf("VIOLATION: %s after %llu schedules\n",
                        exploreVerdictName(r.verdict),
                        static_cast<unsigned long long>(
                            r.schedulesRun));
            if (!r.detail.empty())
                std::printf("  %s\n", r.detail.c_str());
            std::printf("counterexample: %zu decisions (minimal "
                        "forced prefix %zu, %llu minimization "
                        "runs)%s%s\n",
                        r.counterexample.size(), r.minimizedPrefixLen,
                        static_cast<unsigned long long>(
                            r.minimizeRuns),
                        opts.explore.scheduleOut.empty() ? ""
                                                         : " -> ",
                        opts.explore.scheduleOut.c_str());
        } else {
            std::printf("no violation found (%llu violations "
                        "total)\n",
                        static_cast<unsigned long long>(
                            r.violations));
        }
    }

    return r.found ? exitCodeOf(r.verdict) : 0;
}
