/**
 * @file
 * Exploration microbenchmark: schedules/second through the stateless
 * model checker, and the measured effectiveness of its two prunes.
 *
 *   micro_explore [--schedules N] [--delay N]
 *
 * Runs the 2-proc store-buffering exploration four ways — naive,
 * POR only, fingerprint only, both — on identical budgets and
 * reports schedule counts, pruned-alternative counts, and wall
 * clock. Exits non-zero if signature-POR fails to cut the schedule
 * count by at least 30% versus naive enumeration (the subsystem's
 * acceptance bar), so a regression in the independence relation
 * shows up here as well as in the unit tests.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "explore/explorer.hh"

using namespace bulksc;

namespace {

ExploreResult
run(bool por, bool fp, std::uint64_t budget, Tick delay)
{
    SimOptions opts;
    opts.litmus = "sb";
    opts.explore.delayChoices = delay;
    opts.explore.por = por;
    opts.explore.fpPrune = fp;
    opts.explore.maxSchedules = budget;
    ExploreConfig ec;
    std::string err;
    if (!configureExploration(opts, ec, err)) {
        std::fprintf(stderr, "micro_explore: %s\n", err.c_str());
        std::exit(1);
    }
    return Explorer(std::move(ec)).explore();
}

void
report(const char *label, const ExploreResult &r)
{
    std::printf("%-18s %6llu schedules  %6llu POR-pruned  "
                "%6llu fp-pruned  %8.1f ms  %s\n",
                label,
                static_cast<unsigned long long>(r.schedulesRun),
                static_cast<unsigned long long>(r.prunedPor),
                static_cast<unsigned long long>(r.prunedFingerprint),
                r.wallMs, r.exhaustive ? "exhaustive" : "budget");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t budget = 3000;
    Tick delay = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--schedules") && i + 1 < argc)
            budget = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--delay") && i + 1 < argc)
            delay = std::strtoull(argv[++i], nullptr, 10);
        else {
            std::fprintf(stderr,
                         "usage: %s [--schedules N] [--delay N]\n",
                         argv[0]);
            return 1;
        }
    }

    ExploreResult naive = run(false, false, budget, delay);
    ExploreResult por = run(true, false, budget, delay);
    ExploreResult fp = run(false, true, budget, delay);
    ExploreResult both = run(true, true, budget, delay);

    std::printf("sb exploration, budget %llu%s:\n",
                static_cast<unsigned long long>(budget),
                delay ? " (+delay choices)" : "");
    report("naive", naive);
    report("POR", por);
    report("fingerprint", fp);
    report("POR+fingerprint", both);

    if (naive.exhaustive && por.exhaustive) {
        double cut = 1.0 - static_cast<double>(por.schedulesRun) /
                               static_cast<double>(
                                   naive.schedulesRun);
        std::printf("POR cut: %.0f%%\n", 100.0 * cut);
        if (cut < 0.30) {
            std::fprintf(stderr,
                         "FAIL: POR pruned %.0f%% < 30%%\n",
                         100.0 * cut);
            return 1;
        }
    }
    return 0;
}
