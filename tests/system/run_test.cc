/**
 * @file
 * Tests for the shared run pipeline: the workload resolver (litmus,
 * saved bundles, generated profiles; errors instead of aborts) and
 * the judge with its verdict table (names, exit codes, precedence).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "system/run.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"
#include "workload/trace_io.hh"

namespace bulksc {
namespace {

// ---------------------------------------------------------------- //
// Resolver                                                         //
// ---------------------------------------------------------------- //

TEST(ResolveWorkload, LitmusSetsPredicateAndProcessorCount)
{
    SimOptions opts;
    opts.litmus = "iriw";
    opts.cfg.numProcs = 8;
    ResolvedWorkload w;
    std::string err;
    ASSERT_TRUE(resolveWorkload(opts, w, err)) << err;
    EXPECT_EQ(w.name, "litmus-iriw");
    EXPECT_EQ(w.litmusName, "iriw-v0");
    EXPECT_TRUE(w.allowedSC);
    EXPECT_EQ(w.traces.size(), 4u);
    EXPECT_EQ(opts.cfg.numProcs, 4u);
}

TEST(ResolveWorkload, UnknownNamesAreErrorsNotAborts)
{
    SimOptions app;
    app.app = "no-such-app";
    ResolvedWorkload w;
    std::string err;
    EXPECT_FALSE(resolveWorkload(app, w, err));
    EXPECT_NE(err.find("no-such-app"), std::string::npos) << err;

    SimOptions lit;
    lit.litmus = "no-such-test";
    err.clear();
    EXPECT_FALSE(resolveWorkload(lit, w, err));
    EXPECT_NE(err.find("no-such-test"), std::string::npos) << err;

    SimOptions bundle;
    bundle.loadTraces = ::testing::TempDir() + "bulksc_no_such_bundle";
    err.clear();
    EXPECT_FALSE(resolveWorkload(bundle, w, err));
    EXPECT_FALSE(err.empty());
}

TEST(ResolveWorkload, ReplayCheckTracksEveryValue)
{
    auto memOps = [](const std::vector<Trace> &traces, bool tracked) {
        std::size_t n = 0;
        for (const Trace &t : traces) {
            for (const Op &op : t.ops) {
                if ((op.type == OpType::Load ||
                     op.type == OpType::Store) &&
                    op.tracked == tracked)
                    ++n;
            }
        }
        return n;
    };
    SimOptions opts;
    opts.app = "ocean";
    opts.cfg.numProcs = 2;
    opts.instrs = 2000;
    ResolvedWorkload plain, replay;
    std::string err;
    ASSERT_TRUE(resolveWorkload(opts, plain, err)) << err;
    EXPECT_GT(memOps(plain.traces, false), 0u);

    opts.checks.replay = true;
    ASSERT_TRUE(resolveWorkload(opts, replay, err)) << err;
    EXPECT_EQ(memOps(replay.traces, false), 0u);
    EXPECT_GT(memOps(replay.traces, true), 0u);
    EXPECT_EQ(replay.name, "ocean");
    EXPECT_FALSE(replay.allowedSC);
}

TEST(ResolveWorkload, BundleTraceCountWinsOverProcs)
{
    std::string path = ::testing::TempDir() + "bulksc_run_test_16.trc";
    std::string err;
    ASSERT_TRUE(saveTraces(
        path, generateTraces(profileByName("fft"), 16, 500), err))
        << err;
    SimOptions opts; // default --procs
    opts.loadTraces = path;
    ResolvedWorkload w;
    ASSERT_TRUE(resolveWorkload(opts, w, err)) << err;
    std::remove(path.c_str());
    EXPECT_EQ(w.traces.size(), 16u);
    EXPECT_EQ(opts.cfg.numProcs, 16u);
}

TEST(ResolveWorkload, BundleErrorsCarryTheLoaderReason)
{
    std::string path = ::testing::TempDir() + "bulksc_run_test_bad.trc";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a bundle", f);
    std::fclose(f);

    SimOptions garbage;
    garbage.loadTraces = path;
    ResolvedWorkload w;
    std::string err;
    EXPECT_FALSE(resolveWorkload(garbage, w, err));
    std::remove(path.c_str());
    EXPECT_NE(err.find("not a trace bundle"), std::string::npos) << err;
    EXPECT_NE(err.find(path), std::string::npos) << err;

    SimOptions missing;
    missing.loadTraces = path;
    err.clear();
    EXPECT_FALSE(resolveWorkload(missing, w, err));
    EXPECT_NE(err.find("cannot open '" + path + "'"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------- //
// Judge                                                            //
// ---------------------------------------------------------------- //

constexpr Addr kX = 0x1000; // race
constexpr Addr kY = 0x2000; // memory-order cycle
constexpr Addr kZ = 0x3000; // replay mismatch

/** A value-less access: visible to the axiomatic checker and the race
 *  detector, skipped by the replay comparison. */
LoggedAccess
untracked(Addr a, bool write, WriterRef writer = {})
{
    LoggedAccess la{a, 0, write, false};
    la.writer = writer;
    return la;
}

/** Which oracle fires in one judge row. */
struct JudgeRow
{
    const char *label;
    bool cycle;
    bool replayMismatch;
    bool forbidden;
    bool race;
    WatchdogVerdict watchdog;
    bool completed;
    const char *name;
    int exitCode;
};

// Print the label so the test names do not carry the row's pointer bytes.
void
PrintTo(const JudgeRow &row, std::ostream *os)
{
    *os << row.label;
}

class JudgeTable : public ::testing::TestWithParam<JudgeRow>
{};

TEST_P(JudgeTable, VerdictNameAndExitCode)
{
    const JudgeRow &row = GetParam();
    AnalysisConfig acfg;
    acfg.axiomatic = acfg.race = acfg.replay = true;
    acfg.numProcs = 2;
    AnalysisEngine eng(acfg);
    std::uint64_t seq[2] = {0, 0};
    auto commit = [&](ProcId p, std::vector<LoggedAccess> log) {
        eng.chunkCommitted(10 * (seq[0] + seq[1] + 1), p, seq[p]++, log);
    };
    if (row.race) {
        // cpu1 reads cpu0's unsynchronized write: rf, no cycle.
        commit(0, {untracked(kX, true)});
        commit(1, {untracked(kX, false, {0, seq[0] - 1, 0})});
    }
    if (row.cycle) {
        // cpu1 read y before cpu0's write committed, then wrote y:
        // co(cpu0 -> cpu1) plus fr(cpu1 -> cpu0).
        commit(0, {untracked(kY, true)});
        commit(1, {untracked(kY, false), untracked(kY, true)});
    }
    if (row.replayMismatch) {
        // cpu0 observed 7 in a never-written cell (serial replay: 0).
        commit(0, {LoggedAccess{kZ, 7, false}});
    }
    ASSERT_EQ(eng.scOk(), !row.cycle);
    ASSERT_EQ(eng.replay()->verified(), !row.replayMismatch);
    ASSERT_EQ(eng.raceCount() > 0, row.race || row.cycle);

    Results res;
    res.completed = row.completed;
    res.watchdogVerdict = row.watchdog;
    if (row.watchdog != WatchdogVerdict::None)
        res.watchdogReport = "watchdog report";
    LitmusPredicate allowed = [&row](const auto &) {
        return !row.forbidden;
    };

    Judgement j = judgeRun(&eng, res, allowed);
    EXPECT_STREQ(exploreVerdictName(j.verdict), row.name);
    EXPECT_EQ(exitCodeOf(j.verdict), row.exitCode);
    EXPECT_EQ(j.verdict == ExploreVerdict::OK, j.detail.empty());
}

using WV = WatchdogVerdict;

INSTANTIATE_TEST_SUITE_P(
    Run, JudgeTable,
    ::testing::Values(
        // One row per verdict.
        JudgeRow{"Ok", false, false, false, false, WV::None, true, "ok",
                 0},
        JudgeRow{"Cycle", true, false, false, false, WV::None, true,
                 "sc-violation", 3},
        JudgeRow{"ReplayMismatch", false, true, false, false, WV::None,
                 true, "sc-violation", 3},
        JudgeRow{"LitmusForbidden", false, false, true, false, WV::None,
                 true, "litmus-forbidden", 3},
        JudgeRow{"Race", false, false, false, true, WV::None, true,
                 "race", 4},
        JudgeRow{"Livelock", false, false, false, false, WV::Livelock,
                 false, "livelock", 10},
        JudgeRow{"Starvation", false, false, false, false,
                 WV::Starvation, false, "starvation", 11},
        JudgeRow{"Deadlock", false, false, false, false, WV::Deadlock,
                 false, "deadlock", 12},
        JudgeRow{"Incomplete", false, false, false, false, WV::None,
                 false, "incomplete", 2},
        // Precedence: SC class > race > watchdog > incomplete.
        JudgeRow{"ForbiddenBeatsRace", false, false, true, true,
                 WV::None, true, "litmus-forbidden", 3},
        JudgeRow{"ReplayMismatchBeatsRace", false, true, false, true,
                 WV::None, true, "sc-violation", 3},
        JudgeRow{"CycleBeatsEverything", true, true, true, true,
                 WV::Deadlock, true, "sc-violation", 3},
        JudgeRow{"RaceBeatsWatchdog", false, false, false, true,
                 WV::Livelock, false, "race", 4},
        // An incomplete run's outcome is not judged by the predicate.
        JudgeRow{"ForbiddenNeedsCompletion", false, false, true, false,
                 WV::None, false, "incomplete", 2}),
    [](const auto &info) { return std::string(info.param.label); });

TEST(Judge, NoCheckersNoPredicate)
{
    Results res;
    res.completed = true;
    EXPECT_EQ(judgeRun(nullptr, res, {}).verdict, ExploreVerdict::OK);
    res.completed = false;
    EXPECT_EQ(judgeRun(nullptr, res, {}).verdict,
              ExploreVerdict::Incomplete);
}

} // namespace
} // namespace bulksc
