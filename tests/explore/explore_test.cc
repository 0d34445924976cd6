/**
 * @file
 * Tests for the schedule-exploration subsystem: schedule file
 * round-tripping, the signature-based independence relation, clean
 * litmus explorations, POR effectiveness, and the full counterexample
 * workflow (find, minimize, replay byte-identically).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "explore/explorer.hh"
#include "explore/run_controller.hh"
#include "explore/schedule.hh"
#include "signature/signature.hh"

namespace bulksc {
namespace {

// ---------------------------------------------------------------- //
// Schedule files                                                   //
// ---------------------------------------------------------------- //

TEST(Schedule, SaveLoadRoundTrip)
{
    Schedule s;
    s.choices.push_back(Choice{ChoiceKind::Order, 1, 3});
    s.choices.push_back(Choice{ChoiceKind::Delay, 2, 3});
    s.choices.push_back(Choice{ChoiceKind::Order, 0, 2});

    std::string path = ::testing::TempDir() + "sched_rt_" +
                       std::to_string(::getpid()) + ".txt";
    ASSERT_TRUE(s.save(path));

    Schedule t;
    std::string err;
    ASSERT_TRUE(t.load(path, err)) << err;
    EXPECT_EQ(s, t);

    // The canonical form is stable: re-saving the loaded schedule
    // produces byte-identical text.
    std::string path2 = path + ".2";
    ASSERT_TRUE(t.save(path2));
    auto slurp = [](const std::string &p) {
        std::FILE *f = std::fopen(p.c_str(), "rb");
        std::string out;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            out.append(buf, n);
        std::fclose(f);
        return out;
    };
    EXPECT_EQ(slurp(path), slurp(path2));
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(Schedule, ParseRejectsMalformedInput)
{
    Schedule s;
    std::string err;
    EXPECT_FALSE(s.parse("O 1/3\n", err)); // missing header
    EXPECT_FALSE(
        s.parse("# bulksc schedule v1\nX 1/3\n", err)); // bad kind
    EXPECT_FALSE(
        s.parse("# bulksc schedule v1\nO 3/3\n", err)); // out of range
    EXPECT_FALSE(
        s.parse("# bulksc schedule v1\nO nope\n", err)); // garbage
}

TEST(Schedule, ParseToleratesCommentsAndBlankLines)
{
    Schedule s;
    std::string err;
    ASSERT_TRUE(s.parse("# bulksc schedule v1\n"
                        "\n"
                        "# a comment\n"
                        "O 1/2\r\n"
                        "D 0/3\n",
                        err))
        << err;
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.choices[0].kind, ChoiceKind::Order);
    EXPECT_EQ(s.choices[0].chosen, 1u);
    EXPECT_EQ(s.choices[1].kind, ChoiceKind::Delay);
}

TEST(Schedule, PrefixTruncates)
{
    Schedule s;
    s.choices.push_back(Choice{ChoiceKind::Order, 1, 2});
    s.choices.push_back(Choice{ChoiceKind::Delay, 0, 3});
    EXPECT_EQ(s.prefix(1).size(), 1u);
    EXPECT_EQ(s.prefix(5).size(), 2u);
    EXPECT_TRUE(s.prefix(0).empty());
}

// ---------------------------------------------------------------- //
// Independence relation                                            //
// ---------------------------------------------------------------- //

class DependenceTest : public ::testing::Test
{
  protected:
    EventFootprint
    lineEvent(int dst, LineAddr line)
    {
        EventFootprint f;
        f.dst = dst;
        f.hasLine = true;
        f.line = line;
        return f;
    }

    EventFootprint
    sigEvent(int dst, std::initializer_list<LineAddr> reads,
             std::initializer_list<LineAddr> writes)
    {
        EventFootprint f;
        f.dst = dst;
        if (reads.size()) {
            auto r = std::make_shared<Signature>();
            for (LineAddr l : reads)
                r->insert(l);
            f.rsig = r;
        }
        if (writes.size()) {
            auto w = std::make_shared<Signature>();
            for (LineAddr l : writes)
                w->insert(l);
            f.wsig = w;
        }
        return f;
    }
};

TEST_F(DependenceTest, SameDestinationIsAlwaysDependent)
{
    EXPECT_TRUE(RunController::dependent(lineEvent(3, 0x10),
                                         lineEvent(3, 0x999)));
}

TEST_F(DependenceTest, UnknownFootprintIsDependent)
{
    EventFootprint unknown;
    unknown.dst = 1;
    EXPECT_TRUE(
        RunController::dependent(unknown, lineEvent(2, 0x10)));
}

TEST_F(DependenceTest, DistinctLinesAreIndependent)
{
    EXPECT_FALSE(RunController::dependent(lineEvent(1, 0x10),
                                          lineEvent(2, 0x20)));
    EXPECT_TRUE(RunController::dependent(lineEvent(1, 0x10),
                                         lineEvent(2, 0x10)));
}

TEST_F(DependenceTest, LineInSignatureIsDependent)
{
    EventFootprint sig = sigEvent(1, {}, {0x10, 0x30});
    EXPECT_TRUE(RunController::dependent(lineEvent(2, 0x10), sig));
    EXPECT_FALSE(RunController::dependent(lineEvent(2, 0x777), sig));
}

TEST_F(DependenceTest, DisjointSignaturesAreIndependent)
{
    EventFootprint a = sigEvent(1, {}, {0x10});
    EventFootprint b = sigEvent(2, {}, {0x20});
    EXPECT_FALSE(RunController::dependent(a, b));

    EventFootprint c = sigEvent(3, {0x10}, {});
    EXPECT_TRUE(RunController::dependent(a, c)); // W ∩ R ≠ ∅
}

// ---------------------------------------------------------------- //
// Exploration                                                      //
// ---------------------------------------------------------------- //

ExploreConfig
litmusConfig(const std::string &name)
{
    SimOptions opts;
    opts.litmus = name;
    ExploreConfig ec;
    std::string err;
    EXPECT_TRUE(configureExploration(opts, ec, err)) << err;
    ec.maxSchedules = 5000;
    return ec;
}

TEST(Explorer, CleanSbExplorationIsViolationFree)
{
    Explorer ex(litmusConfig("sb"));
    ExploreResult r = ex.explore();
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_FALSE(r.found);
    EXPECT_GE(r.schedulesRun, 2u);
}

TEST(Explorer, CleanMpExplorationIsViolationFree)
{
    Explorer ex(litmusConfig("mp"));
    ExploreResult r = ex.explore();
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.violations, 0u);
}

TEST(Explorer, ReplayIsDeterministic)
{
    Explorer ex(litmusConfig("sb"));
    RunOutcome a = ex.runOne(Schedule{});
    RunOutcome b = ex.runOne(Schedule{});
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].chosen, b.trace[i].chosen);
        EXPECT_EQ(a.trace[i].numOptions, b.trace[i].numOptions);
        EXPECT_EQ(a.trace[i].fingerprint, b.trace[i].fingerprint);
    }
    EXPECT_EQ(a.execTime, b.execTime);
}

TEST(Explorer, SignaturePorPrunesAtLeastThirtyPercent)
{
    // The acceptance bar: on 2-proc store-buffering, POR must cut the
    // schedule count by >= 30% versus naive enumeration (fingerprint
    // pruning off in both, so only POR differs).
    ExploreConfig on = litmusConfig("sb");
    on.fpPrune = false;
    on.por = true;
    ExploreResult ron = Explorer(on).explore();
    ASSERT_TRUE(ron.exhaustive);

    ExploreConfig off = litmusConfig("sb");
    off.fpPrune = false;
    off.por = false;
    ExploreResult roff = Explorer(off).explore();
    ASSERT_TRUE(roff.exhaustive);

    EXPECT_GT(ron.prunedPor, 0u);
    EXPECT_LE(ron.schedulesRun * 10, roff.schedulesRun * 7)
        << "POR ran " << ron.schedulesRun << " of "
        << roff.schedulesRun << " naive schedules";
}

TEST(Explorer, WaveParallelismPreservesEnumeration)
{
    ExploreConfig seq = litmusConfig("sb");
    ExploreResult rs = Explorer(seq).explore();

    ExploreConfig par = litmusConfig("sb");
    par.jobs = 4;
    ExploreResult rp = Explorer(par).explore();

    EXPECT_EQ(rs.schedulesRun, rp.schedulesRun);
    EXPECT_EQ(rs.decisionsTotal, rp.decisionsTotal);
    EXPECT_EQ(rs.prunedPor, rp.prunedPor);
    EXPECT_EQ(rs.violations, rp.violations);
}

TEST(Explorer, FingerprintPruningShrinksTheSearch)
{
    ExploreConfig with = litmusConfig("sb");
    ExploreResult rw = Explorer(with).explore();
    ASSERT_TRUE(rw.exhaustive);

    ExploreConfig without = litmusConfig("sb");
    without.fpPrune = false;
    ExploreResult ro = Explorer(without).explore();
    ASSERT_TRUE(ro.exhaustive);

    EXPECT_GT(rw.prunedFingerprint, 0u);
    EXPECT_LE(rw.schedulesRun, ro.schedulesRun);
    EXPECT_EQ(rw.violations, ro.violations);
}

// The end-to-end acceptance path: a fault that breaks the arbiter's
// collision check must yield an SC-violation counterexample that
// minimizes and replays to the identical verdict and schedule.
TEST(Explorer, FaultedArbiterYieldsMinimizedReplayableCex)
{
    ExploreConfig ec = litmusConfig("sb");
    ec.machine.faults = "arb.skip_collision=1,net.delay=0:40";
    ec.maxSchedules = 2000;
    Explorer ex(ec);

    ExploreResult r = ex.explore();
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.verdict, ExploreVerdict::ScViolation);
    EXPECT_LE(r.minimizedPrefixLen, r.counterexample.size());

    // Replaying the counterexample reproduces the violation, and
    // re-recording it yields the identical schedule (byte-identical
    // once serialized).
    RunOutcome replay = ex.runOne(r.counterexample);
    EXPECT_EQ(replay.verdict, ExploreVerdict::ScViolation);
    EXPECT_EQ(replay.mismatches, 0u);
    Schedule rerec;
    for (const DecisionRecord &d : replay.trace)
        rerec.choices.push_back(d.choice());
    EXPECT_EQ(rerec, r.counterexample);
    EXPECT_EQ(rerec.str(), r.counterexample.str());

    // The minimized prefix alone (defaults beyond it) also
    // reproduces the violation.
    RunOutcome min =
        ex.runOne(r.counterexample.prefix(r.minimizedPrefixLen));
    EXPECT_EQ(min.verdict, ExploreVerdict::ScViolation);
}

TEST(Explorer, StopAtFirstOffCountsEveryViolation)
{
    ExploreConfig ec = litmusConfig("sb");
    ec.machine.faults = "arb.skip_collision=1,net.delay=0:40";
    ec.maxSchedules = 200;
    ec.stopAtFirst = false;
    ec.minimize = false;
    ExploreResult r = Explorer(ec).explore();
    ASSERT_TRUE(r.found);
    EXPECT_GE(r.violations, 1u);
    EXPECT_EQ(r.minimizeRuns, 0u);
}

TEST(Explorer, ScheduleBudgetIsRespected)
{
    ExploreConfig ec = litmusConfig("sb");
    ec.machine.faults = "net.delay=0:40"; // plenty of branching
    ec.maxSchedules = 7;
    ExploreResult r = Explorer(ec).explore();
    EXPECT_EQ(r.schedulesRun, 7u);
    EXPECT_TRUE(r.budgetExhausted);
    EXPECT_FALSE(r.exhaustive);
}

TEST(Explorer, OnScheduleSeesDeterministicIndices)
{
    ExploreConfig ec = litmusConfig("sb");
    Explorer ex(ec);
    std::uint64_t next = 0;
    bool ordered = true;
    ex.onSchedule = [&](std::uint64_t idx, const Schedule &,
                        const RunOutcome &) {
        if (idx != next++)
            ordered = false;
    };
    ExploreResult r = ex.explore();
    EXPECT_TRUE(ordered);
    EXPECT_EQ(next, r.schedulesRun);
}

// --check replay selects the serial-replay checker alone, and it
// runs on every explored schedule (litmus ops are value-tracked).
TEST(Explorer, CheckReplayRunsOnExploredSchedules)
{
    const char *argv[] = {"--litmus", "sb", "--check", "replay"};
    SimOptions opts;
    std::string err;
    ASSERT_TRUE(OptionRegistry::instance().parse(
        4, argv, opts, OptionGroup::Explore, err))
        << err;
    ExploreConfig ec;
    ASSERT_TRUE(configureExploration(opts, ec, err)) << err;
    EXPECT_TRUE(ec.checkReplay);
    EXPECT_FALSE(ec.checkAxiomatic);
    EXPECT_FALSE(ec.checkRace);

    Explorer ex(ec);
    Schedule last;
    ex.onSchedule = [&last](std::uint64_t, const Schedule &pfx,
                            const RunOutcome &) { last = pfx; };
    ExploreResult r = ex.explore();
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.violations, 0u);
    ASSERT_GT(last.size(), 0u);

    Results res;
    RunOutcome out = ex.runOne(last, &res);
    EXPECT_EQ(out.verdict, ExploreVerdict::OK);
    EXPECT_EQ(out.mismatches, 0u);
    EXPECT_GT(res.stats.get("sc_verifier.chunks"), 0.0);
    EXPECT_EQ(res.stats.get("sc_verifier.verified"), 1.0);
    EXPECT_FALSE(res.stats.has("analysis.chunks"));
}

} // namespace
} // namespace bulksc
