/**
 * @file
 * Tests for the forward-progress watchdog: each detector (deadlock,
 * livelock, starvation) against a synthetic fixture that provokes it,
 * the rescue path, and the guarantee that an armed watchdog never
 * perturbs a healthy run.
 */

#include <gtest/gtest.h>

#include "core/bulk_processor.hh"
#include "system/sim_options.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

Op
load(Addr a, std::uint32_t gap = 1)
{
    Op op;
    op.type = OpType::Load;
    op.addr = a;
    op.gap = gap;
    op.tracked = true;
    return op;
}

Op
store(Addr a, std::uint64_t v, std::uint32_t gap = 1)
{
    Op op;
    op.type = OpType::Store;
    op.addr = a;
    op.storeValue = v;
    op.gap = gap;
    op.tracked = true;
    return op;
}

Trace
makeTrace(std::vector<Op> ops)
{
    Trace t;
    t.ops = std::move(ops);
    t.finalize();
    return t;
}

/** Plain two-processor workload on disjoint lines: always healthy. */
std::vector<Trace>
healthyTraces()
{
    std::vector<Trace> traces;
    for (int p = 0; p < 2; ++p) {
        std::vector<Op> ops;
        const Addr base = 0xA000'0000 + p * 0x1000;
        for (int i = 0; i < 200; ++i) {
            ops.push_back(store(base + (i % 8) * 64, i, 2));
            ops.push_back(load(base + (i % 8) * 64, 2));
        }
        traces.push_back(makeTrace(ops));
    }
    return traces;
}

TEST(Watchdog, HealthyRunPassesCleanly)
{
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.watchdog.enabled = true;
    cfg.watchdog.interval = 1'000;
    System sys(cfg, healthyTraces());
    Results r = sys.run(100'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.watchdogVerdict, WatchdogVerdict::None);
    EXPECT_TRUE(r.watchdogReport.empty());
    EXPECT_GT(r.stats.get("watchdog.checks"), 0.0);
    EXPECT_EQ(r.stats.get("watchdog.rescues"), 0.0);
}

TEST(Watchdog, ObservationDoesNotPerturbTheSimulation)
{
    // The watchdog only reads machine state; an armed-but-untripped
    // run must retire, commit, and squash exactly like an unwatched
    // one.
    auto run = [&](bool enabled) {
        MachineConfig cfg;
        cfg.model = Model::BSCdypvt;
        cfg.numProcs = 2;
        cfg.watchdog.enabled = enabled;
        cfg.watchdog.interval = 500;
        System sys(cfg, healthyTraces());
        return sys.run(100'000'000);
    };
    Results with = run(true);
    Results without = run(false);
    ASSERT_TRUE(with.completed);
    ASSERT_TRUE(without.completed);
    EXPECT_EQ(with.stats.get("cpu.retired_instrs"),
              without.stats.get("cpu.retired_instrs"));
    EXPECT_EQ(with.stats.get("bulk.commits"),
              without.stats.get("bulk.commits"));
    EXPECT_EQ(with.stats.get("cpu.squashes"),
              without.stats.get("cpu.squashes"));
}

TEST(Watchdog, DeadlockDetectedWhenProtocolWedges)
{
    // Lose every arbiter reply and give up resending quickly: the
    // machine wedges with chunks waiting on grants that will never
    // arrive. The no-progress detector must convert the wedge into a
    // Deadlock verdict with a diagnostic dump instead of a silent
    // tick-limit timeout.
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.faults = "arb.grant_loss=1.0";
    cfg.resend.maxResend = 2;
    cfg.resend.timeout = 64;
    cfg.watchdog.enabled = true;
    cfg.watchdog.interval = 2'000;
    System sys(cfg, healthyTraces());
    Results r = sys.run(100'000'000);
    EXPECT_FALSE(r.completed);
    ASSERT_EQ(r.watchdogVerdict, WatchdogVerdict::Deadlock);
    // The report must name the verdict and dump per-processor chunk
    // state for post-mortem debugging.
    EXPECT_NE(r.watchdogReport.find("deadlock"), std::string::npos);
    EXPECT_NE(r.watchdogReport.find("cpu0"), std::string::npos);
    EXPECT_NE(r.watchdogReport.find("cpu1"), std::string::npos);
    EXPECT_NE(r.watchdogReport.find("chunk"), std::string::npos);
}

TEST(Watchdog, TickCeilingTripsEvenWithProgress)
{
    // A hard wall-clock budget: the run is healthy but slow, and the
    // ceiling converts it into a Deadlock verdict at a known tick.
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.watchdog.enabled = true;
    cfg.watchdog.interval = 100;
    cfg.watchdog.tickCeiling = 100;
    System sys(cfg, healthyTraces());
    Results r = sys.run(100'000'000);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.watchdogVerdict, WatchdogVerdict::Deadlock);
    EXPECT_NE(r.watchdogReport.find("tick ceiling"),
              std::string::npos);
}

TEST(Watchdog, LivelockDetectedOnSquashStorm)
{
    // Four processors ping-pong on one line with chunks already at
    // the minimum size: shrinking has no room left, so a tiny
    // livelock threshold must trip while the storm rages.
    const Addr v = 0x9100'0000;
    auto mk = [&] {
        std::vector<Op> ops;
        for (int i = 0; i < 2'000; ++i) {
            ops.push_back(load(v, 2));
            ops.push_back(store(v, i, 2));
        }
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    cfg.bulk.chunkSize = 16;
    cfg.bulk.minChunkSize = 16;
    cfg.bulk.preArbThreshold = 1'000'000; // keep pre-arb out of the way
    cfg.watchdog.enabled = true;
    cfg.watchdog.interval = 200;
    cfg.watchdog.livelockSquashes = 2;
    System sys(cfg, {mk(), mk(), mk(), mk()});
    Results r = sys.run(200'000'000);
    EXPECT_FALSE(r.completed);
    ASSERT_EQ(r.watchdogVerdict, WatchdogVerdict::Livelock);
    EXPECT_NE(r.watchdogReport.find("livelock"), std::string::npos);
}

/**
 * Starvation fixture: each of processor 0's memory ops is preceded
 * by thousands of non-memory instructions, so every chunk takes
 * ~1000 ticks to fill and its commits are far apart, while the other
 * processors commit every few dozen ticks. No contention — the gap
 * is purely one of commit cadence.
 */
std::vector<Trace>
starvationTraces()
{
    std::vector<Trace> traces;
    {
        std::vector<Op> ops;
        for (int i = 0; i < 100; ++i)
            ops.push_back(store(0xD000'0000 + (i % 4) * 64, i, 4'000));
        traces.push_back(makeTrace(ops));
    }
    for (int p = 1; p < 4; ++p) {
        std::vector<Op> ops;
        const Addr base = 0xA200'0000 + p * 0x1000;
        for (int i = 0; i < 30'000; ++i)
            ops.push_back(store(base + (i % 8) * 64, i, 0));
        traces.push_back(makeTrace(ops));
    }
    return traces;
}

TEST(Watchdog, StarvationTripsWithRescueDisabled)
{
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    cfg.bulk.chunkSize = 200;
    cfg.watchdog.enabled = true;
    cfg.watchdog.interval = 200;
    cfg.watchdog.starvationGap = 400;
    cfg.watchdog.rescue = false;
    System sys(cfg, starvationTraces());
    Results r = sys.run(200'000'000);
    EXPECT_FALSE(r.completed);
    ASSERT_EQ(r.watchdogVerdict, WatchdogVerdict::Starvation);
    EXPECT_NE(r.watchdogReport.find("starvation"), std::string::npos);
    EXPECT_NE(r.watchdogReport.find("cpu0"), std::string::npos);
}

TEST(Watchdog, RescueBoostsTheStarvedProcessor)
{
    // Same fixture with graceful degradation on: the lagging
    // processor gets its chunks clamped to the minimum size plus
    // pre-arbitration priority before the trip threshold.
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    cfg.bulk.chunkSize = 200;
    cfg.watchdog.enabled = true;
    cfg.watchdog.interval = 200;
    cfg.watchdog.starvationGap = 400;
    cfg.watchdog.rescue = true;
    System sys(cfg, starvationTraces());
    Results r = sys.run(200'000'000);
    EXPECT_GT(r.stats.get("watchdog.rescues"), 0.0);
    ASSERT_NE(sys.watchdog(), nullptr);
    EXPECT_GT(sys.watchdog()->rescues(), 0u);
}

TEST(Watchdog, DisabledByDefaultForLibraryUse)
{
    // Embedders constructing a MachineConfig directly get no
    // watchdog; the command-line tools opt in via SimOptions.
    MachineConfig raw;
    EXPECT_FALSE(raw.watchdog.enabled);
    SimOptions opts;
    EXPECT_TRUE(opts.cfg.watchdog.enabled);

    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, healthyTraces());
    EXPECT_EQ(sys.watchdog(), nullptr);
    Results r = sys.run(100'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stats.get("watchdog.checks"), 0.0);
}

TEST(Watchdog, ValidateRejectsZeroInterval)
{
    MachineConfig cfg;
    cfg.watchdog.enabled = true;
    cfg.watchdog.interval = 0;
    std::string err;
    EXPECT_FALSE(cfg.validate(err));
    EXPECT_NE(err.find("watchdog"), std::string::npos);
}

} // namespace
} // namespace bulksc
