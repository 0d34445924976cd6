/**
 * @file
 * Integration tests for chunk-lifecycle event tracing: a full workload
 * runs with the sink enabled, and the recorded per-type event counts
 * must agree with the statistics counters collected independently by
 * the processors and the arbiter. Also checks the squash-attribution
 * table and the exported Chrome trace.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "sim/event_trace.hh"
#include "sim/fault_plane.hh"
#include "system/system.hh"
#include "workload/generator.hh"
#include "workload/litmus.hh"

namespace bulksc {
namespace {

/** A finished run and a copy of its event sink. */
struct TracedRun
{
    Results res;
    EventTrace et{0};
};

/** runWorkload() with every event family traced. */
TracedRun
traceWorkload(Model model, const char *app, unsigned num_procs,
              std::uint64_t instrs_per_proc, MachineConfig cfg = {})
{
    cfg.model = model;
    cfg.numProcs = num_procs;
    System sys(cfg, generateTraces(profileByName(app), num_procs,
                                   instrs_per_proc));
    sys.enableTrace(~std::uint32_t{0});
    TracedRun r;
    r.res = sys.run();
    r.et = *sys.trace();
    return r;
}

TEST(EventTraceIntegration, EventCountsMatchStats)
{
    auto [res, et] = traceWorkload(Model::BSCdypvt, "ocean", 4, 20'000);
    ASSERT_TRUE(res.completed);

    // Chunk lifecycle closes: every started chunk either committed or
    // was squashed (no chunk is live after a completed run).
    EXPECT_EQ(et.count(TraceEventType::ChunkStart),
              et.count(TraceEventType::ChunkCommit) +
                  et.count(TraceEventType::ChunkSquash));

    // One ChunkCommit per committed chunk.
    EXPECT_EQ(et.count(TraceEventType::ChunkCommit),
              static_cast<std::uint64_t>(
                  res.stats.get("bulk.commits")));

    // Grants/denials observed at the processors match the arbiter's
    // own counters, and every reply pairs with a request.
    EXPECT_EQ(et.count(TraceEventType::ArbGrant),
              static_cast<std::uint64_t>(res.stats.get("arb.grants")));
    EXPECT_EQ(et.count(TraceEventType::ArbDeny),
              static_cast<std::uint64_t>(res.stats.get("arb.denials")));
    EXPECT_EQ(et.count(TraceEventType::ArbRequest),
              static_cast<std::uint64_t>(
                  res.stats.get("arb.requests")));
    EXPECT_EQ(et.count(TraceEventType::ArbDecision),
              et.count(TraceEventType::ArbGrant) +
                  et.count(TraceEventType::ArbDeny));

    // One Squash instant per squash; per-chunk squash events cover at
    // least that many chunks.
    EXPECT_EQ(et.count(TraceEventType::Squash),
              static_cast<std::uint64_t>(
                  res.stats.get("cpu.squashes")));
    EXPECT_GE(et.count(TraceEventType::ChunkSquash),
              et.count(TraceEventType::Squash));

    // Directory bounces mirror the memory-system counter.
    EXPECT_EQ(et.count(TraceEventType::DirBounce),
              static_cast<std::uint64_t>(
                  res.stats.get("mem.bounced_reads")));

    // Commit begin/end pair up (non-empty W commits only).
    EXPECT_EQ(et.count(TraceEventType::CommitBegin),
              et.count(TraceEventType::CommitEnd));
    EXPECT_LE(et.count(TraceEventType::CommitBegin),
              et.count(TraceEventType::ChunkCommit));

    // Bulk invalidations: one per processor that was sent W. The
    // default full-mapped directory never displaces entries, so no
    // displacement-driven signatures muddy the count.
    EXPECT_DOUBLE_EQ(res.stats.get("mem.dir_displacements"), 0.0);
    EXPECT_EQ(et.count(TraceEventType::BulkInval),
              static_cast<std::uint64_t>(
                  res.stats.get("bulk.inval_nodes_total")));
}

TEST(EventTraceIntegration, DirectoryAndBarrierEventsMatchStats)
{
    // ocean is barrier-synchronized: one barrier every 25k instrs.
    auto [res, et] = traceWorkload(Model::BSCdypvt, "ocean", 4, 60'000);
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(et.dropped(), 0u);

    // One DirExpand per W expansion, carrying its lookup count.
    std::uint64_t lookups = 0;
    for (const TraceEvent &ev : et.snapshot()) {
        if (ev.type == TraceEventType::DirExpand)
            lookups += ev.arg;
    }
    EXPECT_GT(et.count(TraceEventType::DirExpand), 0u);
    EXPECT_EQ(lookups, static_cast<std::uint64_t>(
                           res.stats.get("mem.dir_lookups")));

    EXPECT_GT(et.count(TraceEventType::BarrierArrive), 0u);
}

TEST(EventTraceIntegration, ResendGiveUpsMatchStats)
{
    // Arbiter replies always lost (the processors give up) or commit
    // W deliveries always lost (the memory system abandons them):
    // either way the machine wedges. The tick ceiling bounds the
    // commit-loss run, whose denied retries look like progress.
    for (const char *faults :
         {"arb.grant_loss=1.0", "dir.commit_loss=1.0"}) {
        SCOPED_TRACE(faults);
        MachineConfig cfg;
        cfg.model = Model::BSCdypvt;
        cfg.numProcs = 2;
        cfg.faults = faults;
        cfg.resend.maxResend = 2;
        cfg.watchdog.enabled = true;
        cfg.watchdog.interval = 2'000;
        cfg.watchdog.tickCeiling = 1'000'000;
        System sys(cfg, makeStoreBuffering(0).traces);
        sys.enableTrace(~std::uint32_t{0});
        Results res = sys.run(50'000'000);
        const EventTrace &et = *sys.trace();
        ASSERT_EQ(res.watchdogVerdict, WatchdogVerdict::Deadlock);

        EXPECT_GT(et.count(TraceEventType::ResendGiveUp), 0u);
        EXPECT_EQ(et.count(TraceEventType::ResendGiveUp),
                  static_cast<std::uint64_t>(
                      res.stats.get("bulk.resend_give_ups") +
                      res.stats.get("mem.commit_abandoned")));
        EXPECT_EQ(et.count(TraceEventType::WatchdogTrip), 1u);
    }
}

TEST(EventTraceIntegration, InjectedGrantsAreTraced)
{
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.bulk.rsigOpt = false;
    cfg.faults = "arb.skip_collision=1";
    System sys(cfg, makeStoreBuffering(0).traces);
    sys.enableTrace(~std::uint32_t{0});
    Results res = sys.run(50'000'000);
    const EventTrace &et = *sys.trace();
    ASSERT_TRUE(res.completed);

    std::uint64_t injected = 0;
    for (const TraceEvent &ev : et.snapshot()) {
        if (ev.type == TraceEventType::FaultInject &&
            ev.arg == static_cast<std::uint64_t>(
                          FaultKind::ArbSkipCollision))
            ++injected;
    }
    EXPECT_GT(injected, 0u);
    EXPECT_EQ(injected, static_cast<std::uint64_t>(res.stats.get(
                            "arb.fault_injected_grants")));
}

TEST(EventTraceIntegration, SquashAttributionSumsToTotal)
{
    // High-contention app to actually provoke squashes.
    Results res =
        traceWorkload(Model::BSCdypvt, "ocean", 4, 20'000).res;
    ASSERT_TRUE(res.completed);

    double squashes = res.stats.get("cpu.squashes");
    EXPECT_DOUBLE_EQ(res.stats.get("bulk.squash.true_conflict") +
                         res.stats.get("bulk.squash.false_positive"),
                     squashes);

    // The latency histograms got their samples.
    EXPECT_DOUBLE_EQ(res.stats.get("bulk.arb_latency.samples"),
                     res.stats.get("bulk.commits"));
    if (squashes > 0) {
        EXPECT_GT(res.stats.get("bulk.squash_chunk_size.samples"),
                  0.0);
        EXPECT_GT(res.stats.get("bulk.squash_restart.samples"), 0.0);
    }
    EXPECT_LE(res.stats.get("bulk.arb_latency.p50"),
              res.stats.get("bulk.arb_latency.p99"));
    EXPECT_GT(res.stats.get("arb.commit_occupancy.samples"), 0.0);
    EXPECT_GT(res.stats.get("mem.dir_commit_service.samples"), 0.0);
}

TEST(EventTraceIntegration, ExactSignaturesNeverFalsePositive)
{
    // BSCexact uses alias-free signatures: every squash must be
    // attributed to a true conflict.
    Results res = runWorkload(Model::BSCexact, profileByName("ocean"),
                              4, 20'000);
    ASSERT_TRUE(res.completed);
    EXPECT_DOUBLE_EQ(res.stats.get("bulk.squash.false_positive"), 0.0);
    EXPECT_DOUBLE_EQ(res.stats.get("bulk.squash.true_conflict"),
                     res.stats.get("cpu.squashes"));
}

TEST(EventTraceIntegration, ChromeExportFromWorkloadIsWellFormed)
{
    auto [res, et] = traceWorkload(Model::BSCdypvt, "ocean", 4, 20'000);
    ASSERT_TRUE(res.completed);

    std::ostringstream os;
    et.writeChromeTrace(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"cpu0\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"cpu3\""), std::string::npos);
    EXPECT_NE(out.find("\"outcome\":\"commit\""), std::string::npos);
    EXPECT_NE(out.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    // Balanced braces/brackets as a cheap well-formedness check.
    long brace = 0, bracket = 0;
    bool in_str = false, esc = false;
    for (char c : out) {
        if (esc) {
            esc = false;
            continue;
        }
        if (in_str) {
            if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{')
            ++brace;
        else if (c == '}')
            --brace;
        else if (c == '[')
            ++bracket;
        else if (c == ']')
            --bracket;
    }
    EXPECT_EQ(brace, 0);
    EXPECT_EQ(bracket, 0);
    EXPECT_FALSE(in_str);
}

TEST(EventTraceIntegration, DistributedArbiterDecisionsCounted)
{
    MachineConfig cfg;
    cfg.numArbiters = 4;
    cfg.mem.numDirectories = 4;
    auto [res, et] =
        traceWorkload(Model::BSCdypvt, "ocean", 4, 20'000, cfg);
    ASSERT_TRUE(res.completed);

    EXPECT_EQ(et.count(TraceEventType::ArbGrant),
              static_cast<std::uint64_t>(res.stats.get("arb.grants")));
    EXPECT_EQ(et.count(TraceEventType::ArbDeny),
              static_cast<std::uint64_t>(res.stats.get("arb.denials")));
    EXPECT_EQ(et.count(TraceEventType::ArbDecision),
              et.count(TraceEventType::ArbGrant) +
                  et.count(TraceEventType::ArbDeny));
}

TEST(EventTraceIntegration, ConcurrentRunsKeepSeparateTraces)
{
    // Two traced runs of one configuration on two threads: each run
    // owns its sink, so each records exactly what a run alone does.
    TracedRun solo = traceWorkload(Model::BSCdypvt, "ocean", 4, 20'000);
    ASSERT_GT(solo.et.count(TraceEventType::Squash), 0u);

    TracedRun runs[2];
    std::thread a([&] {
        runs[0] = traceWorkload(Model::BSCdypvt, "ocean", 4, 20'000);
    });
    std::thread b([&] {
        runs[1] = traceWorkload(Model::BSCdypvt, "ocean", 4, 20'000);
    });
    a.join();
    b.join();

    for (const TracedRun &r : runs) {
        ASSERT_TRUE(r.res.completed);
        for (std::size_t t = 0;
             t < static_cast<std::size_t>(TraceEventType::NumTypes); ++t) {
            auto type = static_cast<TraceEventType>(t);
            SCOPED_TRACE(traceEventTypeName(type));
            EXPECT_EQ(r.et.count(type), solo.et.count(type));
        }
        EXPECT_EQ(r.et.recorded(), solo.et.recorded());
        EXPECT_EQ(r.et.count(TraceEventType::ChunkCommit),
                  static_cast<std::uint64_t>(
                      r.res.stats.get("bulk.commits")));
        EXPECT_EQ(r.et.count(TraceEventType::Squash),
                  static_cast<std::uint64_t>(
                      r.res.stats.get("cpu.squashes")));
    }
}

} // namespace
} // namespace bulksc
