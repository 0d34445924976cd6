/**
 * @file
 * End-to-end tests of the analysis engine: the axiomatic SC checker
 * passes on correct executions of full workloads and litmus programs,
 * agrees with the serial-replay verifier, catches the arbiter
 * fault-injection knob with a reported po ∪ rf ∪ co ∪ fr cycle, and
 * the happens-before race detector separates synchronized from
 * unsynchronized sharing.
 */

#include <gtest/gtest.h>

#include <string>

#include "system/system.hh"
#include "workload/generator.hh"
#include "workload/litmus.hh"

namespace bulksc {
namespace {

class BulkModels : public ::testing::TestWithParam<Model>
{};

TEST_P(BulkModels, DefaultWorkloadsPassTheAxiomaticChecker)
{
    for (const char *app : {"barnes", "ocean", "radiosity", "radix"}) {
        MachineConfig cfg;
        cfg.model = GetParam();
        cfg.numProcs = 4;
        auto traces =
            generateTraces(profileByName(app), 4, 10'000);
        System sys(std::move(cfg), std::move(traces));
        sys.enableAnalysis();
        Results r = sys.run(400'000'000);
        ASSERT_TRUE(r.completed) << app;
        const AnalysisEngine *eng = sys.analysis();
        ASSERT_NE(eng, nullptr);
        EXPECT_TRUE(eng->scOk()) << app;
        EXPECT_GT(eng->chunksObserved(), 0u) << app;
        EXPECT_EQ(eng->graph()->unmatchedReads(), 0u) << app;
        // The run exercised real communication: rf edges exist.
        EXPECT_GT(eng->graph()->edgeCount(
                      MemOrderGraph::EdgeKind::Rf),
                  0u)
            << app;
        EXPECT_EQ(r.stats.get("analysis.sc_ok"), 1.0) << app;
        EXPECT_EQ(r.stats.get("analysis.sc_cycles"), 0.0) << app;
    }
}

TEST_P(BulkModels, AxiomaticCheckerAgreesWithReplayVerifier)
{
    AppProfile app = profileByName("radiosity");
    app.trackAllValues = true;
    MachineConfig cfg;
    cfg.model = GetParam();
    cfg.numProcs = 4;
    auto traces = generateTraces(app, 4, 10'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableScVerification();
    sys.enableAnalysis();
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    // Both checkers observe the same committed chunks and agree the
    // execution is SC.
    ASSERT_NE(sys.scVerifier(), nullptr);
    ASSERT_NE(sys.analysis(), nullptr);
    EXPECT_TRUE(sys.scVerifier()->verified());
    EXPECT_TRUE(sys.analysis()->scOk());
    EXPECT_EQ(sys.scVerifier()->chunksChecked(),
              sys.analysis()->chunksObserved());
}

INSTANTIATE_TEST_SUITE_P(Models, BulkModels,
                         ::testing::Values(Model::BSCbase,
                                           Model::BSCdypvt,
                                           Model::BSCstpvt,
                                           Model::BSCexact),
                         [](const auto &info) {
                             std::string n = modelName(info.param);
                             for (auto &c : n) {
                                 if (!isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

/**
 * The negative test the whole subsystem exists for: disable the
 * arbiter's disambiguation (every colliding request is granted) and
 * run store buffering with upfront R signatures so the colliding
 * window is actually exercised. The machine then commits the
 * forbidden Dekker outcome — and the checker must catch it as a
 * po ∪ rf ∪ co ∪ fr cycle with full attribution.
 */
TEST(FaultInjection, SkippedDisambiguationIsCaughtAsACycle)
{
    LitmusTest lt = makeStoreBuffering(0);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.bulk.rsigOpt = false;
    cfg.faults = "arb.skip_collision=1";
    System sys(cfg, lt.traces);
    sys.enableAnalysis();
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);

    // The knob actually fired.
    EXPECT_GT(r.stats.get("arb.fault_injected_grants"), 0.0);

    // The outcome is SC-forbidden...
    EXPECT_FALSE(lt.allowedSC(r.loadResults));

    // ...and the checker reports the cycle.
    const AnalysisEngine *eng = sys.analysis();
    ASSERT_NE(eng, nullptr);
    EXPECT_FALSE(eng->scOk());
    EXPECT_GE(eng->scCycles(), 1u);
    ASSERT_FALSE(eng->graph()->violations().empty());
    const MemOrderGraph::Violation &v =
        eng->graph()->violations().front();
    ASSERT_GE(v.edges.size(), 2u);
    // Store buffering escapes as two fr edges (each reader observed
    // initial memory that the other processor's committed store had
    // overwritten).
    for (const auto &e : v.edges) {
        EXPECT_EQ(e.kind, MemOrderGraph::EdgeKind::Fr);
        EXPECT_NE(e.addr, 0u);
    }
    std::string desc = eng->graph()->describe(v);
    EXPECT_NE(desc.find("-fr(0x"), std::string::npos) << desc;
    EXPECT_EQ(r.stats.get("analysis.sc_ok"), 0.0);
    EXPECT_GE(r.stats.get("analysis.sc_cycles"), 1.0);
}

TEST(FaultInjection, SameConfigurationIsCleanWithoutTheKnob)
{
    LitmusTest lt = makeStoreBuffering(0);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.bulk.rsigOpt = false;
    System sys(cfg, lt.traces);
    sys.enableAnalysis();
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stats.get("arb.fault_injected_grants"), 0.0);
    EXPECT_TRUE(lt.allowedSC(r.loadResults));
    EXPECT_TRUE(sys.analysis()->scOk());
}

TEST(RaceDetection, UnsynchronizedLitmusSharingRaces)
{
    // Store buffering is a deliberate data race: conflicting accesses
    // to x and y with no synchronization at all.
    LitmusTest lt = makeStoreBuffering(0);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, lt.traces);
    sys.enableAnalysis(true, true);
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);
    const AnalysisEngine *eng = sys.analysis();
    EXPECT_GE(eng->raceCount(), 1u);
    EXPECT_FALSE(eng->races()->reports().empty());
    EXPECT_GE(r.stats.get("analysis.races"), 1.0);
    // Chunk atomicity still makes the *execution* SC — the race
    // detector flags the program, not the machine.
    EXPECT_TRUE(eng->scOk());
}

TEST(RaceDetection, LockProtectedSharingIsRaceFree)
{
    // All cross-processor write sharing goes through critical
    // sections: plenty of contended locks, no unsynchronized shared
    // writes, no barriers.
    AppProfile app = profileByName("raytrace");
    app.name = "locked-only";
    app.sharedWritesPer1k = 0;
    app.hotFrac = 0; // hot-line writes bypass locks by design
    app.locksPer1k = 3.0;
    app.numLocks = 8;
    app.barriersPer100k = 0;
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    auto traces = generateTraces(app, 4, 20'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(true, true);
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    const AnalysisEngine *eng = sys.analysis();
    // The synchronization edges were really exercised...
    EXPECT_GT(eng->races()->syncOps(), 0u);
    EXPECT_GT(eng->races()->checkedAccesses(), 0u);
    // ...and order every conflicting data access.
    EXPECT_EQ(eng->raceCount(), 0u)
        << eng->races()->describe(eng->races()->reports().front());
    EXPECT_EQ(r.stats.get("analysis.races"), 0.0);
}

TEST(RaceDetection, HotLineSharingIsFlagged)
{
    // The same profile with unsynchronized hot-line writes restored
    // must produce races — the clean result above is not vacuous.
    AppProfile app = profileByName("raytrace");
    app.name = "hot-unsynchronized";
    app.locksPer1k = 0;
    app.hotFrac = 0.9;
    app.hotLines = 4;
    app.sharedWritesPer1k = 20;
    app.barriersPer100k = 0;
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    auto traces = generateTraces(app, 4, 20'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(true, true);
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sys.analysis()->raceCount(), 1u);
    EXPECT_GE(sys.analysis()->races()->racyAddrs(), 1u);
}

TEST(AnalysisStats, AllCountersAreExported)
{
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    auto traces =
        generateTraces(profileByName("ocean"), 4, 10'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(true, true);
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    for (const char *key :
         {"analysis.chunks", "analysis.sc_ok", "analysis.sc_cycles",
          "analysis.graph_nodes", "analysis.graph_edges",
          "analysis.edges_po", "analysis.edges_rf",
          "analysis.edges_co", "analysis.edges_fr",
          "analysis.unmatched_reads", "analysis.races",
          "analysis.racy_addrs", "analysis.sync_ops",
          "analysis.checked_accesses"}) {
        EXPECT_TRUE(r.stats.has(key)) << key;
    }
    EXPECT_EQ(r.stats.get("analysis.chunks"),
              r.stats.get("analysis.graph_nodes"));
    EXPECT_GT(r.stats.get("analysis.edges_po"), 0.0);
}

} // namespace
} // namespace bulksc
