/**
 * @file
 * End-to-end SC conformance verification: full workloads run with
 * every value tracked; committed chunks are replayed serially in
 * commit order and every load's observed value is checked against the
 * serial-replay state. This is the strongest correctness statement in
 * the suite — the speculative, overlapped, squash-and-retry execution
 * must be indistinguishable from a serial execution of chunks.
 */

#include <gtest/gtest.h>

#include "analysis/sc_verifier.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

Results
runVerified(Model m, AppProfile app, unsigned procs,
            std::uint64_t instrs, std::uint64_t salt = 0,
            const MachineConfig *base = nullptr)
{
    app.trackAllValues = true;
    MachineConfig cfg = base ? *base : MachineConfig{};
    cfg.model = m;
    cfg.numProcs = procs;
    auto traces = generateTraces(app, procs, instrs, salt);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(false, false, true);
    Results r = sys.run(400'000'000);
    EXPECT_TRUE(r.completed);
    const ScVerifier *rep = sys.analysis()->replay();
    if (rep && !rep->verified()) {
        for (const std::string &e : rep->errors())
            ADD_FAILURE() << e;
    }
    return r;
}

class VerifiedModels : public ::testing::TestWithParam<Model>
{};

TEST_P(VerifiedModels, WorkloadExecutionIsSerializable)
{
    for (const char *app : {"barnes", "ocean", "radiosity", "radix"}) {
        Results r = runVerified(GetParam(), profileByName(app), 4,
                                10'000);
        EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0) << app;
        EXPECT_GT(r.stats.get("sc_verifier.chunks"), 0.0) << app;
        EXPECT_GT(r.stats.get("sc_verifier.reads"), 0.0) << app;
    }
}

INSTANTIATE_TEST_SUITE_P(Models, VerifiedModels,
                         ::testing::Values(Model::BSCbase,
                                           Model::BSCdypvt,
                                           Model::BSCstpvt,
                                           Model::BSCexact),
                         [](const auto &info) {
                             std::string n = modelName(info.param);
                             for (auto &c : n) {
                                 if (!isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

TEST(ScVerifierIntegration, AllThirteenWorkloadsSerializable)
{
    // Every evaluation workload, end to end, under the preferred
    // configuration.
    for (const AppProfile &p : allProfiles()) {
        Results r = runVerified(Model::BSCdypvt, p, 4, 6'000);
        EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0) << p.name;
    }
}

TEST(ScVerifierIntegration, ContendedWorkloadStaysSerializable)
{
    // High-contention profile: frequent locks on few locks, heavy hot
    // sharing — lots of squashes, yet the committed execution must
    // remain serializable.
    AppProfile hot = profileByName("raytrace");
    hot.locksPer1k = 2.0;
    hot.numLocks = 4;
    hot.hotFrac = 0.3;
    hot.hotLines = 64;
    Results r = runVerified(Model::BSCdypvt, hot, 8, 12'000);
    EXPECT_GT(r.stats.get("cpu.squashes"), 0.0);
    EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0);
}

TEST(ScVerifierIntegration, SeedSweepStaysSerializable)
{
    for (std::uint64_t salt = 1; salt <= 4; ++salt) {
        Results r = runVerified(Model::BSCdypvt, profileByName("fft"),
                                4, 8'000, salt);
        EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0)
            << "salt " << salt;
    }
}

TEST(ScVerifierIntegration, DistributedArbiterStaysSerializable)
{
    MachineConfig cfg;
    cfg.numArbiters = 4;
    cfg.mem.numDirectories = 4;
    Results r = runVerified(Model::BSCdypvt, profileByName("ocean"), 8,
                            10'000, 0, &cfg);
    EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0);
}

TEST(ScVerifierIntegration, SmallChunksStaySerializable)
{
    MachineConfig cfg;
    cfg.bulk.chunkSize = 100;
    Results r = runVerified(Model::BSCdypvt, profileByName("sjbb2k"),
                            4, 8'000, 0, &cfg);
    EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0);
}

// --- the checker itself must catch violations ---

TEST(ScVerifierUnit, AcceptsConsistentLogs)
{
    ScVerifier v;
    v.chunkCommitted(0, {{0x10, 7, true}, {0x10, 7, false}});
    v.chunkCommitted(1, {{0x10, 7, false}, {0x20, 9, true}});
    v.chunkCommitted(0, {{0x20, 9, false}});
    EXPECT_TRUE(v.verified());
    EXPECT_EQ(v.chunksChecked(), 3u);
    EXPECT_EQ(v.readsChecked(), 3u);
    EXPECT_EQ(v.writesApplied(), 2u);
}

TEST(ScVerifierUnit, UnwrittenAddressesReadZero)
{
    ScVerifier v;
    v.chunkCommitted(0, {{0x1234, 0, false}});
    EXPECT_TRUE(v.verified());
}

TEST(ScVerifierUnit, DetectsStaleRead)
{
    ScVerifier v;
    v.chunkCommitted(0, {{0x10, 1, true}});
    // This chunk committed after the write but observed the old value:
    // not serializable in commit order.
    v.chunkCommitted(1, {{0x10, 0, false}});
    EXPECT_FALSE(v.verified());
    ASSERT_EQ(v.errors().size(), 1u);
    EXPECT_NE(v.errors()[0].find("observed"), std::string::npos);
}

TEST(ScVerifierUnit, DetectsNonAtomicChunk)
{
    ScVerifier v;
    // A chunk that read x both before and after another chunk's
    // write would log two different values — impossible if the chunk
    // were atomic, and flagged by the replay.
    v.chunkCommitted(0, {{0x10, 5, true}});
    v.chunkCommitted(1, {{0x10, 5, false}, {0x10, 6, false}});
    EXPECT_FALSE(v.verified());
}

TEST(ScVerifierUnit, DetectsLostUpdate)
{
    ScVerifier v;
    // Classic lost update: both chunks read 0 and wrote their own
    // increment; the second chunk's read of 0 is stale.
    v.chunkCommitted(0, {{0x40, 0, false}, {0x40, 1, true}});
    v.chunkCommitted(1, {{0x40, 0, false}, {0x40, 1, true}});
    EXPECT_FALSE(v.verified());
}

} // namespace
} // namespace bulksc
