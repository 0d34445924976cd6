/**
 * @file
 * Integration tests: litmus programs checked against the SC-allowed
 * outcome set.
 *
 * Every BulkSC variant must produce ONLY SC-allowed outcomes across
 * all litmus tests and timing variants — this is the paper's central
 * claim, verified end to end through chunks, signatures, the arbiter,
 * directory bulk operations, and squash/re-execution. SC and SC++ are
 * also SC. RC without fences is demonstrably NOT SC: at least one
 * forbidden outcome must appear across the suite (the traces carry no
 * fences, mirroring the paper's point that BulkSC needs none).
 */

#include <gtest/gtest.h>

#include "system/system.hh"
#include "workload/litmus.hh"

namespace bulksc {
namespace {

/**
 * Run one litmus test under a model; @return SC-allowed?
 *
 * Bulk models additionally run the axiomatic checker: beyond the
 * outcome predicate, the committed execution itself must have an
 * acyclic po ∪ rf ∪ co ∪ fr.
 */
bool
runLitmus(Model m, const LitmusTest &lt)
{
    MachineConfig cfg;
    cfg.model = m;
    cfg.numProcs = static_cast<unsigned>(lt.traces.size());
    System sys(cfg, lt.traces);
    if (isBulk(m))
        sys.enableAnalysis();
    Results r = sys.run(50'000'000);
    EXPECT_TRUE(r.completed) << lt.name;
    if (const AnalysisEngine *eng = sys.analysis()) {
        EXPECT_TRUE(eng->scOk())
            << lt.name << ": " << eng->scCycles()
            << " memory-order cycles";
        EXPECT_EQ(eng->graph()->unmatchedReads(), 0u) << lt.name;
    }
    return lt.allowedSC(r.loadResults);
}

class ScModels : public ::testing::TestWithParam<Model>
{};

TEST_P(ScModels, AllLitmusOutcomesAreSequentiallyConsistent)
{
    for (const LitmusTest &lt : allLitmusTests(6)) {
        EXPECT_TRUE(runLitmus(GetParam(), lt))
            << modelName(GetParam()) << " violated SC on " << lt.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Models, ScModels,
                         ::testing::Values(Model::SC, Model::SCpp,
                                           Model::BSCbase,
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

TEST(RcWithoutFences, ExhibitsNonScOutcomes)
{
    // RC with no fences must show at least one forbidden outcome
    // somewhere in the suite — otherwise the litmus tests would not
    // be discriminating and the BulkSC result above would be vacuous.
    unsigned violations = 0;
    for (const LitmusTest &lt : allLitmusTests(6)) {
        if (!runLitmus(Model::RC, lt))
            ++violations;
    }
    EXPECT_GT(violations, 0u);
}

TEST(Litmus, StoreBufferingForbiddenOutcomeBlockedByChunks)
{
    // The classic Dekker pattern, run many timing variants: BulkSC
    // must never let both processors read 0.
    for (unsigned v = 0; v < 12; ++v) {
        LitmusTest lt = makeStoreBuffering(v);
        MachineConfig cfg;
        cfg.model = Model::BSCdypvt;
        cfg.numProcs = 2;
        System sys(cfg, lt.traces);
        Results r = sys.run(50'000'000);
        ASSERT_TRUE(r.completed);
        EXPECT_FALSE(r.loadResults[0][0] == 0 &&
                     r.loadResults[1][0] == 0)
            << "variant " << v;
    }
}

TEST(Litmus, MessagePassingNeverTearsUnderBulkSC)
{
    for (unsigned v = 0; v < 12; ++v) {
        LitmusTest lt = makeMessagePassing(v);
        MachineConfig cfg;
        cfg.model = Model::BSCdypvt;
        cfg.numProcs = 2;
        System sys(cfg, lt.traces);
        Results r = sys.run(50'000'000);
        ASSERT_TRUE(r.completed);
        EXPECT_FALSE(r.loadResults[1][0] == 1 &&
                     r.loadResults[1][1] == 0)
            << "variant " << v;
    }
}

TEST(Litmus, IriwWriteSerializationUnderBulkSC)
{
    for (unsigned v = 0; v < 8; ++v) {
        LitmusTest lt = makeIriw(v);
        EXPECT_TRUE(runLitmus(Model::BSCdypvt, lt))
            << "variant " << v;
    }
}

} // namespace
} // namespace bulksc
