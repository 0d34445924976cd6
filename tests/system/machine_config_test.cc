/**
 * @file
 * Unit tests for machine-configuration resolution (Table 2 defaults
 * and the per-model knobs).
 */

#include <gtest/gtest.h>

#include "system/machine_config.hh"

namespace bulksc {
namespace {

TEST(MachineConfig, Table2Defaults)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.numProcs, 8u);
    EXPECT_EQ(cfg.mem.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.mem.l1.assoc, 4u);
    EXPECT_EQ(cfg.mem.l1.lineBytes, 32u);
    EXPECT_EQ(cfg.mem.l2.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(cfg.mem.l2.assoc, 8u);
    EXPECT_EQ(cfg.mem.l1Mshrs, 8u);
    EXPECT_EQ(cfg.mem.l1Latency, 2u);
    EXPECT_EQ(cfg.mem.l2Latency, 13u);
    EXPECT_EQ(cfg.mem.memLatency, 300u);
    EXPECT_EQ(cfg.bulk.chunkSize, 1000u);
    EXPECT_EQ(cfg.bulk.maxLiveChunks, 2u);
    EXPECT_EQ(cfg.bulk.sigCfg.totalBits, 2048u);
    EXPECT_EQ(cfg.maxSimulCommits, 8u);
    EXPECT_EQ(cfg.numArbiters, 1u);
    EXPECT_EQ(cfg.cpu.windowOps, 56u);
    EXPECT_EQ(cfg.cpu.robInstrs, 176u);
    EXPECT_EQ(cfg.cpu.issueWidth, 4u);
}

TEST(MachineConfig, ResolveSetsModelKnobs)
{
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.resolve();
    EXPECT_TRUE(cfg.mem.bulkMode);
    EXPECT_TRUE(cfg.bulk.dynPrivOpt);
    EXPECT_FALSE(cfg.bulk.statPrivOpt);
    EXPECT_FALSE(cfg.bulk.sigCfg.exact);

    cfg.model = Model::BSCexact;
    cfg.resolve();
    EXPECT_TRUE(cfg.bulk.dynPrivOpt); // BSCexact = BSCdypvt + magic sig
    EXPECT_TRUE(cfg.bulk.sigCfg.exact);
    EXPECT_TRUE(cfg.mem.sigCfg.exact);

    cfg.model = Model::BSCstpvt;
    cfg.resolve();
    EXPECT_TRUE(cfg.bulk.statPrivOpt);
    EXPECT_FALSE(cfg.bulk.dynPrivOpt);

    cfg.model = Model::RC;
    cfg.resolve();
    EXPECT_FALSE(cfg.mem.bulkMode);
}

TEST(MachineConfig, ModelNamesRoundTrip)
{
    for (Model m : {Model::SC, Model::RC, Model::SCpp, Model::BSCbase,
                    Model::BSCdypvt, Model::BSCstpvt,
                    Model::BSCexact}) {
        EXPECT_EQ(modelByName(modelName(m)), m);
    }
    EXPECT_TRUE(isBulk(Model::BSCbase));
    EXPECT_TRUE(isBulk(Model::BSCexact));
    EXPECT_FALSE(isBulk(Model::SC));
    EXPECT_FALSE(isBulk(Model::SCpp));
}

TEST(MachineConfig, ResolvePropagatesProcCount)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.resolve();
    EXPECT_EQ(cfg.mem.numProcs, 4u);
    EXPECT_EQ(cfg.cpu.numBarrierProcs, 4u);
}

} // namespace
} // namespace bulksc
