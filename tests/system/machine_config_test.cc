/**
 * @file
 * Unit tests for machine-configuration resolution (Table 2 defaults
 * and the per-model knobs).
 */

#include <gtest/gtest.h>

#include <string>

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

/** The last bank of a 3+-bank signature XORs in a 4-bit rotation of
 *  bank 1's slice, which needs at least 16 bits per bank; every bank
 *  needs at least 2. */
TEST(MachineConfig, RejectsSignatureGeometryWithUndefinedFold)
{
    auto check = [](unsigned bits, unsigned banks) {
        MachineConfig cfg;
        cfg.bulk.sigCfg.totalBits = bits;
        cfg.bulk.sigCfg.numBanks = banks;
        std::string err;
        bool ok = cfg.validate(err);
        EXPECT_EQ(ok, err.empty()) << err;
        return ok ? std::string() : err;
    };
    const std::string fold = check(32, 4);
    EXPECT_NE(fold.find("at least 16 with 3 or more banks"),
              std::string::npos)
        << fold;
    EXPECT_FALSE(check(24, 3).empty());
    EXPECT_FALSE(check(64, 8).empty());
    EXPECT_TRUE(check(48, 3).empty());
    EXPECT_TRUE(check(64, 4).empty());
    EXPECT_TRUE(check(128, 8).empty());
    // Two banks have no fold: small banks are fine down to 2 bits.
    EXPECT_TRUE(check(4, 2).empty());
    const std::string one_bit = check(4, 4);
    EXPECT_NE(one_bit.find("at least 2"), std::string::npos) << one_bit;
    EXPECT_FALSE(check(1, 1).empty());
}

/** A BulkSC speculative line needs a spare L1 way: with a direct-
 *  mapped L1 every store ends its chunk and the run never finishes. */
TEST(MachineConfig, RejectsDirectMappedL1ForBulkModels)
{
    for (Model m : {Model::BSCbase, Model::BSCdypvt, Model::BSCstpvt,
                    Model::BSCexact}) {
        MachineConfig cfg;
        cfg.model = m;
        cfg.numProcs = 2;
        cfg.mem.l1.assoc = 1;
        std::string err;
        EXPECT_FALSE(cfg.validate(err)) << modelName(m);
        EXPECT_NE(err.find("assoc"), std::string::npos) << err;
        cfg.mem.l1.assoc = 2;
        EXPECT_TRUE(cfg.validate(err)) << modelName(m) << ": " << err;
    }
    for (Model m : {Model::SC, Model::TSO, Model::RC, Model::SCpp}) {
        MachineConfig cfg;
        cfg.model = m;
        cfg.numProcs = 2;
        cfg.mem.l1.assoc = 1;
        std::string err;
        EXPECT_TRUE(cfg.validate(err)) << modelName(m) << ": " << err;
    }
}

/** Cache arrays index sets by mask and lines by shift: a line size
 *  or set count that is not a power of two is a named config error,
 *  not a fatal deep inside the tag array. */
TEST(MachineConfig, RejectsNonPowerOfTwoCacheGeometry)
{
    auto check = [](auto edit) {
        MachineConfig cfg;
        cfg.numProcs = 2;
        edit(cfg);
        std::string err;
        return cfg.validate(err) ? std::string() : err;
    };
    // 48 B lines, with sizes that hold a power-of-two set count.
    std::string err = check([](MachineConfig &c) {
        c.mem.l1 = CacheGeometry{48 * 4 * 128, 4, 48};
        c.mem.l2 = CacheGeometry{48 * 8 * 1024, 8, 48};
    });
    EXPECT_NE(err.find("l1 line bytes (48) must be a power of two"),
              std::string::npos) << err;
    err = check([](MachineConfig &c) {
        c.mem.l2 = CacheGeometry{48 * 8 * 1024, 8, 48};
    });
    EXPECT_NE(err.find("l2 line bytes (48) must be a power of two"),
              std::string::npos) << err;
    // 24 KB of 32 B lines: 4 ways make 192 sets, 3 ways make 256.
    err = check([](MachineConfig &c) {
        c.mem.l1 = CacheGeometry{24 * 1024, 4, 32};
    });
    EXPECT_NE(err.find("l1 set count (192"), std::string::npos) << err;
    err = check([](MachineConfig &c) {
        c.mem.l2 = CacheGeometry{6 * 1024 * 1024, 8, 32};
    });
    EXPECT_NE(err.find("l2 set count (24576"), std::string::npos) << err;
    // Any associativity is fine while the set count is a power of two.
    EXPECT_EQ(check([](MachineConfig &c) {
                  c.mem.l1 = CacheGeometry{24 * 1024, 3, 32};
              }),
              "");
    EXPECT_EQ(check([](MachineConfig &c) {
                  c.mem.l2 = CacheGeometry{16 * 1024, 2, 32};
              }),
              "");
}

} // namespace
} // namespace bulksc
