/**
 * @file
 * End-to-end system tests: whole workloads under every model, the
 * paper's qualitative performance ordering, traffic accounting, the
 * distributed arbiter, directory caches, and determinism.
 */

#include <gtest/gtest.h>

#include "system/system.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

constexpr std::uint64_t kInstrs = 12'000;

Results
runApp(Model m, const char *app, unsigned procs = 8,
       const MachineConfig *base = nullptr)
{
    return runWorkload(m, profileByName(app), procs, kInstrs, base);
}

TEST(SystemIntegration, AllModelsCompleteAllWorkloads)
{
    for (const AppProfile &p : allProfiles()) {
        for (Model m : {Model::SC, Model::RC, Model::SCpp,
                        Model::BSCbase, Model::BSCdypvt,
                        Model::BSCstpvt, Model::BSCexact}) {
            Results r = runWorkload(m, p, 4, 6'000);
            EXPECT_TRUE(r.completed)
                << p.name << " under " << modelName(m);
            EXPECT_GT(r.stats.get("cpu.retired_instrs"), 0.0);
        }
    }
}

TEST(SystemIntegration, PerformanceOrderingMatchesPaper)
{
    // Figure 9's qualitative shape on a representative app:
    // SC slower than RC; SC++ close to RC; BSCdypvt close to RC and
    // better than BSCbase; BSCexact at least as good as BSCdypvt.
    Results sc = runApp(Model::SC, "ocean");
    Results rc = runApp(Model::RC, "ocean");
    Results scpp = runApp(Model::SCpp, "ocean");
    Results base = runApp(Model::BSCbase, "ocean");
    Results dypvt = runApp(Model::BSCdypvt, "ocean");
    Results exact = runApp(Model::BSCexact, "ocean");

    EXPECT_GT(sc.execTime, rc.execTime * 5 / 4);
    EXPECT_LT(scpp.execTime, rc.execTime * 11 / 10);
    EXPECT_LE(dypvt.execTime, base.execTime);
    EXPECT_LE(exact.execTime, dypvt.execTime * 21 / 20);
    EXPECT_LT(dypvt.execTime, sc.execTime);
}

TEST(SystemIntegration, BulkTrafficOverheadIsModest)
{
    // The paper: BSCdypvt costs ~5-13% more interconnect traffic
    // than RC. Allow a generous envelope but catch regressions.
    for (const char *app : {"barnes", "lu", "water-sp"}) {
        Results rc = runApp(Model::RC, app);
        Results dy = runApp(Model::BSCdypvt, app);
        double ratio = dy.stats.get("net.bits.total") /
                       rc.stats.get("net.bits.total");
        EXPECT_GT(ratio, 1.0) << app;
        EXPECT_LT(ratio, 1.35) << app;
    }
}

TEST(SystemIntegration, RsigOptimizationRemovesRdSigTraffic)
{
    MachineConfig with;
    with.bulk.rsigOpt = true;
    MachineConfig without;
    without.bulk.rsigOpt = false;
    Results a = runApp(Model::BSCdypvt, "barnes", 8, &with);
    Results b = runApp(Model::BSCdypvt, "barnes", 8, &without);
    EXPECT_LT(a.stats.get("net.bits.RdSig"),
              b.stats.get("net.bits.RdSig") / 2);
}

TEST(SystemIntegration, ExactSignatureReducesSquashes)
{
    Results dy = runApp(Model::BSCdypvt, "radix");
    Results ex = runApp(Model::BSCexact, "radix");
    EXPECT_LE(ex.stats.get("cpu.squashed_instr_pct"),
              dy.stats.get("cpu.squashed_instr_pct"));
}

TEST(SystemIntegration, DypvtShrinksWriteSignature)
{
    Results base = runApp(Model::BSCbase, "water-ns");
    Results dy = runApp(Model::BSCdypvt, "water-ns");
    EXPECT_LT(dy.stats.get("bulk.avg_write_set"),
              base.stats.get("bulk.avg_write_set") / 2);
    EXPECT_GT(dy.stats.get("bulk.empty_w_pct"),
              base.stats.get("bulk.empty_w_pct"));
}

TEST(SystemIntegration, DistributedArbiterWorks)
{
    MachineConfig cfg;
    cfg.numArbiters = 4;
    cfg.mem.numDirectories = 4;
    Results r = runApp(Model::BSCdypvt, "ocean", 8, &cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.stats.get("bulk.commits"), 0.0);
    // Performance stays in the same ballpark as the single arbiter.
    Results single = runApp(Model::BSCdypvt, "ocean");
    EXPECT_LT(r.execTime, single.execTime * 3 / 2);
}

TEST(SystemIntegration, DirectoryCacheDisplacementsHandled)
{
    MachineConfig cfg;
    cfg.mem.dirCacheEntries = 512; // small: forces displacements
    Results r = runApp(Model::BSCdypvt, "ocean", 4, &cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.stats.get("mem.dir_displacements"), 0.0);
}

TEST(SystemIntegration, ExactMirrorIsTimingInvisible)
{
    // The exact mirror sets exist for statistics and verification
    // only: switching them off must not move a single simulated cycle.
    MachineConfig on;
    on.bulk.sigCfg.trackExact = true;
    MachineConfig off;
    off.bulk.sigCfg.trackExact = false;
    Results a = runApp(Model::BSCdypvt, "ocean", 4, &on);
    Results b = runApp(Model::BSCdypvt, "ocean", 4, &off);
    EXPECT_TRUE(a.completed);
    EXPECT_TRUE(b.completed);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_DOUBLE_EQ(a.stats.get("bulk.commits"),
                     b.stats.get("bulk.commits"));
    EXPECT_DOUBLE_EQ(a.stats.get("cpu.squashes"),
                     b.stats.get("cpu.squashes"));
    // Statistics measured on the mirror are absent without it, not 0.
    for (const char *k :
         {"bulk.avg_read_set", "bulk.spec_read_displacements",
          "bulk.spec_write_displacements", "mem.extra_invals",
          "mem.dir_alias_lookups", "mem.dir_alias_updates"}) {
        EXPECT_TRUE(a.stats.has(k)) << k;
        EXPECT_FALSE(b.stats.has(k)) << k;
    }
    // Squash attribution keeps its keys: unattributed is honest.
    EXPECT_TRUE(b.stats.has("bulk.squash.unattributed"));
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    Results a = runApp(Model::BSCdypvt, "fft", 4);
    Results b = runApp(Model::BSCdypvt, "fft", 4);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_DOUBLE_EQ(a.stats.get("cpu.squashes"),
                     b.stats.get("cpu.squashes"));
    EXPECT_DOUBLE_EQ(a.stats.get("net.bits.total"),
                     b.stats.get("net.bits.total"));
}

TEST(SystemIntegration, ChunkSizeSweepCompletes)
{
    // Figure 10's sweep must run for all sizes.
    for (unsigned size : {500u, 1000u, 2000u, 4000u}) {
        MachineConfig cfg;
        cfg.bulk.chunkSize = size;
        Results r = runApp(Model::BSCdypvt, "lu", 4, &cfg);
        EXPECT_TRUE(r.completed) << "chunk size " << size;
    }
}

TEST(SystemIntegration, LargerChunksAliasMore)
{
    MachineConfig small;
    small.bulk.chunkSize = 1000;
    MachineConfig big;
    big.bulk.chunkSize = 4000;
    Results s = runApp(Model::BSCdypvt, "sjbb2k", 8, &small);
    Results b = runApp(Model::BSCdypvt, "sjbb2k", 8, &big);
    // Bigger chunks -> denser signatures -> at least as much
    // squashing (usually much more).
    EXPECT_GE(b.stats.get("cpu.squashed_instr_pct") + 0.5,
              s.stats.get("cpu.squashed_instr_pct"));
}

TEST(SystemIntegration, SmallMachineScalesDown)
{
    for (unsigned procs : {1u, 2u, 4u}) {
        Results r = runApp(Model::BSCdypvt, "barnes", procs);
        EXPECT_TRUE(r.completed) << procs << " procs";
    }
}

TEST(SystemIntegration, StatsContainEveryTableColumn)
{
    Results r = runApp(Model::BSCdypvt, "cholesky", 4);
    // Table 3 columns.
    EXPECT_TRUE(r.stats.has("cpu.squashed_instr_pct"));
    EXPECT_TRUE(r.stats.has("bulk.avg_read_set"));
    EXPECT_TRUE(r.stats.has("bulk.avg_write_set"));
    EXPECT_TRUE(r.stats.has("bulk.avg_priv_write_set"));
    EXPECT_TRUE(r.stats.has("bulk.spec_read_displacements"));
    EXPECT_TRUE(r.stats.has("bulk.priv_buffer_supplies"));
    EXPECT_TRUE(r.stats.has("mem.extra_invals"));
    // Table 4 columns.
    EXPECT_TRUE(r.stats.has("mem.dir_lookups"));
    EXPECT_TRUE(r.stats.has("mem.dir_alias_lookups"));
    EXPECT_TRUE(r.stats.has("mem.dir_alias_updates"));
    EXPECT_TRUE(r.stats.has("bulk.nodes_per_wsig"));
    EXPECT_TRUE(r.stats.has("arb.avg_pending_w"));
    EXPECT_TRUE(r.stats.has("arb.non_empty_pct"));
    EXPECT_TRUE(r.stats.has("arb.rsig_required_pct"));
    EXPECT_TRUE(r.stats.has("arb.empty_w_pct"));
    // Figure 11 categories.
    for (const char *k : {"net.bits.RdWr", "net.bits.RdSig",
                          "net.bits.WrSig", "net.bits.Inv",
                          "net.bits.Other"}) {
        EXPECT_TRUE(r.stats.has(k)) << k;
    }
}

} // namespace
} // namespace bulksc
