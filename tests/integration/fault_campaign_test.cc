/**
 * @file
 * Fault-campaign integration tests: the hardened protocol must keep
 * every SC guarantee under a lossy, duplicating, delaying network,
 * and the whole campaign must be bit-for-bit deterministic — same
 * fault seed, same run, regardless of batch worker count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/analysis_engine.hh"
#include "system/sweep_runner.hh"
#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"
#include "workload/litmus.hh"

namespace bulksc {
namespace {

/** A hostile but survivable mix of every recoverable fault kind. */
const char *kFaultMix =
    "net.drop=0.05,net.dup=0.02,net.delay=0.2:1:50,"
    "arb.req_loss=0.02,arb.grant_loss=0.02,dir.nack=0.05,"
    "dir.commit_loss=0.02";

TEST(FaultCampaign, LitmusStaysSequentiallyConsistentUnderFaults)
{
    // The paper's central claim must survive message loss: every
    // litmus outcome SC-allowed, every committed execution acyclic.
    for (const LitmusTest &lt : allLitmusTests(3)) {
        for (std::uint64_t seed : {1u, 99u}) {
            MachineConfig cfg;
            cfg.model = Model::BSCdypvt;
            cfg.numProcs = static_cast<unsigned>(lt.traces.size());
            cfg.faults = kFaultMix;
            cfg.faultSeed = seed;
            cfg.watchdog.enabled = true;
            System sys(cfg, lt.traces);
            sys.enableAnalysis();
            Results r = sys.run(200'000'000);
            ASSERT_TRUE(r.completed)
                << lt.name << " seed " << seed << ": "
                << r.watchdogReport;
            EXPECT_EQ(r.watchdogVerdict, WatchdogVerdict::None)
                << lt.name;
            ASSERT_NE(sys.analysis(), nullptr);
            EXPECT_TRUE(sys.analysis()->scOk())
                << lt.name << " seed " << seed << ": "
                << sys.analysis()->scCycles()
                << " memory-order cycles under faults";
            EXPECT_TRUE(lt.allowedSC(r.loadResults))
                << lt.name << " seed " << seed;
        }
    }
}

Results
runApp(const char *app, std::uint64_t fault_seed, bool &sc_ok,
       std::uint64_t &races)
{
    const AppProfile *prof = nullptr;
    for (const AppProfile &p : allProfiles()) {
        if (p.name == app)
            prof = &p;
    }
    EXPECT_NE(prof, nullptr);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    cfg.faults = kFaultMix;
    cfg.faultSeed = fault_seed;
    cfg.watchdog.enabled = true;
    std::vector<Trace> traces =
        generateTraces(*prof, cfg.numProcs, 20'000, /*salt=*/7);
    System sys(cfg, std::move(traces));
    sys.enableAnalysis(true, true);
    Results r = sys.run(500'000'000);
    sc_ok = sys.analysis()->scOk();
    races = sys.analysis()->raceCount();
    return r;
}

TEST(FaultCampaign, AppWorkloadCleanUnderFaults)
{
    bool sc_ok = false;
    std::uint64_t races = ~0ull;
    Results r = runApp("fft", 42, sc_ok, races);
    ASSERT_TRUE(r.completed) << r.watchdogReport;
    EXPECT_EQ(r.watchdogVerdict, WatchdogVerdict::None);
    EXPECT_TRUE(sc_ok);
    EXPECT_EQ(races, 0u);
    // The campaign actually exercised the recovery machinery: delays
    // landed, protocol messages were lost and resent, and nothing had
    // to give up.
    EXPECT_EQ(r.stats.get("faults.harden"), 1.0);
    EXPECT_GT(r.stats.get("faults.net.delay.injected"), 0.0);
    EXPECT_GT(r.stats.get("bulk.resends"), 0.0);
    EXPECT_EQ(r.stats.get("bulk.resend_give_ups"), 0.0);
}

TEST(FaultCampaign, SameFaultSeedSameRun)
{
    bool sc1 = false, sc2 = false;
    std::uint64_t races1 = 0, races2 = 0;
    Results a = runApp("lu", 7, sc1, races1);
    Results b = runApp("lu", 7, sc2, races2);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_TRUE(a.stats.entries() == b.stats.entries());
}

TEST(FaultCampaign, DistributedArbiterAbsorbsDuplicatedRequests)
{
    // net.dup covers the distributed arbiter's request edge as well:
    // duplicated copies reach the modules and the G-arbiter, and the
    // shared decision cache must absorb them at delivery instead of
    // deciding a transaction twice.
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    cfg.numArbiters = 4;
    cfg.mem.numDirectories = 4;
    cfg.faults = "net.dup=0.05,arb.req_loss=0.02";
    cfg.watchdog.enabled = true;
    System sys(cfg, generateTraces(profileByName("ocean"), cfg.numProcs,
                                   20'000, /*salt=*/7));
    sys.enableAnalysis(true, true);
    Results r = sys.run(500'000'000);
    ASSERT_TRUE(r.completed) << r.watchdogReport;
    EXPECT_EQ(r.watchdogVerdict, WatchdogVerdict::None);
    EXPECT_EQ(r.stats.get("analysis.sc_cycles"), 0.0);
    EXPECT_GT(r.stats.get("arb.dup_requests"), 0.0);
}

/** Read a whole temporary file back as a string. */
std::string
slurp(std::FILE *f)
{
    std::string out;
    std::rewind(f);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    return out;
}

TEST(FaultCampaign, BatchOutputByteIdenticalAcrossWorkerCounts)
{
    // A faulty sweep must stream the exact same JSONL no matter how
    // many workers race through the grid: every point draws its fault
    // decisions from the base fault seed and its own settings, never
    // from scheduling.
    SimOptions base;
    base.app = "fft";
    base.instrs = 1'500;
    base.cfg.faults = "net.drop=0.03,net.dup=0.01,arb.grant_loss=0.01";
    std::vector<SweepAxis> axes = {
        {"app", {"fft", "lu"}},
        {"procs", {"2", "4"}},
    };

    auto run = [&](unsigned workers) {
        SweepRunner runner(base, axes);
        std::string err;
        EXPECT_TRUE(runner.validateGrid(err)) << err;
        std::FILE *f = std::tmpfile();
        EXPECT_EQ(runner.run(workers, f), 0u);
        std::string out = slurp(f);
        std::fclose(f);
        return out;
    };
    std::string serial = run(1);
    std::string parallel = run(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // Every record carries its fault seed and a clean watchdog
    // verdict.
    EXPECT_NE(serial.find("\"fault_seed\""), std::string::npos);
    EXPECT_NE(serial.find("\"watchdog\": \"none\""),
              std::string::npos);
}

} // namespace
} // namespace bulksc
