/**
 * @file
 * Characterization regression tests: the qualitative relationships of
 * the paper's Tables 3-4 and Figures 9-11, pinned as assertions so
 * regressions in any subsystem (signatures, arbiter, directory,
 * workloads) surface immediately.
 *
 * These run on reduced instruction counts; they check *shapes*
 * (orderings, bands), never absolute cycle counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "system/system.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

constexpr std::uint64_t kInstrs = 20'000;

Results
runApp(Model m, const char *app)
{
    return runWorkload(m, profileByName(app), 8, kInstrs);
}

TEST(Characterization, SquashOrderingExactLeDypvtLeBase)
{
    // Table 3: squashed instructions grow from BSCexact (true sharing
    // only) through BSCdypvt (plus some aliasing) to BSCbase (full W
    // pollution). Allow small-noise slack.
    for (const char *app : {"ocean", "radiosity", "sjbb2k"}) {
        double ex = runApp(Model::BSCexact, app)
                        .stats.get("cpu.squashed_instr_pct");
        double dy = runApp(Model::BSCdypvt, app)
                        .stats.get("cpu.squashed_instr_pct");
        double ba = runApp(Model::BSCbase, app)
                        .stats.get("cpu.squashed_instr_pct");
        EXPECT_LE(ex, dy + 1.0) << app;
        EXPECT_LE(dy, ba + 1.0) << app;
    }
}

TEST(Characterization, RadixAliasingPathology)
{
    // Table 3's signature story: radix's squashes under BSCdypvt are
    // almost entirely signature aliasing — near zero with the exact
    // signature.
    Results dy = runApp(Model::BSCdypvt, "radix");
    Results ex = runApp(Model::BSCexact, "radix");
    EXPECT_LT(ex.stats.get("cpu.squashed_instr_pct"), 1.0);
    EXPECT_GT(dy.stats.get("cpu.squashed_instr_pct"),
              ex.stats.get("cpu.squashed_instr_pct") + 1.0);
}

TEST(Characterization, PrivWriteSetsExceedSharedWriteSets)
{
    // Table 3: Priv. Write has many more addresses than Write for
    // every application.
    for (const char *app : {"barnes", "lu", "water-sp", "sweb2005"}) {
        Results r = runApp(Model::BSCdypvt, app);
        EXPECT_GT(r.stats.get("bulk.avg_priv_write_set"),
                  r.stats.get("bulk.avg_write_set"))
            << app;
    }
}

TEST(Characterization, ReadSetsInPaperBand)
{
    // Table 3 reports 15-61 lines per 1000-instruction chunk.
    for (const AppProfile &p : allProfiles()) {
        Results r = runWorkload(Model::BSCdypvt, p, 8, kInstrs);
        double rs = r.stats.get("bulk.avg_read_set");
        EXPECT_GT(rs, 10.0) << p.name;
        EXPECT_LT(rs, 90.0) << p.name;
    }
}

TEST(Characterization, NodesPerWSigBelowOneOrSo)
{
    // Table 4: on average a commit sends W to at most about one node.
    for (const char *app : {"barnes", "fft", "lu", "sjbb2k"}) {
        Results r = runApp(Model::BSCdypvt, app);
        EXPECT_LT(r.stats.get("bulk.nodes_per_wsig"), 1.6) << app;
    }
}

TEST(Characterization, ArbiterIsNotABottleneck)
{
    // Table 4: the arbiter's pending-W count stays well below one on
    // average; its list is non-empty a minority of the time.
    for (const char *app : {"barnes", "ocean", "sweb2005"}) {
        Results r = runApp(Model::BSCdypvt, app);
        EXPECT_LT(r.stats.get("arb.avg_pending_w"), 1.5) << app;
        EXPECT_LT(r.stats.get("arb.non_empty_pct"), 70.0) << app;
    }
}

TEST(Characterization, CommercialAppsShareMoreThanSplash)
{
    // Table 4: the commercial codes have fewer empty-W commits than
    // the quiet SPLASH-2 applications.
    double quiet = runApp(Model::BSCdypvt, "water-sp")
                       .stats.get("arb.empty_w_pct");
    double busy = runApp(Model::BSCdypvt, "sweb2005")
                      .stats.get("arb.empty_w_pct");
    EXPECT_GT(quiet, busy);
}

TEST(Characterization, TrafficBreakdownShape)
{
    // Figure 11: data dominates; signature traffic exists but is a
    // small slice; invalidations are minor.
    Results r = runApp(Model::BSCdypvt, "ocean");
    double total = r.stats.get("net.bits.total");
    EXPECT_GT(r.stats.get("net.bits.RdWr") / total, 0.5);
    EXPECT_GT(r.stats.get("net.bits.WrSig"), 0.0);
    EXPECT_LT(r.stats.get("net.bits.WrSig") / total, 0.25);
    EXPECT_LT(r.stats.get("net.bits.Inv") / total, 0.10);
}

TEST(Characterization, ScClearlySlowerEverywhere)
{
    // Figure 9: the SC-vs-RC gap is large across the board.
    for (const char *app : {"barnes", "lu", "radix", "sweb2005"}) {
        Results sc = runApp(Model::SC, app);
        Results rc = runApp(Model::RC, app);
        double ratio = static_cast<double>(rc.execTime) /
                       static_cast<double>(sc.execTime);
        EXPECT_LT(ratio, 0.9) << app;
        EXPECT_GT(ratio, 0.3) << app;
    }
}

TEST(Characterization, BulkDypvtWithinPaperBandOfRc)
{
    // Figure 9: BSCdypvt performs about as well as RC.
    const char *apps[] = {"barnes", "fmm", "lu", "water-ns"};
    double log_sum = 0;
    for (const char *app : apps) {
        Results rc = runApp(Model::RC, app);
        Results dy = runApp(Model::BSCdypvt, app);
        log_sum += std::log(static_cast<double>(rc.execTime) /
                            static_cast<double>(dy.execTime));
    }
    double gm = std::exp(log_sum / std::size(apps));
    EXPECT_GT(gm, 0.85);
    EXPECT_LE(gm, 1.05);
}

} // namespace
} // namespace bulksc
