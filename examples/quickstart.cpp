/**
 * @file
 * Quickstart: build an 8-core BulkSC machine (the paper's Table 2
 * configuration), run a SPLASH-2-like workload under BulkSC and under
 * RC, and print the headline comparison plus a few chunk statistics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

using namespace bulksc;

int
main()
{
    const AppProfile &app = profileByName("ocean");
    const unsigned procs = 8;
    const std::uint64_t instrs = 60'000;

    std::printf("BulkSC quickstart: app=%s, %u processors, "
                "%llu instrs/proc\n\n",
                app.name.c_str(), procs,
                static_cast<unsigned long long>(instrs));

    // Run the same traces under RC (the performance ceiling) and
    // under BulkSC with the dynamically-private data optimization
    // (the paper's preferred configuration).
    Results rc = runWorkload(Model::RC, app, procs, instrs);
    Results bsc = runWorkload(Model::BSCdypvt, app, procs, instrs);

    std::printf("%-10s exec_time=%10llu cycles\n", "RC",
                static_cast<unsigned long long>(rc.execTime));
    std::printf("%-10s exec_time=%10llu cycles  (%.3fx of RC)\n\n",
                "BSCdypvt",
                static_cast<unsigned long long>(bsc.execTime),
                static_cast<double>(bsc.execTime) /
                    static_cast<double>(rc.execTime));

    std::printf("BulkSC chunk behaviour:\n");
    std::printf("  chunk commits            : %.0f\n",
                bsc.stats.get("bulk.commits"));
    std::printf("  squashed instructions    : %.2f%%\n",
                bsc.stats.get("cpu.squashed_instr_pct"));
    std::printf("  avg read set (lines)     : %.1f\n",
                bsc.stats.get("bulk.avg_read_set"));
    std::printf("  avg write set (lines)    : %.2f\n",
                bsc.stats.get("bulk.avg_write_set"));
    std::printf("  avg priv write set       : %.1f\n",
                bsc.stats.get("bulk.avg_priv_write_set"));
    std::printf("  empty-W commits          : %.1f%%\n",
                bsc.stats.get("bulk.empty_w_pct"));
    std::printf("  network traffic vs RC    : %.2fx\n",
                bsc.stats.get("net.bits.total") /
                    rc.stats.get("net.bits.total"));
    return 0;
}
