/**
 * @file
 * Defining a custom synthetic workload through the public API and
 * comparing all seven machine configurations on it.
 *
 * The example models a producer/consumer-style application: a private
 * compute phase, bursty streaming, and a moderately contended shared
 * table — then sweeps every consistency model the paper evaluates.
 *
 *   ./build/examples/custom_workload
 */

#include <cstdio>

#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

using namespace bulksc;

int
main()
{
    // A custom application profile: see workload/app_profiles.hh for
    // every knob. Rates are per 1000 dynamic instructions.
    AppProfile app;
    app.name = "my-app";
    app.memFrac = 0.30;            // 30% of instructions touch memory
    app.stackFrac = 0.10;          // stack (statically private)
    app.sharedReadFrac = 0.20;     // reads of the shared table
    app.sharedWritesPer1k = 1.5;   // table updates
    app.sharedWriteBurst = 3;      // ...in 3-line records
    app.privLines = 2048;          // private heap working set
    app.privWriteLines = 96;       // hot private-write subset
    app.sharedLines = 32768;
    app.hotLines = 256;            // contended entries
    app.hotFrac = 0.10;
    app.locality = 0.55;
    app.locksPer1k = 0.4;          // occasional critical sections
    app.numLocks = 32;
    app.streamBurstsPer1k = 0.5;   // streaming input
    app.seed = 4242;

    const unsigned procs = 8;
    const std::uint64_t instrs = 40'000;

    std::printf("custom workload '%s': %u processors, %llu "
                "instrs/proc\n\n",
                app.name.c_str(), procs,
                static_cast<unsigned long long>(instrs));
    std::printf("%-10s %12s %9s %9s %10s %10s\n", "model",
                "exec (cyc)", "vs RC", "squash%", "commits",
                "traffic/RC");

    double rc_time = 0, rc_traffic = 0;
    for (Model m : {Model::RC, Model::SC, Model::TSO, Model::SCpp,
                    Model::BSCbase,
                    Model::BSCdypvt, Model::BSCstpvt,
                    Model::BSCexact}) {
        Results r = runWorkload(m, app, procs, instrs);
        if (m == Model::RC) {
            rc_time = static_cast<double>(r.execTime);
            rc_traffic = r.stats.get("net.bits.total");
        }
        std::printf("%-10s %12llu %9.3f %9.2f %10.0f %10.3f\n",
                    modelName(m),
                    static_cast<unsigned long long>(r.execTime),
                    rc_time / static_cast<double>(r.execTime),
                    r.stats.get("cpu.squashed_instr_pct"),
                    r.stats.get("bulk.commits"),
                    r.stats.get("net.bits.total") / rc_traffic);
    }

    std::printf(
        "\nBulkSC with the dynamically-private optimization should "
        "land close to RC\nwhile giving the program sequential "
        "consistency — the paper's headline result.\n");
    return 0;
}
