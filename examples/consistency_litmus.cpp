/**
 * @file
 * Litmus-test demo: shows BulkSC enforcing SC at the memory-access
 * level while an RC machine without fences visibly reorders.
 *
 * Runs the classic store-buffering (Dekker), message-passing, and
 * IRIW litmus programs across many timing variants under RC and
 * BSCdypvt, and reports how often each machine produced an outcome
 * forbidden under sequential consistency.
 *
 *   ./build/examples/consistency_litmus
 */

#include <cstdio>

#include "system/system.hh"
#include "workload/litmus.hh"

using namespace bulksc;

namespace {

unsigned
countViolations(Model m, unsigned variants)
{
    unsigned violations = 0;
    for (unsigned v = 0; v < variants; ++v) {
        for (LitmusTest lt : {makeStoreBuffering(v),
                              makeMessagePassing(v), makeIriw(v)}) {
            MachineConfig cfg;
            cfg.model = m;
            cfg.numProcs =
                static_cast<unsigned>(lt.traces.size());
            System sys(cfg, lt.traces);
            Results r = sys.run(50'000'000);
            if (!r.completed || !lt.allowedSC(r.loadResults))
                ++violations;
        }
    }
    return violations;
}

} // namespace

int
main()
{
    const unsigned variants = 10;
    const unsigned total = variants * 3;

    std::printf("Litmus suite: store-buffering, message-passing, "
                "IRIW — %u runs per machine\n\n",
                total);

    std::printf("%-28s %20s\n", "machine", "SC violations");
    for (Model m : {Model::RC, Model::SC, Model::BSCbase,
                    Model::BSCdypvt, Model::BSCexact}) {
        unsigned v = countViolations(m, variants);
        std::printf("%-28s %14u / %3u  %s\n", modelName(m), v, total,
                    v == 0 ? "(sequentially consistent)"
                           : "(NOT SC - reordering observed)");
    }

    std::printf(
        "\nBulkSC runs the same fence-free programs as RC, yet every "
        "outcome is\nsequentially consistent: chunks execute "
        "atomically and in isolation, and\nthe arbiter + signature "
        "disambiguation squash any chunk that observed a\nstate "
        "inconsistent with a total commit order (Sections 3.1-3.2 of "
        "the paper).\n");
    return 0;
}
