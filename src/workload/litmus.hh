/**
 * @file
 * Classic memory-consistency litmus tests with an SC outcome checker.
 *
 * Each test is a tiny multi-processor program on tracked variables;
 * loads record their observed values into result slots. The checker
 * enumerates the outcomes forbidden under SC. Running these under
 * BulkSC demonstrates (and the test suite *verifies*) that the chunk
 * machinery enforces SC at the memory-access level, while an RC
 * machine without fences can and does produce forbidden outcomes.
 */

#ifndef BULKSC_WORKLOAD_LITMUS_HH
#define BULKSC_WORKLOAD_LITMUS_HH

#include <functional>
#include <string>
#include <vector>

#include "cpu/op.hh"

namespace bulksc {

/**
 * Is an observed outcome allowed under SC? Receives the per-processor
 * load-result vectors.
 */
using LitmusPredicate =
    std::function<bool(const std::vector<std::vector<std::uint64_t>> &)>;

/** One litmus test: per-processor traces plus an SC predicate. */
struct LitmusTest
{
    std::string name;

    /** One trace per participating processor. */
    std::vector<Trace> traces;

    LitmusPredicate allowedSC;
};

/**
 * Store buffering (Dekker): P0: x=1; r0=y.  P1: y=1; r1=x.
 * SC forbids r0 == 0 && r1 == 0.
 * @param variant Perturbs instruction spacing to explore timings.
 */
LitmusTest makeStoreBuffering(unsigned variant = 0);

/**
 * Message passing: P0: data=1; flag=1.  P1: r0=flag; r1=data.
 * SC forbids r0 == 1 && r1 == 0.
 */
LitmusTest makeMessagePassing(unsigned variant = 0);

/**
 * IRIW: P0: x=1.  P1: y=1.  P2: r0=x; r1=y.  P3: r2=y; r3=x.
 * SC forbids r0==1 && r1==0 && r2==1 && r3==0.
 */
LitmusTest makeIriw(unsigned variant = 0);

/**
 * CoRR (coherence read-read): P0: x=1.  P1: r0=x; r1=x.
 * Even weak models forbid r0 == 1 && r1 == 0 (per-location
 * coherence); under BulkSC it additionally falls out of chunk
 * atomicity.
 */
LitmusTest makeCoRR(unsigned variant = 0);

/**
 * 2+2W (write serialization): P0: x=1; y=2.  P1: y=1; x=2.
 * SC forbids the final state x==1 && y==1 (each processor's second
 * write would have to be ordered before the other's first).
 * Checked via post-run loads on two observer processors.
 */
LitmusTest make2Plus2W(unsigned variant = 0);

/**
 * Write-to-read causality: P0: x=1.  P1: r0=x; y=1.  P2: r1=y; r2=x.
 * SC forbids r0==1 && r1==1 && r2==0 (P2 observing P1's write must
 * also observe what P1 observed).
 */
LitmusTest makeWrc(unsigned variant = 0);

/**
 * ISA2 (transitive message passing): P0: x=1; y=1.  P1: r0=y; z=1.
 * P2: r1=z; r2=x.  SC forbids r0==1 && r1==1 && r2==0.
 */
LitmusTest makeIsa2(unsigned variant = 0);

/** Look up a litmus test by its CLI name ("sb", "mp", "iriw",
 *  "corr", "2+2w", "wrc", "isa2"); false if unknown. */
bool litmusByName(const std::string &name, unsigned variant,
                  LitmusTest &out);

/** The comma-separated list of known names (for error messages). */
const char *litmusNames();

/** All litmus tests across a few timing variants. */
std::vector<LitmusTest> allLitmusTests(unsigned variants = 4);

} // namespace bulksc

#endif // BULKSC_WORKLOAD_LITMUS_HH
