/**
 * @file
 * Synthetic application profiles standing in for the paper's
 * workloads: the 11 SPLASH-2 applications (all but volrend) plus
 * SPECjbb2000- and SPECweb2005-like commercial codes.
 *
 * We do not have the original binaries or the SESC/Simics toolchain,
 * so each application is modelled by a parameterized memory-access
 * generator. Parameters are calibrated so that the *memory behaviour*
 * the paper's evaluation depends on lands in the reported ranges:
 * chunk read/write-set sizes, the private-write fraction, the
 * empty-W-commit fraction, lock/barrier usage, and the degree of true
 * sharing (see Tables 3 and 4 of the paper and DESIGN.md §2).
 */

#ifndef BULKSC_WORKLOAD_APP_PROFILES_HH
#define BULKSC_WORKLOAD_APP_PROFILES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace bulksc {

/** Parameters of one synthetic application. */
struct AppProfile
{
    std::string name;

    /** Fraction of dynamic instructions that are memory operations. */
    double memFrac = 0.30;

    /** Of memory ops: fraction that touch the stack (private,
     *  statically-private candidates). */
    double stackFrac = 0.12;

    /** Of memory ops: fraction that are reads of shared data. */
    double sharedReadFrac = 0.15;

    /** Shared-data *written lines* per 1000 instructions. This
     *  directly sets the W-signature size and the empty-W commit
     *  fraction. */
    double sharedWritesPer1k = 0.3;

    /** Shared writes arrive in bursts of this many lines (real codes
     *  update records/stripes, not isolated words): burstier writes
     *  mean more chunks with an empty W at the same write volume. */
    std::uint32_t sharedWriteBurst = 1;

    /** Stride (in lines) between shared-write targets. 0 = cursor. */
    std::uint32_t sharedWriteStride = 0;

    /**
     * Radix-sort write pattern: writes go to bucket*16384 + position,
     * where the position advances with execution progress. Different
     * processors write different buckets (no true sharing) at similar
     * positions — so their lines share low-order address bits and
     * collide heavily in the permuted signature slices. This is the
     * paper's radix aliasing pathology (Table 3: 10.89% squashed under
     * BSCdypvt vs 0.01% with an exact signature).
     */
    bool radixWritePattern = false;

    /** Of private-heap accesses: fraction that are stores. */
    double privStoreFrac = 0.35;

    /** Private heap working set per processor, in lines. */
    std::uint32_t privLines = 3072;

    /** Hot private-write subset (stays dirty in the L1 across chunks;
     *  this is what the dynamically-private optimization captures). */
    std::uint32_t privWriteLines = 384;

    /**
     * Streaming bursts per 1000 instructions. A burst walks
     * streamBurstLines fresh lines (4 accesses each) of a huge
     * never-reused region: these are the memory-level-parallelism
     * events that separate RC (overlapped) from SC (serialized).
     */
    double streamBurstsPer1k = 0.4;

    /** Lines touched per streaming burst. */
    std::uint32_t streamBurstLines = 6;

    /** Of streaming accesses: fraction that are stores. */
    double streamStoreFrac = 0.15;

    /** Shared region size, in lines. */
    std::uint32_t sharedLines = 16384;

    /** Hot shared subset where writes (and contended reads) go. */
    std::uint32_t hotLines = 512;

    /** Of shared accesses: fraction aimed at the hot subset. Writes
     *  to the hot subset collide across processors (true sharing). */
    double hotFrac = 0.25;

    /** Temporal locality knob (0 = uniform, towards 1 = very hot). */
    double locality = 0.55;

    /** Probability of continuing a sequential run within a region. */
    double seqRun = 0.45;

    /** Lock acquire/release pairs per 1000 instructions. */
    double locksPer1k = 0.0;

    /** Size of the lock pool (smaller = more contention). */
    std::uint32_t numLocks = 64;

    /** Memory ops inside each critical section. */
    std::uint32_t csMemOps = 6;

    /** Of critical-section ops: fraction that are writes. */
    double csWriteFrac = 0.5;

    /** Barriers per 100k instructions (0 = none). */
    double barriersPer100k = 0.0;

    /**
     * Track values on every generated op: each store carries a unique
     * value and every load records what it observed. Needed by the
     * SC conformance checker; off by default (value bookkeeping costs
     * simulation time).
     */
    bool trackAllValues = false;

    /** Base RNG seed (combined with the processor id). */
    std::uint64_t seed = 1;
};

/** The 11 SPLASH-2 profiles, in the paper's order. */
const std::vector<AppProfile> &splash2Profiles();

/** SPECjbb2000- and SPECweb2005-like commercial profiles. */
const std::vector<AppProfile> &commercialProfiles();

/** All 13 evaluation workloads (SPLASH-2 then commercial). */
const std::vector<AppProfile> &allProfiles();

/** Look up a profile by name (nullptr if unknown). */
const AppProfile *lookupProfile(const std::string &name);

/** Look up a profile by name (fatal if unknown). */
const AppProfile &profileByName(const std::string &name);

} // namespace bulksc

#endif // BULKSC_WORKLOAD_APP_PROFILES_HH
