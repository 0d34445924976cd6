/**
 * @file
 * Top-level machine configuration: the paper's Table 2 as defaults,
 * plus the consistency model selector.
 */

#ifndef BULKSC_SYSTEM_MACHINE_CONFIG_HH
#define BULKSC_SYSTEM_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/bulk_processor.hh"
#include "cpu/lsq_processor.hh"
#include "mem/memory_system.hh"
#include "network/network.hh"

namespace bulksc {

/** The consistency models compared in the paper's evaluation. */
enum class Model
{
    SC,       //!< in-order SC + read/exclusive prefetching [12]
    TSO,      //!< total store order (extension beyond the paper)
    RC,       //!< release consistency, speculation across fences
    SCpp,     //!< SC++: RC overlap plus SHiQ rollback [15]
    BSCbase,  //!< basic BulkSC (Section 4)
    BSCdypvt, //!< + dynamically-private data optimization (5.2)
    BSCstpvt, //!< + statically-private data optimization (5.1)
    BSCexact, //!< BSCdypvt with a "magic" alias-free signature
};

/** @return the paper's name for a model. */
const char *modelName(Model m);

/** Parse a model name (fatal on unknown). */
Model modelByName(const std::string &name);

/** True for the four BulkSC variants. */
bool isBulk(Model m);

/** The ordering-table row of a baseline model; nullptr for the
 *  BulkSC variants. */
const OrderingRow *orderingRow(Model m);

/** What the forward-progress watchdog concluded about a run. */
enum class WatchdogVerdict
{
    None,       //!< no progress pathology detected
    Livelock,   //!< a chunk kept squashing at the minimum size
    Starvation, //!< a processor stopped committing (others continued)
    Deadlock,   //!< no global progress at all (or tick ceiling hit)
};

/** Short printable verdict name ("livelock", ...). */
const char *watchdogVerdictName(WatchdogVerdict v);

/**
 * Forward-progress watchdog knobs. Disabled by default so library
 * embedders (tests, benches) see no behaviour change; the CLI tools
 * turn it on.
 */
struct WatchdogConfig
{
    bool enabled = false;

    /** Ticks between progress checks. */
    Tick interval = 50'000;

    /** Livelock: consecutive squashes of one processor's leading
     *  chunk after shrinking has already bottomed out at
     *  minChunkSize. */
    unsigned livelockSquashes = 64;

    /** Starvation: a processor whose last chunk commit is this many
     *  ticks old while the machine as a whole keeps progressing is
     *  first rescued, then (at twice the gap) reported. */
    Tick starvationGap = 1'000'000;

    /** Deadlock: consecutive checks with an unchanged global progress
     *  signature before tripping. */
    unsigned deadlockChecks = 3;

    /** Attempt graceful degradation (force a starved processor's
     *  chunk to the minimum size with pre-arbitration priority)
     *  before declaring starvation. */
    bool rescue = true;

    /** Absolute tick ceiling (0 = none); exceeding it is reported as
     *  a deadlock. */
    Tick tickCeiling = 0;
};

/** Complete machine configuration (defaults follow Table 2). */
struct MachineConfig
{
    Model model = Model::BSCdypvt;

    unsigned numProcs = 8;

    CpuParams cpu;
    MemParams mem;
    NetworkConfig net;
    BulkParams bulk;

    /** Arbiter signature-check latency; with the network hops this
     *  yields the paper's ~30-cycle commit arbitration latency. */
    Tick arbProcessing = 24;

    /** Maximum simultaneously-committing chunks. */
    unsigned maxSimulCommits = 8;

    /** Arbiter modules; > 1 selects the distributed arbiter with a
     *  G-arbiter (Section 4.2.3). */
    unsigned numArbiters = 1;

    /** Pre-load non-streaming lines into the L2 before the run so
     *  short simulations measure steady state, not cold misses. */
    bool warmCaches = true;

    /**
     * Fault-plane specification, e.g.
     * "net.drop=0.01,net.delay=1:200,arb.grant_loss=0.002" — see
     * FaultPlane::parseSpec for the grammar. Empty = no injection.
     */
    std::string faults;

    /** Seed for the fault plane's deterministic decisions. */
    std::uint64_t faultSeed = 1;

    /** Timeout/resend policy of the hardened protocol, armed when
     *  the fault plane can lose or duplicate messages. */
    ResendConfig resend;

    /** Forward-progress watchdog (off by default; tools enable it). */
    WatchdogConfig watchdog;

    /**
     * Check the configuration for inconsistent geometry. On failure
     * @p err receives an actionable message naming the offending
     * option(s). Call before resolve().
     *
     * @return true iff the configuration can build a System.
     */
    bool validate(std::string &err) const;

    /**
     * Resolve per-model knobs (bulk mode, private-data options, exact
     * signatures) into the sub-configs. Call before building a System.
     */
    void resolve();
};

} // namespace bulksc

#endif // BULKSC_SYSTEM_MACHINE_CONFIG_HH
