/**
 * @file
 * The timed memory system: private write-back L1s with MSHRs, a shared
 * L2, one or more directory modules with DirBDM support, and a main
 * memory, all connected through the generic Network.
 *
 * Processors issue accesses through access(); BulkSC's commit engine
 * uses bulkCommit() / l1DiscardSpeculative() / restoreLine(). A
 * CacheListener registered per processor receives external
 * invalidations, displacements, and incoming W signatures — this is how
 * consistency machinery observes the memory system without the caches
 * knowing anything about speculation.
 */

#ifndef BULKSC_MEM_MEMORY_SYSTEM_HH
#define BULKSC_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "network/network.hh"
#include "signature/signature.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bulksc {

/** Command of a processor-initiated access. */
enum class MemCmd : std::uint8_t
{
    Read,       //!< demand read (also BulkSC write misses, Section 4.3)
    ReadEx,     //!< demand read-exclusive (baseline write misses)
    Prefetch,   //!< read prefetch [12]
    PrefetchEx, //!< exclusive prefetch for writes [12]
};

/** True for commands that want ownership. */
inline bool
wantsOwnership(MemCmd c)
{
    return c == MemCmd::ReadEx || c == MemCmd::PrefetchEx;
}

/**
 * Interface through which consistency machinery observes one L1 cache.
 */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;

    /** The line was invalidated by a remote exclusive request. */
    virtual void onExternalInval(LineAddr) {}

    /** The line was displaced by a fill (capacity/conflict). */
    virtual void onLineDisplaced(LineAddr, bool /*dirty*/) {}

    /**
     * A W signature arrived (committing chunk, or directory-cache
     * displacement). Called before bulk invalidation is applied.
     */
    virtual void onRemoteWSig(const Signature &) {}

    /** May @p line be chosen as a fill victim? The BDM vetoes lines
     *  speculatively written by live chunks. */
    virtual bool mayVictimize(LineAddr) { return true; }

    /**
     * Another processor is fetching @p line, which this cache owns
     * dirty. BulkSC's BDM checks membership in Wpriv: on a hit the old
     * version is supplied from the Private Buffer and the address is
     * added back to W (Section 5.2).
     */
    virtual void onExternalOwnerFetch(LineAddr) {}
};

/** Memory system configuration (defaults follow the paper's Table 2). */
struct MemParams
{
    unsigned numProcs = 8;
    CacheGeometry l1{32 * 1024, 4, 32};
    CacheGeometry l2{8 * 1024 * 1024, 8, 32};
    unsigned l1Mshrs = 8;
    Tick l1Latency = 2;    //!< L1 round trip
    Tick l2Latency = 13;   //!< L2 round trip
    Tick memLatency = 300; //!< memory round trip
    Tick bounceRetry = 20; //!< retry delay for bounced reads

    /** Ceiling for the exponential bounce-retry backoff (0 = 32x
     *  bounceRetry). A bounced read doubles its retry interval each
     *  bounce up to this cap instead of spinning at bounceRetry. */
    Tick bounceRetryCap = 0;

    unsigned numDirectories = 1;
    std::size_t dirCacheEntries = 0; //!< 0 = full-mapped directory
    SignatureConfig sigCfg;

    /** BulkSC mode: demand write misses are issued as Reads and the
     *  directory only ever adds the requester as a sharer. */
    bool bulkMode = false;
};

/**
 * The complete timed memory subsystem of the modelled CMP.
 */
class MemorySystem : public SimObject
{
  public:
    using AccessCallback = std::function<void()>;

    MemorySystem(EventQueue &eq, Network &net, const MemParams &params);

    /** Register the consistency listener for processor @p p. */
    void setListener(ProcId p, CacheListener *l);

    /**
     * Attach the fault plane for dir.nack, decided when a commit W
     * reaches its directory. The W delivery itself is sent through
     * Network::sendLossy (dir.commit_loss, net.drop, net.dup).
     * Invalidation fan-out and acknowledgements stay reliable — they
     * model short on-chip control wires, and faulting them would need
     * ack-level sequencing the paper's protocol does not describe.
     */
    void setFaultPlane(FaultPlane *fp) { faults = fp; }

    /** Arm the commit-service timeout/resend machinery (the System
     *  does when the fault plane can lose or duplicate messages). */
    void harden(const ResendConfig &rc) { resend = rc; }

    /**
     * Issue an access.
     *
     * @return the access latency if it hits in the L1 (the callback is
     *         NOT invoked in that case); std::nullopt on a miss, in
     *         which case @p cb fires when the fill completes.
     */
    std::optional<Tick> access(ProcId p, Addr addr, MemCmd cmd,
                               AccessCallback cb);

    /** @return true if @p p's L1 holds @p line (optionally owned). */
    bool l1Contains(ProcId p, LineAddr line,
                    bool needs_ownership = false) const;

    /** Mark @p line dirty in @p p's L1 (BulkSC speculative store). */
    void markDirty(ProcId p, LineAddr line);

    /** L1 state of @p line in @p p's cache (Invalid if absent). */
    LineState l1State(ProcId p, LineAddr line) const;

    /**
     * Write a dirty non-speculative line back to memory without
     * invalidating it (the BSCbase first-speculative-write rule,
     * Section 5.2). Generates writeback traffic and clears the
     * directory's dirty indication.
     */
    void writebackLine(ProcId p, LineAddr line);

    /**
     * Commit a chunk's W signature (arbitration already granted):
     * W travels to each directory module, is expanded (Table 1),
     * forwarded to the Invalidation List for disambiguation and bulk
     * invalidation, and @p done fires when every module has collected
     * its acknowledgements (the arbiter may then drop W).
     *
     * @param w Shared so in-flight commits keep it alive.
     * @param w_lines The chunk's exact written lines (Chunk::wLines),
     *        used to pick the involved directory modules. Only read
     *        synchronously, so a stack-local set is fine.
     * @param inval_nodes_out If non-null, receives the total number of
     *        processors that were sent W (Table 4 "Nodes per W Sig").
     */
    void bulkCommit(ProcId committer, std::shared_ptr<Signature> w,
                    const std::unordered_set<LineAddr> &w_lines,
                    std::function<void()> done,
                    unsigned *inval_nodes_out = nullptr);

    /**
     * Discard @p p's speculatively written lines (all lines of its L1
     * that are members of @p w) — chunk squash.
     *
     * @param spec_lines The chunk's truly written lines (the per-line
     *        chunk-id bits): members are dropped without writeback,
     *        aliased victims keep their committed data safe in the L2.
     */
    void l1DiscardSpeculative(ProcId p, const Signature &w,
                              const std::unordered_set<LineAddr> &spec_lines);

    /** Re-insert @p line as dirty in @p p's L1 (Private Buffer restore). */
    void restoreLine(ProcId p, LineAddr line);

    /**
     * Functionally pre-load @p line into the L2 (no timing, no
     * traffic). Used to warm caches so short simulations measure
     * steady-state behaviour instead of cold misses.
     */
    void warmLine(LineAddr line);

    /**
     * Functionally pre-load @p line into @p p's L1 (and the L2 and
     * directory), optionally dirty-owned. Dirty warming seeds the
     * steady-state "dirty non-speculative" pattern the dynamically-
     * private optimization relies on.
     */
    void warmL1(ProcId p, LineAddr line, bool dirty);

    /** Committed value of @p addr (tracked addresses; 0 if unset). */
    std::uint64_t readValue(Addr addr) const;

    /** Set the committed value of @p addr. */
    void writeValue(Addr addr, std::uint64_t v);

    /** Directory module responsible for @p line. */
    unsigned dirOf(LineAddr line) const;

    /** Peek the directory entry for @p line (testing/debug). */
    const DirEntry *peekDir(LineAddr line) const;

    unsigned numDirs() const { return static_cast<unsigned>(dirs.size()); }

    const MemParams &params() const { return prm; }

    Network &network() { return net; }

    /** Dump aggregate statistics into @p sg under @p prefix. */
    void dumpStats(StatGroup &sg, const std::string &prefix = "mem.") const;

    /**
     * Digest of the protocol-visible memory-system state: L1/L2
     * contents, outstanding MSHRs, directory entries, in-flight commit
     * signatures, and the committed value store. Performance counters
     * and timing state are excluded (see CacheArray::fingerprint).
     * Feeds System::stateFingerprint() for explorer revisit pruning.
     */
    std::uint64_t fingerprint() const;

    // --- aggregate stats, exposed for benches/tests ---
    std::uint64_t l1Hits() const;
    std::uint64_t l1Misses() const;
    std::uint64_t bouncedReads() const { return nBounced; }
    std::uint64_t invalidations() const { return nInvals; }
    std::uint64_t writebacks() const { return nWritebacks; }
    std::uint64_t dirDisplacements() const { return nDirDisplacements; }
    std::uint64_t fillBypasses() const { return nFillBypasses; }

  private:
    struct Mshr
    {
        MemCmd cmd;
        bool dispatched = false;

        /** An invalidation targeted this line while the fill was in
         *  flight: complete the access but do NOT install the line
         *  (the directory no longer tracks this requester). Without
         *  this, the racing fill would install a copy invisible to
         *  the directory — and future commits would skip it. */
        bool dropFill = false;

        std::vector<AccessCallback> callbacks;
    };

    struct L1
    {
        explicit L1(const CacheGeometry &g) : array(g) {}

        CacheArray array;
        std::unordered_map<LineAddr, Mshr> mshrs;
        std::deque<std::pair<LineAddr, MemCmd>> pendingQueue;
        std::unordered_map<LineAddr, Mshr> queuedMshrs;
        CacheListener *listener = nullptr;
    };

    /** State of one W commit at one directory module. */
    struct CommitTxn
    {
        std::shared_ptr<Signature> w;
        unsigned acksPending = 0;
        std::function<void()> onDone;
        unsigned *invalNodesOut = nullptr;
    };

    void dispatchMiss(ProcId p, LineAddr line);

    /** @p bounces counts prior bounces of this request (backoff). */
    void dirHandleRequest(ProcId p, LineAddr line, MemCmd cmd,
                          unsigned bounces = 0);
    void finishFill(ProcId p, LineAddr line, MemCmd cmd);
    void sendInval(ProcId target, LineAddr line);

    /** Bulk-invalidate @p p's members of @p w. @p spec_lines is
     *  non-null for a squash discard: the chunk's own written lines,
     *  dropped without writeback. */
    void applyBulkInval(ProcId p, const Signature &w,
                        const std::unordered_set<LineAddr> *spec_lines);

    /** Insert @p line into the L2 in state @p st, counting a dirty L2
     *  victim as a writeback to memory. */
    void l2Insert(LineAddr line, LineState st);
    void handleDirDisplacements(
        unsigned dir_idx, const std::vector<DirDisplacement> &disp);
    void dirHandleCommit(unsigned dir_idx, ProcId committer,
                         const std::shared_ptr<CommitTxn> &txn);

    /**
     * (Re)send a commit W to directory @p d, with loss/duplication
     * injection on the wire, nack injection at arrival, idempotent
     * delivery (via @p delivered), and — when hardening is armed — a
     * timeout-driven resend chain with exponential backoff.
     */
    void sendCommitW(ProcId committer, unsigned d,
                     const std::shared_ptr<CommitTxn> &txn,
                     const std::shared_ptr<Tick> &start,
                     std::uint64_t id,
                     const std::shared_ptr<bool> &delivered,
                     unsigned attempt);

    CacheArray::VictimFilter filterFor(ProcId p);

    MemParams prm;
    Network &net;
    FaultPlane *faults = nullptr;
    std::optional<ResendConfig> resend; //!< set iff hardened

    /** Commit-service message ids (dedup/trace labelling). */
    std::uint64_t nextCommitId = 0;

    std::vector<L1> l1s;
    CacheArray l2;
    std::vector<std::unique_ptr<Directory>> dirs;

    /** Per-directory list of currently-committing W signatures (read
     *  bounce, Section 4.3.2). */
    std::vector<std::vector<std::shared_ptr<Signature>>> committingSigs;

    std::unordered_map<Addr, std::uint64_t> values;

    // stats
    std::uint64_t nBounced = 0;
    std::uint64_t nInvals = 0;
    std::uint64_t nExtraInvals = 0;
    std::uint64_t nWritebacks = 0;
    std::uint64_t nDirLookups = 0;
    std::uint64_t nDirAliasLookups = 0;
    std::uint64_t nDirUpdates = 0;
    std::uint64_t nDirAliasUpdates = 0;
    std::uint64_t nDirDisplacements = 0;
    std::uint64_t nFillBypasses = 0;
    std::uint64_t nCommitResends = 0;
    std::uint64_t nCommitAbandoned = 0;
    std::uint64_t nDirNacks = 0;

    /** Per-directory W commit service time: signature arrival at the
     *  module to the last invalidation acknowledgement (cycles). */
    Histogram dirCommitService;

    /** Bounces each eventually-serviced read took (sampled only for
     *  reads that bounced at least once). */
    Histogram bounceRetries;
};

} // namespace bulksc

#endif // BULKSC_MEM_MEMORY_SYSTEM_HH
