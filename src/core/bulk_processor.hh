/**
 * @file
 * The BulkSC processor (Sections 3 and 4): dynamically breaks the
 * instruction stream into chunks that execute speculatively with full
 * memory-access reordering, summarizes their addresses in R/W
 * signatures, and commits chunks through the arbiter so that SC is
 * enforced at chunk granularity.
 *
 * Variants (paper Table 2):
 *  - BSCbase:  this class with default BulkParams;
 *  - BSCdypvt: dynPrivOpt = true (Wpriv + Private Buffer, Section 5.2);
 *  - BSCstpvt: statPrivOpt = true (stack refs private, Section 5.1);
 *  - BSCexact: SignatureConfig::exact = true ("magic" alias-free).
 */

#ifndef BULKSC_CORE_BULK_PROCESSOR_HH
#define BULKSC_CORE_BULK_PROCESSOR_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "analysis/analysis_engine.hh"
#include "core/arbiter.hh"
#include "core/bdm.hh"
#include "cpu/processor_base.hh"
#include "sim/event_trace.hh"
#include "sim/stats.hh"

namespace bulksc {

/** BulkSC-specific configuration (defaults follow Table 2). */
struct BulkParams
{
    /** Target chunk size in dynamic instructions. */
    unsigned chunkSize = 1000;

    /** Signature pairs / simultaneous chunks per processor. */
    unsigned maxLiveChunks = 2;

    /** RSig commit bandwidth optimization (Section 4.2.2). */
    bool rsigOpt = true;

    /** Dynamically-private data optimization (Section 5.2). */
    bool dynPrivOpt = false;

    /** Statically-private data optimization (Section 5.1). */
    bool statPrivOpt = false;

    /** Private Buffer capacity, lines. */
    unsigned privBufferEntries = 24;

    /** Delay before retrying a denied commit request. */
    Tick commitRetryDelay = 30;

    /** Consecutive squashes before pre-arbitration kicks in. */
    unsigned preArbThreshold = 6;

    /** Floor for exponential chunk shrinking. */
    unsigned minChunkSize = 16;

    /** Cycles for a forwarding-log entry to drain into the successor's
     *  R signature (window of vulnerability, Section 3.2.1). */
    Tick fwdLogDelay = 3;

    /**
     * End the current chunk when a synchronization operation is
     * reached (the paper's Section 4.1.2 notes that checkpoint-
     * triggering events can double as chunk boundaries). This shrinks
     * the window during which two critical sections overlap in one
     * chunk (Figure 6(a)/(b) scenarios) at the cost of smaller
     * chunks around synchronization.
     */
    bool endChunkOnSync = false;

    /** Signature geometry (exact = true gives BSCexact). */
    SignatureConfig sigCfg;
};

/** Per-processor BulkSC statistics (feeds Tables 3 and 4). */
struct BulkStats
{
    std::uint64_t commits = 0;
    std::uint64_t emptyWCommits = 0;
    std::uint64_t deniedCommits = 0;
    std::uint64_t abortedGrants = 0;
    double rSizeSum = 0;     //!< sum of exact R set sizes at commit
    double wSizeSum = 0;     //!< sum of exact W set sizes at commit
    double wprivSizeSum = 0; //!< sum of exact Wpriv set sizes at commit
    std::uint64_t specReadDisplacements = 0;
    std::uint64_t specWriteDisplacements = 0;
    std::uint64_t privBufferSupplies = 0;
    std::uint64_t privBufferOverflows = 0;
    std::uint64_t baseWritebacks = 0; //!< dirty-line writebacks forced
                                      //!< by the base protocol
    unsigned invalNodes = 0;          //!< procs sent W, total
    std::uint64_t preArbRequests = 0;

    /** Squash attribution: triggers whose exact address sets really
     *  intersected the committing W. */
    std::uint64_t trueConflictSquashes = 0;

    /** Squash attribution: triggers where only the Bloom encodings
     *  intersected (signature aliasing). */
    std::uint64_t falsePositiveSquashes = 0;

    /** Squashes that could not be attributed because the exact
     *  mirrors were disabled (signature.track-exact=0). */
    std::uint64_t unattributedSquashes = 0;

    /** Commit requests retransmitted after a timeout. */
    std::uint64_t resends = 0;

    /** Commit requests abandoned after maxResend attempts. */
    std::uint64_t resendGiveUps = 0;

    /** Send attempts each decided commit request needed (1 = no
     *  fault; only sampled when hardening is armed). */
    Histogram resendAttempts;

    /** First commit request to grant, per committed chunk (cycles). */
    Histogram arbLatency;

    /** Squash to next chunk open, per squash (cycles). */
    Histogram squashRestart;

    /** Executed instructions of each squashed chunk. */
    Histogram squashChunkSize;
};

/**
 * A processor that executes chunks all the time (Figure 5).
 */
class BulkProcessor : public ProcessorBase, public ArbiterClient
{
  public:
    BulkProcessor(EventQueue &eq, const std::string &name, ProcId pid,
                  MemorySystem &mem, const Trace &trace,
                  const CpuParams &cpu_params,
                  const BulkParams &bulk_params, ArbiterCore &arb);

    // CacheListener
    void onAccessDone(LineAddr line, AccessTag tag) override;
    void onRemoteWSig(const Signature &w) override;
    void onLineDisplaced(LineAddr line, bool dirty) override;
    bool mayVictimize(LineAddr line) override;
    void onExternalOwnerFetch(LineAddr line) override;
    void onCommitDone(std::uint64_t seq, unsigned inval_nodes) override;

    // ArbiterClient
    void arbReply(std::uint64_t txn, bool granted) override;
    SigPtr chunkR(std::uint64_t seq) override;
    void preArbGranted() override;

    const BulkStats &bulkStats() const { return bstats; }

    /**
     * Arm the commit-request timeout/resend machinery. Off by default:
     * with a reliable interconnect every request gets exactly one
     * reply, so no timer is ever needed. The System arms it when the
     * fault plane can lose or duplicate messages.
     */
    void harden(const ResendConfig &rc) { resend = rc; }

    /** Attach an analysis engine: accesses are logged (all of them
     *  with writer tags, or only the value-tracked ones for a
     *  replay-only engine) and committed chunks report in commit
     *  order. */
    void setAnalysis(AnalysisEngine *a) { analysis = a; }

    // --- forward-progress watchdog hooks ---

    /** Squashes since the last commit. */
    unsigned consecutiveSquashCount() const
    {
        return consecutiveSquashes;
    }

    /** Tick of the last committed chunk (0 if none yet). */
    Tick lastCommitTick() const { return lastCommit; }

    /** Target size the next chunk will open with. */
    unsigned nextTarget() const { return nextChunkTarget; }

    /** The configured chunk-shrink floor. */
    unsigned minChunkSize() const { return bprm.minChunkSize; }

    /**
     * Watchdog rescue (graceful degradation): clamp the live chunks'
     * targets to minChunkSize so they end quickly, and reserve the
     * arbiter via pre-arbitration so the shrunken chunk commits ahead
     * of the contention that starved it. No-op if pre-arbitration is
     * already pending or the trace finished.
     */
    void rescueBoost();

    /** One-line-per-chunk state dump for watchdog diagnostics. */
    std::string chunkStateDump() const;

    std::uint64_t fingerprint() const override;

  protected:
    void advance() override;

    void syncDone() override;
    void syncPerform() override { syncStage(false); }
    void chargeInstrs(unsigned n) override;

  private:
    /** Current (youngest, still-open) chunk; opens one if a signature
     *  pair is free. nullptr when stalled on chunk slots. */
    Chunk *currentChunk();

    Chunk *findChunk(std::uint64_t seq);

    void finishOp();

    void issueLoad(Chunk &c, const Op &op);
    void issueStore(Chunk &c, const Op &op);

    /**
     * Would storing to @p line leave no L1 way for it? True when the
     * live chunks already hold assoc-1 or more *other* speculative
     * lines in its set (Section 4.1.2's overflow condition).
     */
    bool wouldOverflowSet(LineAddr line) const;

    /** Distinct speculative lines of @p c alone in @p line's L1 set. */
    std::size_t chunkLinesInSet(const Chunk &c, LineAddr line) const;

    /** Insert @p l into @p c's W (or Wpriv) and its exact line set. */
    void addW(Chunk &c, LineAddr l);
    void addWpriv(Chunk &c, LineAddr l);

    /** Drop @p c's speculative lines from specWays (the chunk is
     *  leaving the live list). */
    void releaseSpecLines(const Chunk &c);

    /** Shared load bookkeeping (R signature, forwarding log). */
    void loadToChunk(Chunk &c, LineAddr line, bool stack_ref);

    /** Shared store bookkeeping: W / Wpriv classification, Private
     *  Buffer, base-protocol writeback, presence request. */
    void storeToChunk(Chunk &c, Addr addr, bool stack_ref, bool tracked,
                      std::uint64_t value);

    /** Speculative read: youngest chunk value, else committed. */
    std::uint64_t specRead(Addr addr) const;

    /** Where a load of @p addr gets its data right now: the youngest
     *  live chunk's store to it, else the committed writer. Mirrors
     *  the machine's forwarding structure, so it is meaningful even
     *  for value-untracked addresses. */
    WriterRef findWriterTag(Addr addr) const;

    /** Append a load of @p addr to @p c's access log (analysis
     *  instrumentation; call at value-bind time). */
    void logLoad(Chunk &c, Addr addr, std::uint64_t value,
                 bool tracked);

    bool anyLiveW(LineAddr line) const;
    bool anyLiveWExact(LineAddr line) const;
    bool anyLiveWpriv(LineAddr line) const;

    /** End @p c (it takes no more instructions) and arbitrate if it
     *  is ready. */
    void endChunk(Chunk &c);

    void maybeArbitrate();
    void onGranted(std::uint64_t seq, SigPtr w);
    void squashFrom(std::size_t idx, SquashCause cause);

    /** Reserve the arbiter (pre-arbitration, Section 3.3); the
     *  processor stalls until preArbGranted(). */
    void requestPreArb();

    /**
     * One commit-permission transaction: the chunk, the W it travels
     * with, and the resend bookkeeping. Kept in arbAttempts under its
     * transaction id until the first reply lands, even after the
     * resends are exhausted (abandoned), so a late reply still commits
     * the chunk or returns its W to the arbiter.
     */
    struct ArbAttempt
    {
        std::uint64_t seq = 0;
        SigPtr w;
        unsigned attempts = 0;
        bool abandoned = false;
    };

    /** Transmit (or retransmit) transaction @p txn and arm its resend
     *  timer. */
    void sendArbAttempt(std::uint64_t txn);

    /** Commit tag of a statically-private Wpriv: never recorded in
     *  `committing`, so its completion changes nothing. */
    static constexpr std::uint64_t kUntrackedCommit = ~std::uint64_t{0};

    /**
     * Run the sync primitive in flight inside the chunk. A store joins
     * it and retires the next cycle; an I/O op waits until every chunk
     * has committed; a load or RMW adds its line to R and sends the
     * read, and once it returns (@p bind) binds the value and an RMW's
     * store, whose atomicity the chunk provides (Section 3.3: sync ops
     * execute inside chunks with no fences). Retried every 10 cycles
     * while no chunk is free (or, to drain, one is live).
     */
    void syncStage(bool bind);

    BulkParams bprm;
    ArbiterCore &arb;
    std::optional<ResendConfig> resend; //!< set iff hardened

    std::deque<std::unique_ptr<Chunk>> chunks;

    /** Speculative lines of the live chunks, per L1 set. */
    SpecWays specWays;

    std::uint64_t nextSeq = 0;
    unsigned nextChunkTarget;
    unsigned consecutiveSquashes = 0;
    Tick lastCommit = 0;

    /** Commit-permission transaction counter (ids are per-proc). */
    std::uint64_t nextArbTxn = 0;

    /** Commit-permission transactions awaiting a reply, by id. */
    std::unordered_map<std::uint64_t, ArbAttempt> arbAttempts;

    /** W of each chunk committing through the directories, by chunk
     *  seq (the bulkCommit tag). */
    std::unordered_map<std::uint64_t, SigPtr> committing;

    bool syncBusy = false;

    PrivateBuffer privBuf;

    bool preArbPending = false;
    bool preArbWaiting = false;

    /** Tick of the last squash with no chunk opened since (feeds the
     *  squash-to-restart histogram). */
    Tick lastSquashTick = kTickNever;

    /** Transaction nesting depth (Section 8 extension): while > 0
     *  the chunk is pinned open so the whole transaction commits
     *  atomically as one chunk. */
    unsigned txnDepth = 0;

    AnalysisEngine *analysis = nullptr;

    BulkStats bstats;
};

} // namespace bulksc

#endif // BULKSC_CORE_BULK_PROCESSOR_HH
