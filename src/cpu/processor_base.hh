/**
 * @file
 * Common machinery for all processor models: the front end, the
 * memory-op window and its rollback, load-value recording, statistics,
 * and the synchronization engine.
 *
 * A window entry's id is the squash epoch (baselines) or the chunk seq
 * (BulkSC) that the core's AccessTags carry. The window helpers are
 * inline: both cores' per-op loops run through them.
 *
 * The engine is data: a processor holds at most one in-flight sync
 * record (op index, phase, backoff attempts, start epoch, and the
 * current primitive with its operands). Each lock, barrier or I/O op is
 * a short sequence of model primitives (load, store, test-and-set,
 * increment, I/O) that syncPerform() carries out. Every primitive
 * reports its result to syncStep(), which picks the next primitive, a
 * spin retry or completion; syncDone() tells the subclass. The events
 * the engine schedules capture only `this`, an epoch and scalars, and
 * its memory accesses are AccessTags naming only the epoch, so a squash
 * strands them by bumping the epoch.
 *
 * Timing is modelled at memory-op granularity: non-memory instructions
 * advance the front-end clock at the issue width; memory and
 * synchronization operations are subject to each consistency model's
 * ordering rules. This keeps the relative behaviour of SC / TSO / RC /
 * SC++ / BulkSC (the paper's comparison axis) while staying fast enough
 * to run the full evaluation.
 *
 * Two subclasses supply those rules: LsqProcessor runs every non-chunk
 * baseline from a row of the ordering table (cpu/lsq_processor.hh), and
 * BulkProcessor runs the BulkSC variants (core/bulk_processor.hh).
 */

#ifndef BULKSC_CPU_PROCESSOR_BASE_HH
#define BULKSC_CPU_PROCESSOR_BASE_HH

#include <deque>
#include <string>
#include <vector>

#include "cpu/op.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace bulksc {

/** The model primitive a synchronization phase performs. */
enum class SyncPrim : std::uint8_t
{
    Load,       //!< read the word
    Store,      //!< write SyncRecord::value
    TestAndSet, //!< RMW: 0 becomes 1; any other value stays
    Increment,  //!< RMW: v becomes v + 1
    Io,         //!< an uncached I/O operation
};

/** True for the read-modify-write primitives. */
inline bool
isRmw(SyncPrim p)
{
    return p == SyncPrim::TestAndSet || p == SyncPrim::Increment;
}

/** The value an RMW @p prim writes over @p old. */
inline std::uint64_t
rmwResult(SyncPrim prim, std::uint64_t old)
{
    if (prim == SyncPrim::Increment)
        return old + 1;
    return old == 0 ? 1 : old;
}

/**
 * The kinds of AccessTag the processor models issue; each core's
 * onAccessDone dispatches on them. They start at 1: the memory system
 * reserves 0 for "nobody waits" (AccessTag{}, a prefetch's tag).
 */
enum class AccessKind : std::uint8_t
{
    Sync = 1,   //!< ProcessorBase: the sync primitive (id: epoch)
    Load,       //!< a window load (op; id: epoch, or BulkSC chunk seq)
    StoreOwn,   //!< LsqProcessor: a buffered store's ownership (op;
                //!< id: epoch)
    Drain,      //!< LsqProcessor: the FIFO store buffer's head (op)
    Chain,      //!< LsqProcessor: the perform chain's demand miss
    StoreFetch, //!< BulkProcessor: a speculative store's line (id:
                //!< chunk seq)
    SyncLoad,   //!< BulkProcessor: the sync stage's load (id: epoch)
};

/** The tag of an access of kind @p k. */
inline AccessTag
accessTag(AccessKind k, std::size_t op = 0, std::uint64_t id = 0)
{
    return AccessTag{static_cast<std::uint8_t>(k),
                     static_cast<std::uint32_t>(op), id};
}

/** Processor timing parameters (defaults follow the paper's Table 2). */
struct CpuParams
{
    /** Non-memory instructions issued per cycle. */
    unsigned issueWidth = 4;

    /** Maximum memory ops in flight (load/store queue). */
    unsigned windowOps = 56;

    /** Instruction window (ROB) size; bounds lookahead. */
    unsigned robInstrs = 176;

    /** Cycles to restore a checkpoint / recover from a squash. */
    Tick squashPenalty = 15;

    /** Spin-loop poll interval, cycles. */
    Tick spinPoll = 25;

    /** Instructions charged per spin-loop iteration. */
    unsigned spinLoopInstrs = 8;

    /** Latency of an uncached (I/O) operation. */
    Tick ioLatency = 100;

    /** Processors participating in barriers. */
    unsigned numBarrierProcs = 8;

    /** Cache line size (locates the barrier generation word). */
    unsigned lineBytes = kDefaultLineBytes;

    /** Maximum ticks of L1-hit work batched into one event. */
    Tick batchWindow = 64;
};

/**
 * Abstract base of all processor models.
 */
class ProcessorBase : public SimObject, public CacheListener
{
  public:
    ProcessorBase(EventQueue &eq, const std::string &name, ProcId pid,
                  MemorySystem &mem, const Trace &trace,
                  const CpuParams &params);

    /** Begin executing the trace. */
    void start();

    bool finished() const { return finishedFlag; }

    /** Tick at which the trace completed (valid once finished()). */
    Tick finishTick() const { return finishTick_; }

    ProcId procId() const { return pid; }

    /** Values observed by recording loads, indexed by slot. */
    const std::vector<std::uint64_t> &loadResults() const
    {
        return results;
    }

    // --- statistics ---

    /** Instructions retired, each counted once (spins included). */
    std::uint64_t retiredInstrs() const { return nRetired; }

    /** Instructions executed and then discarded by a squash. */
    std::uint64_t wastedInstrs() const { return nWasted; }

    std::uint64_t squashes() const { return nSquashes; }

    /** The spin-loop share of retiredInstrs() (plus spins in chunks
     *  still live); a squashed spin counts as wasted instead. */
    std::uint64_t spinInstrs() const { return nSpin; }

    /** Dispatch a completed access by its kind; the base handles
     *  AccessKind::Sync, each core its own kinds. */
    void onAccessDone(LineAddr line, AccessTag tag) override;

    /**
     * Digest of the model-visible execution state (trace position,
     * recorded load values, model-specific chunk machinery) for
     * explorer revisit pruning. Timing state is excluded on purpose:
     * two runs in "the same" protocol state at different ticks should
     * fingerprint equal.
     */
    virtual std::uint64_t fingerprint() const;

  protected:
    /** Model-specific execution engine; re-entered on every wakeup. */
    virtual void advance() = 0;

    /**
     * Charge @p instrs instructions to the front end.
     * @return the tick at which the last of them has issued.
     */
    Tick fetchAdvance(std::uint32_t instrs);

    /** Fetch tick of the op at pos; the first call charges the op
     *  and its gap to the front end. */
    Tick
    fetchOp()
    {
        if (!gapCharged) {
            fetchAvail = fetchAdvance(trace.ops[pos].gap + 1);
            gapCharged = true;
        }
        return fetchAvail;
    }

    /** Step the front end past the op at pos. */
    void
    nextOp()
    {
        ++pos;
        gapCharged = false;
    }

    /** An issued load or store in the window. */
    struct WinEntry
    {
        std::size_t opIdx;
        LineAddr line;
        std::uint64_t id; //!< squash epoch, or BulkSC chunk seq
        bool completed;
    };

    /** Issue must stall on the window or ROB limit. */
    bool
    windowFull() const
    {
        if (window.size() >= prm.windowOps)
            return true;
        return !window.empty() &&
               trace.instrsBetween(window.front().opIdx, pos) >=
                   prm.robInstrs;
    }

    /** Mark op @p op's entry issued under @p id completed.
     *  @return false if a rollback dropped it. */
    bool
    completeEntry(std::size_t op, std::uint64_t id)
    {
        for (WinEntry &w : window) {
            if (w.opIdx == op && w.id == id) {
                w.completed = true;
                return true;
            }
        }
        return false;
    }

    /** Retire completed entries from the head.
     *  @return the instructions (ops and their gaps) retired. */
    std::uint64_t
    retireWindow()
    {
        std::uint64_t n = 0;
        while (!window.empty() && window.front().completed) {
            n += trace.ops[window.front().opIdx].gap + 1;
            window.pop_front();
        }
        return n;
    }

    /** Roll back to op @p to_op: drop the window entries at or after
     *  it, rewind the front end, end the epoch and resume after the
     *  squash penalty. */
    void
    rollBack(std::size_t to_op)
    {
        while (!window.empty() && window.back().opIdx >= to_op)
            window.pop_back();
        pos = to_op;
        ++epoch;
        gapCharged = false;
        scheduleAdvance(curTick() + prm.squashPenalty);
    }

    /** Mark the trace complete. */
    void markFinished();

    /** Schedule an advance() wakeup at absolute tick @p when. */
    void scheduleAdvance(Tick when);

    // --- synchronization engine ---

    /**
     * The synchronization op in flight: at most one per processor.
     * Each event the engine schedules carries only the epoch it was
     * issued in, so a squash (epoch bump) strands it harmlessly.
     */
    struct SyncRecord
    {
        std::size_t opIdx = 0;   //!< trace index of the op
        unsigned phase = 0;      //!< step within the op (barrier arrive)
        unsigned attempts = 0;   //!< failed test-and-sets (lock backoff)
        std::uint32_t epoch = 0; //!< epoch the op started in
        SyncPrim prim = SyncPrim::Load; //!< the phase's primitive
        Addr addr = 0;                  //!< its word
        std::uint64_t value = 0;        //!< a store's value
    };

    /** Start the sync or I/O op at trace index @p idx; syncDone()
     *  reports its completion. */
    void execSync(std::size_t idx);

    /**
     * A primitive's result for the op in flight: the loaded (or RMW's
     * old) value, 0 for a store or I/O op. Dropped if @p e, the epoch
     * the primitive was issued in, has since ended.
     */
    void syncStep(std::uint32_t e, std::uint64_t value);

    /** The op in flight completed (in the epoch it started in). */
    virtual void syncDone() = 0;

    /**
     * Carry out the primitive in sync.prim on sync.addr. The baselines'
     * default performs a load, store or RMW non-speculatively (the RMW
     * atomic) when the access completes, and an I/O op after
     * ioLatency. BulkSC overrides it with speculative stages inside
     * the chunk, an RMW's atomicity coming from the chunk, and drains
     * chunks before an I/O op (Section 4.1.3).
     */
    virtual void syncPerform();

    /** Charge spin-loop instructions (BulkSC charges them to the
     *  current chunk). */
    virtual void chargeInstrs(unsigned n);

    /** Access @p addr; onAccessDone(@p tag) reports its completion,
     *  after the L1 latency on a hit. */
    void accessTagged(Addr addr, MemCmd cmd, AccessTag tag);

    /** Record a load's observed value if it has a result slot. */
    void
    recordLoad(const Op &op, std::uint64_t v)
    {
        if (op.aux != kNoSlot && op.aux < results.size())
            results[op.aux] = v;
    }

    ProcId pid;
    MemorySystem &mem;
    const Trace &trace;
    CpuParams prm;

    /** Next op index to execute. */
    std::size_t pos = 0;

    /**
     * Squash epoch: events and access tags from before a squash are
     * stale. A stale one would have to stay in flight for 2^32
     * squashes to alias.
     */
    std::uint32_t epoch = 0;

    /** The sync op in flight; meaningful while the subclass is busy
     *  with one. Not part of fingerprint(). */
    SyncRecord sync;

    /** Issued loads and stores, oldest first. */
    std::deque<WinEntry> window;

    // statistics (maintained by subclasses)
    std::uint64_t nRetired = 0;
    std::uint64_t nWasted = 0;
    std::uint64_t nSquashes = 0;
    std::uint64_t nSpin = 0;

  private:
    /** Issue the primitive of the current op's phase. */
    void syncIssue();

    /** Record primitive @p prim on @p addr (a store writes @p value)
     *  and perform it. */
    void syncPrimitive(SyncPrim prim, Addr addr, std::uint64_t value = 0);

    /** Charge one spin iteration and issue the phase again after
     *  @p backoff cycles. */
    void syncSpin(Tick backoff);

    Tick fetchTick = 0;
    std::uint32_t fetchCarry = 0;

    Tick fetchAvail = 0;
    bool gapCharged = false;

    bool finishedFlag = false;
    Tick finishTick_ = 0;

    std::vector<std::uint64_t> results;

    bool advancePending = false;
    Tick advanceAt = 0;
};

} // namespace bulksc

#endif // BULKSC_CPU_PROCESSOR_BASE_HH
