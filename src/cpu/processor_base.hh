/**
 * @file
 * Common machinery for all processor models: front-end (fetch/issue
 * rate) accounting, load-value recording, statistics, and the
 * synchronization engine.
 *
 * The engine is data: a processor holds at most one in-flight sync
 * record (op index, phase, backoff attempts, start epoch). Each lock,
 * barrier or I/O op is a short sequence of model primitives (syncLoad,
 * syncStore, syncRmw with a test-and-set or increment, execIo) that
 * take plain operands. Every primitive reports its result to
 * syncStep(), which picks the next primitive, a spin retry or
 * completion; syncDone() tells the subclass. The events the engine
 * schedules capture only `this`, an epoch and scalars, so a squash
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

#include <string>
#include <vector>

#include "cpu/op.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace bulksc {

/** How a synchronization read-modify-write changes the word. */
enum class RmwKind : std::uint8_t
{
    TestAndSet, //!< 0 becomes 1; any other value stays
    Increment,  //!< v becomes v + 1
};

/** The value an RMW of @p kind writes over @p old. */
inline std::uint64_t
rmwResult(RmwKind kind, std::uint64_t old)
{
    if (kind == RmwKind::Increment)
        return old + 1;
    return old == 0 ? 1 : old;
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

    /** Timed load of a tracked value. The default (all baselines)
     *  performs it non-speculatively at the access's completion. */
    virtual void syncLoad(Addr addr);

    /** Timed store of a tracked value; the default performs it once
     *  exclusive ownership arrives. */
    virtual void syncStore(Addr addr, std::uint64_t value);

    /**
     * Atomic read-modify-write reporting the old value. The baselines'
     * default makes this atomic at the completion event; BulkSC
     * overrides it with a speculative load + store pair whose
     * atomicity comes from the chunk.
     */
    virtual void syncRmw(Addr addr, RmwKind kind);

    /** Perform an uncached I/O operation (overridden by BulkSC to
     *  drain chunks first, Section 4.1.3). */
    virtual void execIo();

    /** Charge spin-loop instructions (BulkSC charges them to the
     *  current chunk). */
    virtual void chargeInstrs(unsigned n);

    /** Access @p addr and run @p fin when it completes (after the
     *  L1 latency on a hit). */
    template <typename F>
    void
    accessThen(Addr addr, MemCmd cmd, F fin)
    {
        auto lat = mem.access(pid, addr, cmd, fin);
        if (lat)
            eventq.scheduleAfter(*lat, fin);
    }

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
     * Squash epoch: callbacks from before a squash are stale. 32 bits
     * keep a callback that carries it with `this` and another 32-bit
     * value within std::function's inline buffer; a stale callback
     * would have to stay in flight for 2^32 squashes to alias.
     */
    std::uint32_t epoch = 0;

    /** The sync op in flight; meaningful while the subclass is busy
     *  with one. Not part of fingerprint(). */
    SyncRecord sync;

    // statistics (maintained by subclasses)
    std::uint64_t nRetired = 0;
    std::uint64_t nWasted = 0;
    std::uint64_t nSquashes = 0;
    std::uint64_t nSpin = 0;

  private:
    /** Issue the primitive of the current op's phase. */
    void syncIssue();

    /** Charge one spin iteration and issue the phase again after
     *  @p backoff cycles. */
    void syncSpin(Tick backoff);

    Tick fetchTick = 0;
    std::uint32_t fetchCarry = 0;

    bool finishedFlag = false;
    Tick finishTick_ = 0;

    std::vector<std::uint64_t> results;

    bool advancePending = false;
    Tick advanceAt = 0;
};

} // namespace bulksc

#endif // BULKSC_CPU_PROCESSOR_BASE_HH
