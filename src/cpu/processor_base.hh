/**
 * @file
 * Common machinery for all processor models: front-end (fetch/issue
 * rate) accounting, load-value recording, statistics, and the
 * synchronization engine that executes lock/barrier operations on top
 * of model-specific load/store/RMW primitives.
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

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/op.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace bulksc {

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

    /** Invoked once when the trace completes. */
    void setOnFinished(std::function<void()> cb)
    {
        onFinished = std::move(cb);
    }

    ProcId procId() const { return pid; }

    /** Values observed by recording loads, indexed by slot. */
    const std::vector<std::uint64_t> &loadResults() const
    {
        return results;
    }

    // --- statistics ---
    std::uint64_t retiredInstrs() const { return nRetired; }
    std::uint64_t wastedInstrs() const { return nWasted; }
    std::uint64_t squashes() const { return nSquashes; }
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

    /** Mark the trace complete and fire the finished callback. */
    void markFinished();

    /** Schedule an advance() wakeup at absolute tick @p when. */
    void scheduleAdvance(Tick when);

    // --- synchronization engine ---

    /**
     * Execute a synchronization or I/O op; @p done fires when it
     * completes. Built on the model primitives below.
     */
    void execSync(const Op &op, std::function<void()> done);

    /** Timed load of a tracked value. The default (all baselines)
     *  performs it non-speculatively at the access's completion. */
    virtual void syncLoad(Addr addr,
                          std::function<void(std::uint64_t)> done);

    /** Timed store of a tracked value; the default performs it once
     *  exclusive ownership arrives. */
    virtual void syncStore(Addr addr, std::uint64_t value,
                           std::function<void()> done);

    /**
     * Atomic read-modify-write: applies @p modify to the current value
     * and reports the old value. The baselines' default makes this
     * atomic at the completion event; BulkSC overrides it with a
     * speculative load + store pair whose atomicity comes from the
     * chunk.
     */
    virtual void
    syncRmw(Addr addr,
            std::function<std::uint64_t(std::uint64_t)> modify,
            std::function<void(std::uint64_t)> done);

    /** Perform an uncached I/O operation (overridden by BulkSC to
     *  drain chunks first, Section 4.1.3). */
    virtual void execIo(std::function<void()> done);

    /** Charge spin-loop instructions (models extend, e.g. to grow the
     *  current chunk). */
    virtual void chargeInstrs(unsigned n);

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

    /** Squash epoch: callbacks from before a squash are stale. */
    std::uint64_t epoch = 0;

    // statistics (maintained by subclasses)
    std::uint64_t nRetired = 0;
    std::uint64_t nWasted = 0;
    std::uint64_t nSquashes = 0;
    std::uint64_t nSpin = 0;

  private:
    Tick fetchTick = 0;
    std::uint32_t fetchCarry = 0;

    bool finishedFlag = false;
    Tick finishTick_ = 0;
    std::function<void()> onFinished;

    std::vector<std::uint64_t> results;

    bool advancePending = false;
    Tick advanceAt = 0;
};

} // namespace bulksc

#endif // BULKSC_CPU_PROCESSOR_BASE_HH
