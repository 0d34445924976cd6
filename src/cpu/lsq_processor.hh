/**
 * @file
 * One load/store-queue core for every non-chunk baseline (SC, TSO, RC
 * and SC++). A model is a row of an ordering table: which program-order
 * pairs may perform out of order, whether synchronization waits for
 * older accesses, and whether a violation of SC is detected and
 * repaired by rollback. The paper's SC, RC and SC++ configurations
 * (Section 2.1) and the TSO extension are four rows; see
 * docs/architecture.md for the table.
 *
 * The core has two issue engines, chosen by the "load passes load"
 * column:
 *
 *  - the in-order perform chain (SC, TSO): each chained op performs
 *    only once the previous one has, so even L1 hits serialize at their
 *    round-trip latency. Read/exclusive prefetches for ops inside the
 *    ROB [12] turn most misses into hits. L1-hit work up to
 *    CpuParams::batchWindow ticks ahead is batched into one event.
 *  - the out-of-order window (RC, SC++): loads and stores issue into
 *    ProcessorBase's memory-op window as the front end delivers them,
 *    up to CpuParams::windowOps ops and CpuParams::robInstrs
 *    instructions, and retire in order once they have completed. A
 *    window entry's id is the squash epoch; SC++ repairs a violation
 *    with ProcessorBase::rollBack().
 *
 * Stores that loads may pass retire into a store buffer that later
 * loads forward from. Where stores may not pass stores (TSO) the buffer
 * is a FIFO that drains one store at a time; otherwise each store asks
 * for ownership as it retires and stays buffered only until it arrives.
 */

#ifndef BULKSC_CPU_LSQ_PROCESSOR_HH
#define BULKSC_CPU_LSQ_PROCESSOR_HH

#include <deque>

#include "cpu/processor_base.hh"

namespace bulksc {

/** One row of the baseline ordering table. */
struct OrderingRow
{
    /** Loads perform out of program order among themselves (the
     *  out-of-order window); otherwise they join the in-order perform
     *  chain. */
    bool loadPassesLoad = false;

    /** Stores retire into a store buffer that later loads bypass and
     *  forward from; otherwise stores perform in the chain. */
    bool loadPassesStore = false;

    /** Buffered stores request ownership concurrently; otherwise the
     *  buffer drains one store at a time, in program order. */
    bool storePassesStore = false;

    /** A synchronization op waits until every older access has
     *  performed, so it never executes speculatively. */
    bool syncWaitsForOlder = false;

    /** Read/exclusive prefetch for every op inside the ROB [12]. */
    bool prefetch = false;

    /** An invalidation or displacement that hits a completed window
     *  entry is an SC violation: roll back to it (SC++'s SHiQ [15]). */
    bool squashOnViolation = false;

    /** Store-buffer entries; the front end stalls on a full buffer
     *  (0 = unbounded). */
    unsigned storeBufferEntries = 0;
};

/** The table-driven baseline processor. */
class LsqProcessor : public ProcessorBase
{
  public:
    LsqProcessor(EventQueue &eq, const std::string &name, ProcId pid,
                 MemorySystem &mem, const Trace &trace,
                 const CpuParams &params, const OrderingRow &row);

    /** Stores drained from a FIFO store buffer. */
    std::uint64_t drainedStores() const { return nDrained; }

    void onAccessDone(LineAddr line, AccessTag tag) override;
    void onExternalInval(LineAddr line) override;
    void onLineDisplaced(LineAddr line, bool dirty) override;

  protected:
    void advance() override;
    void syncDone() override;

  private:
    void issuePrefetches();

    /** Count op @p op retired and step to the next one. */
    void retireAndStep(const Op &op);

    /** Apply a chained op's effect at its perform time. */
    void performChained(const Op &op);

    /** Issue the load or store at pos into the window. */
    void issueToWindow(const Op &op);

    /** Retire store @p idx into the store buffer.
     *  @return true if it performed at once (ownership was held). */
    bool bufferStore(std::size_t idx);

    /** FIFO buffer: start draining the head store. */
    void drainStores();

    /** Newest buffered store to @p addr, or nullptr. */
    const Op *bufferedStore(Addr addr) const;

    /** Value a load of @p addr reads: the newest buffered store's,
     *  else memory's. */
    std::uint64_t forwardedValue(Addr addr) const;

    /** An older access has yet to perform. */
    bool olderAccessPending() const;

    /** Roll back to the oldest completed window entry of @p line. */
    void maybeSquash(LineAddr line);

    const OrderingRow row;

    /** The op at pos is executing: a chained miss or a sync. */
    bool busy = false;

    /** Chain: next op index to prefetch for. */
    std::size_t prefetchPos = 0;

    /** Chain: time the in-order perform chain has reached. */
    Tick performTick = 0;

    /** Op indices of retired stores not yet visible, oldest first. */
    std::deque<std::size_t> storeBuffer;
    bool drainInFlight = false;
    std::uint64_t nDrained = 0;
};

} // namespace bulksc

#endif // BULKSC_CPU_LSQ_PROCESSOR_HH
