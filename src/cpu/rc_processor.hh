/**
 * @file
 * The RC baseline: loads and stores overlap and reorder freely within
 * the instruction window; stores retire into a write buffer and acquire
 * ownership in the background (hardware exclusive prefetching for
 * writes); fences are effectively free because the paper's RC
 * configuration speculates across them.
 *
 * This is the performance ceiling the paper normalizes everything to.
 */

#ifndef BULKSC_CPU_RC_PROCESSOR_HH
#define BULKSC_CPU_RC_PROCESSOR_HH

#include <deque>
#include <unordered_map>

#include "cpu/processor_base.hh"

namespace bulksc {

/** Fully-overlapped release-consistency processor. */
class RcProcessor : public ProcessorBase
{
  public:
    RcProcessor(EventQueue &eq, const std::string &name, ProcId pid,
                MemorySystem &mem, const Trace &trace,
                const CpuParams &params);

  protected:
    void advance() override;


    /** An op in the instruction window. */
    struct WinEntry
    {
        std::size_t opIdx;
        LineAddr line;
        bool completed;
        bool isLoad;
    };

    /** Retire completed ops from the window head. */
    void retire();

    /** True if issue must stall (window/ROB limits; SC++ adds the
     *  SHiQ capacity). */
    virtual bool windowFull() const;

    std::deque<WinEntry> window;

    /** Values of stores whose ownership is still pending, newest
     *  last: a same-address load forwards from here (program order
     *  within one processor holds even under RC). */
    std::unordered_map<Addr, std::deque<std::uint64_t>> pendingStores;

    /** Forward from the pending stores, else the committed value. */
    std::uint64_t readForwarded(Addr addr) const;

    Tick fetchAvail = 0;
    bool gapCharged = false;
    bool syncBusy = false;
};

} // namespace bulksc

#endif // BULKSC_CPU_RC_PROCESSOR_HH
