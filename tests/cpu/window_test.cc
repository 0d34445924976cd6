/**
 * @file
 * Tests of the memory-op window that ProcessorBase keeps for every core:
 * completions are matched by (op, id) so a stale one never lands on a
 * re-issued entry, issue stalls at the window and ROB limits, and a
 * rollback drops exactly the entries at or after its target.
 */

#include <gtest/gtest.h>

#include "cpu/processor_base.hh"

namespace bulksc {
namespace {

/** A one-core harness that drives the base's window by hand. */
class WindowCore : public ProcessorBase
{
  public:
    using ProcessorBase::ProcessorBase;
    using ProcessorBase::completeEntry;
    using ProcessorBase::fetchOp;
    using ProcessorBase::nextOp;
    using ProcessorBase::retireWindow;
    using ProcessorBase::rollBack;
    using ProcessorBase::windowFull;

    /** Issue the op at pos into the window under @p id. */
    void
    issue(std::uint64_t id, bool completed = false)
    {
        fetchOp();
        window.push_back({pos, lineOf(trace.ops[pos].addr), id, completed});
        nextOp();
    }

    const std::deque<WinEntry> &entries() const { return window; }
    std::size_t at() const { return pos; }
    std::uint32_t currentEpoch() const { return epoch; }

    unsigned advances = 0;

  protected:
    void advance() override { ++advances; }
    void syncDone() override {}
};

Trace
loads(std::size_t n, std::uint32_t gap)
{
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        Op op;
        op.type = OpType::Load;
        op.addr = 0x1000 + 64 * i;
        op.gap = gap;
        t.ops.push_back(op);
    }
    t.finalize();
    return t;
}

struct Harness
{
    explicit Harness(Trace t, CpuParams p = CpuParams{})
        : trace(std::move(t)), net(eq, NetworkConfig{}),
          mem(eq, net, MemParams{}),
          core(eq, "cpu0", 0, mem, trace, p)
    {}

    EventQueue eq;
    Trace trace;
    Network net;
    MemorySystem mem;
    WindowCore core;
};

TEST(Window, StaleCompletionIsIgnored)
{
    Harness h(loads(4, 3));
    WindowCore &c = h.core;
    for (int i = 0; i < 3; ++i)
        c.issue(c.currentEpoch());
    c.rollBack(1);
    ASSERT_EQ(c.currentEpoch(), 1u);
    c.issue(c.currentEpoch()); // op 1 again, in epoch 1

    // The completion of op 1's epoch-0 access finds no entry, and the
    // re-issued entry stays incomplete.
    EXPECT_FALSE(c.completeEntry(1, 0));
    ASSERT_EQ(c.entries().size(), 2u);
    EXPECT_EQ(c.entries()[1].opIdx, 1u);
    EXPECT_FALSE(c.entries()[1].completed);
    // An id names one entry: op 0's completion leaves op 1 alone.
    EXPECT_TRUE(c.completeEntry(0, 0));
    EXPECT_FALSE(c.entries()[1].completed);
    EXPECT_TRUE(c.completeEntry(1, 1));
    EXPECT_TRUE(c.entries()[1].completed);
    // Both retire: two ops of 4 instructions (3 of gap) each.
    EXPECT_EQ(c.retireWindow(), 8u);
    EXPECT_TRUE(c.entries().empty());
}

TEST(Window, FullAtWindowOps)
{
    CpuParams p;
    p.windowOps = 4;
    p.robInstrs = 1000;
    Harness h(loads(8, 0), p);
    WindowCore &c = h.core;
    for (unsigned i = 0; i < p.windowOps; ++i) {
        EXPECT_FALSE(c.windowFull()) << "entry " << i;
        c.issue(0);
    }
    EXPECT_TRUE(c.windowFull());
    c.completeEntry(0, 0);
    EXPECT_EQ(c.retireWindow(), 1u);
    EXPECT_FALSE(c.windowFull());
}

TEST(Window, FullAtRobDistance)
{
    CpuParams p;
    p.windowOps = 56;
    p.robInstrs = 10;
    Harness h(loads(8, 4), p); // 5 instructions per op
    WindowCore &c = h.core;
    c.issue(0);
    EXPECT_FALSE(c.windowFull()); // 5 instructions from the head
    c.issue(0);
    EXPECT_TRUE(c.windowFull()); // 10: the ROB is full
    c.completeEntry(0, 0);
    EXPECT_EQ(c.retireWindow(), 5u);
    EXPECT_FALSE(c.windowFull());
    // An incomplete head keeps the distance: nothing retires.
    EXPECT_EQ(c.retireWindow(), 0u);
    c.issue(0);
    EXPECT_TRUE(c.windowFull());
}

TEST(Window, RollBackDropsExactlyTheEntriesFromTheTarget)
{
    CpuParams p;
    Harness h(loads(8, 2), p);
    WindowCore &c = h.core;
    for (int i = 0; i < 6; ++i)
        c.issue(7, i % 2 == 0);
    c.rollBack(3);
    ASSERT_EQ(c.entries().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(c.entries()[i].opIdx, i);
    EXPECT_EQ(c.at(), 3u);
    EXPECT_EQ(c.currentEpoch(), 1u);

    // Advance resumes after the squash penalty.
    EXPECT_EQ(c.advances, 0u);
    h.eq.run();
    EXPECT_EQ(c.advances, 1u);
    EXPECT_EQ(h.eq.now(), p.squashPenalty);

    // Rolling back past the tail drops nothing.
    c.rollBack(5);
    EXPECT_EQ(c.entries().size(), 3u);
    c.rollBack(0);
    EXPECT_TRUE(c.entries().empty());
}

TEST(Window, FrontEndChargesEachFetchOnce)
{
    CpuParams p;
    p.issueWidth = 1;
    Harness h(loads(4, 9), p); // 10 instructions per op
    WindowCore &c = h.core;
    EXPECT_EQ(c.fetchOp(), 10u);
    EXPECT_EQ(c.fetchOp(), 10u); // charged once
    c.nextOp();
    EXPECT_EQ(c.fetchOp(), 20u);
    // A rollback before op 1 issues re-fetches op 0: charged again.
    c.rollBack(0);
    EXPECT_EQ(c.at(), 0u);
    EXPECT_EQ(c.fetchOp(), 30u);
}

} // namespace
} // namespace bulksc
