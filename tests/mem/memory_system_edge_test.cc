/**
 * @file
 * Edge-path tests for the memory system: the owner-fetch listener
 * hook (the dypvt Wpriv check of Section 5.2), warm-up semantics,
 * MSHR command upgrades, restoreLine's bypass fallback, and
 * directory-cache displacement broadcasts.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.hh"

namespace bulksc {
namespace {

struct Harness
{
    explicit Harness(MemParams p = MemParams{})
        : net(eq, NetworkConfig{}), mem(eq, net, p)
    {}

    EventQueue eq;
    Network net;
    MemorySystem mem;
};

struct Recorder : public CacheListener
{
    std::vector<LineAddr> ownerFetches;
    std::vector<LineAddr> wsigLines;
    unsigned wsigs = 0;
    std::vector<LineAddr> vetoed;

    void
    onExternalOwnerFetch(LineAddr l) override
    {
        ownerFetches.push_back(l);
    }
    void onRemoteWSig(const Signature &) override { ++wsigs; }
    bool
    mayVictimize(LineAddr l) override
    {
        for (LineAddr v : vetoed) {
            if (v == l)
                return false;
        }
        return true;
    }
};

TEST(MemorySystemEdge, OwnerFetchHookFires)
{
    Harness h;
    Recorder rec;
    h.mem.setListener(0, &rec);

    // Proc 0 owns the line dirty; proc 1 reads it.
    h.mem.access(0, 0x1000, MemCmd::ReadEx, nullptr);
    h.eq.run();
    h.mem.access(1, 0x1000, MemCmd::Read, nullptr);
    h.eq.run();
    ASSERT_EQ(rec.ownerFetches.size(), 1u);
    EXPECT_EQ(rec.ownerFetches[0], lineOf(0x1000));
}

TEST(MemorySystemEdge, OwnerFetchHookFiresForExclusiveToo)
{
    Harness h;
    Recorder rec;
    h.mem.setListener(0, &rec);
    h.mem.access(0, 0x2000, MemCmd::ReadEx, nullptr);
    h.eq.run();
    h.mem.access(1, 0x2000, MemCmd::ReadEx, nullptr);
    h.eq.run();
    EXPECT_EQ(rec.ownerFetches.size(), 1u);
}

TEST(MemorySystemEdge, WarmL1DirtySetsOwnership)
{
    Harness h;
    h.mem.warmL1(0, lineOf(0x3000), /*dirty=*/true);
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x3000)), LineState::Dirty);
    // A ReadEx from the warmed owner hits immediately.
    EXPECT_TRUE(
        h.mem.access(0, 0x3000, MemCmd::ReadEx, nullptr).has_value());
    // Another processor's read triggers the owner-fetch path.
    Recorder rec;
    h.mem.setListener(0, &rec);
    h.mem.access(1, 0x3000, MemCmd::Read, nullptr);
    h.eq.run();
    EXPECT_EQ(rec.ownerFetches.size(), 1u);
}

TEST(MemorySystemEdge, WarmL1SharedIsNotOwned)
{
    Harness h;
    h.mem.warmL1(0, lineOf(0x4000), /*dirty=*/false);
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x4000)), LineState::Shared);
    EXPECT_FALSE(
        h.mem.access(0, 0x4000, MemCmd::ReadEx, nullptr).has_value());
}

TEST(MemorySystemEdge, MshrUpgradeReadToReadEx)
{
    Harness h;
    // A Read miss is outstanding; a ReadEx to the same line coalesces
    // and upgrades the command, so the fill grants ownership.
    bool read_done = false, write_done = false;
    h.mem.access(0, 0x5000, MemCmd::Read, [&] { read_done = true; });
    h.mem.access(0, 0x5000, MemCmd::ReadEx,
                 [&] { write_done = true; });
    h.eq.run();
    EXPECT_TRUE(read_done);
    EXPECT_TRUE(write_done);
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x5000)), LineState::Dirty);
}

TEST(MemorySystemEdge, RestoreLineFallsBackToL2WhenVetoed)
{
    // All ways of the target set vetoed: restoreLine must park the
    // data in the L2 instead of losing it.
    MemParams p;
    p.l1 = CacheGeometry{4 * 2 * 32, 2, 32}; // 4 sets, 2 ways
    Harness h(p);
    Recorder rec;
    h.mem.setListener(0, &rec);
    h.mem.access(0, 0 * 32, MemCmd::Read, nullptr);
    h.mem.access(0, 4 * 32, MemCmd::Read, nullptr);
    h.eq.run();
    rec.vetoed = {0, 4};

    h.mem.restoreLine(0, 8); // maps to set 0; both ways vetoed
    EXPECT_FALSE(h.mem.l1Contains(0, 8));
    // The data survives in the L2: a later read is an L2 hit.
    Tick start = h.eq.now();
    Tick done = 0;
    rec.vetoed.clear();
    h.mem.access(1, 8 * 32, MemCmd::Read, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_LT(done - start, h.mem.params().memLatency);
}

TEST(MemorySystemEdge, DirCacheDisplacementBroadcastsToSharers)
{
    MemParams p;
    p.dirCacheEntries = 2;
    Harness h(p);
    Recorder rec;
    h.mem.setListener(0, &rec);

    // Proc 0 caches two lines; touching a third displaces the first
    // entry, whose one-line signature must reach proc 0.
    h.mem.access(0, 0 * 32, MemCmd::Read, nullptr);
    h.eq.run();
    h.mem.access(0, 100 * 32, MemCmd::Read, nullptr);
    h.eq.run();
    h.mem.access(1, 200 * 32, MemCmd::Read, nullptr);
    h.eq.run();
    EXPECT_GE(h.mem.dirDisplacements(), 1u);
    EXPECT_GE(rec.wsigs, 1u);
    EXPECT_FALSE(h.mem.l1Contains(0, 0));
}

TEST(MemorySystemEdge, BouncedReadEventuallyCompletes)
{
    Harness h;
    // A commit with a long-ish ack path: a concurrent read bounces
    // but completes after the W retires.
    h.mem.access(1, 0x6000, MemCmd::Read, nullptr);
    h.mem.access(0, 0x6000, MemCmd::Read, nullptr);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0x6000));
    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0x6000));
    bool commit_done = false, read_done = false;
    h.mem.bulkCommit(0, w, {lineOf(0x6000)},
                     [&] { commit_done = true; });
    h.eq.schedule(h.eq.now() + 9, [&] {
        h.mem.access(2, 0x6000, MemCmd::Read, [&] { read_done = true; });
    });
    h.eq.run();
    EXPECT_TRUE(commit_done);
    EXPECT_TRUE(read_done);
}

TEST(MemorySystemEdge, InvalidNumProcsIsFatal)
{
    EventQueue eq;
    Network net(eq, NetworkConfig{});
    MemParams p;
    p.numProcs = 0;
    EXPECT_EXIT({ MemorySystem bad(eq, net, p); },
                ::testing::ExitedWithCode(1), "numProcs");
}

} // namespace
} // namespace bulksc
