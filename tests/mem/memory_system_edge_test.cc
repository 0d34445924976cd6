/**
 * @file
 * Edge-path tests for the memory system: the owner-fetch listener
 * hook (the dypvt Wpriv check of Section 5.2), warm-up semantics,
 * MSHR command upgrades, restoreLine's bypass fallback, and
 * directory-cache displacement broadcasts.
 */

#include <gtest/gtest.h>

#include "mem_harness.hh"
#include "sim/event_trace.hh"
#include "sim/fault_plane.hh"

namespace bulksc {
namespace {

using memtest::Harness;
using memtest::Recorder;
using memtest::kNobody;
using memtest::tagged;

TEST(MemorySystemEdge, OwnerFetchHookFires)
{
    Harness h;
    Recorder &rec = h.recs[0];

    // Proc 0 owns the line dirty; proc 1 reads it.
    h.mem.access(0, 0x1000, MemCmd::ReadEx, kNobody);
    h.eq.run();
    h.mem.access(1, 0x1000, MemCmd::Read, kNobody);
    h.eq.run();
    ASSERT_EQ(rec.ownerFetches.size(), 1u);
    EXPECT_EQ(rec.ownerFetches[0], lineOf(0x1000));
}

TEST(MemorySystemEdge, OwnerFetchHookFiresForExclusiveToo)
{
    Harness h;
    Recorder &rec = h.recs[0];
    h.mem.access(0, 0x2000, MemCmd::ReadEx, kNobody);
    h.eq.run();
    h.mem.access(1, 0x2000, MemCmd::ReadEx, kNobody);
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
        h.mem.access(0, 0x3000, MemCmd::ReadEx, kNobody).has_value());
    // Another processor's read triggers the owner-fetch path.
    Recorder &rec = h.recs[0];
    h.mem.access(1, 0x3000, MemCmd::Read, kNobody);
    h.eq.run();
    EXPECT_EQ(rec.ownerFetches.size(), 1u);
}

TEST(MemorySystemEdge, WarmL1SharedIsNotOwned)
{
    Harness h;
    h.mem.warmL1(0, lineOf(0x4000), /*dirty=*/false);
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x4000)), LineState::Shared);
    EXPECT_FALSE(
        h.mem.access(0, 0x4000, MemCmd::ReadEx, kNobody).has_value());
}

TEST(MemorySystemEdge, MshrUpgradeReadToReadEx)
{
    Harness h;
    // A Read miss is outstanding; a ReadEx to the same line coalesces
    // and upgrades the command, so the fill grants ownership.
    h.mem.access(0, 0x5000, MemCmd::Read, tagged(1));
    h.mem.access(0, 0x5000, MemCmd::ReadEx, tagged(2));
    h.eq.run();
    ASSERT_EQ(h.recs[0].done.size(), 2u);
    EXPECT_EQ(h.recs[0].done[0].op, 1u);
    EXPECT_EQ(h.recs[0].done[1].op, 2u);
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x5000)), LineState::Dirty);
}

TEST(MemorySystemEdge, RestoreLineFallsBackToL2WhenVetoed)
{
    // All ways of the target set vetoed: restoreLine must park the
    // data in the L2 instead of losing it.
    MemParams p;
    p.l1 = CacheGeometry{4 * 2 * 32, 2, 32}; // 4 sets, 2 ways
    Harness h(p);
    Recorder &rec = h.recs[0];
    h.mem.access(0, 0 * 32, MemCmd::Read, kNobody);
    h.mem.access(0, 4 * 32, MemCmd::Read, kNobody);
    h.eq.run();
    rec.vetoed = {0, 4};
    // Proc 0 owns line 8 without holding it: its fill bypassed the
    // vetoed set.
    h.mem.access(0, 8 * 32, MemCmd::ReadEx, kNobody);
    h.eq.run();
    ASSERT_FALSE(h.mem.l1Contains(0, 8));

    h.mem.restoreLine(0, 8); // maps to set 0; both ways vetoed
    EXPECT_FALSE(h.mem.l1Contains(0, 8));
    // The data survives in the L2: a later read is an L2 hit.
    Tick start = h.eq.now();
    rec.vetoed.clear();
    h.mem.access(1, 8 * 32, MemCmd::Read, tagged(1));
    h.eq.run();
    ASSERT_EQ(h.recs[1].done.size(), 1u);
    EXPECT_LT(h.recs[1].done[0].when - start,
              h.mem.params().memLatency);
}

TEST(MemorySystemEdge, DirCacheDisplacementBroadcastsToSharers)
{
    MemParams p;
    p.dirCacheEntries = 2;
    Harness h(p);
    Recorder &rec = h.recs[0];

    // Proc 0 caches two lines; touching a third displaces the first
    // entry, whose one-line signature must reach proc 0.
    h.mem.access(0, 0 * 32, MemCmd::Read, kNobody);
    h.eq.run();
    h.mem.access(0, 100 * 32, MemCmd::Read, kNobody);
    h.eq.run();
    h.mem.access(1, 200 * 32, MemCmd::Read, kNobody);
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
    h.mem.access(1, 0x6000, MemCmd::Read, kNobody);
    h.mem.access(0, 0x6000, MemCmd::Read, kNobody);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0x6000));
    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0x6000));
    h.mem.bulkCommit(0, 1, w, {lineOf(0x6000)});
    h.eq.schedule(h.eq.now() + 9, [&] {
        h.mem.access(2, 0x6000, MemCmd::Read, tagged(1));
    });
    h.eq.run();
    EXPECT_EQ(h.recs[0].commitsDone.size(), 1u);
    EXPECT_EQ(h.recs[2].done.size(), 1u);
}

/**
 * A hardened memory system whose commit W messages (WrSig) all arrive
 * 600 ticks late: the committer's timer resends W before the first
 * copy lands. No other processor caches the line, so a commit
 * completes right after its expansion.
 */
struct LateCommitW
{
    explicit LateCommitW(unsigned max_resend)
    {
        std::vector<FaultPoint> pts;
        std::string err;
        EXPECT_TRUE(FaultPlane::parseSpec("net.delay/WrSig=1:600:600",
                                          pts, err))
            << err;
        faults.configure(std::move(pts), 1);
        h.net.setFaultPlane(&faults);
        h.mem.setFaultPlane(&faults);
        h.mem.harden(ResendConfig{max_resend, 64, 1024});
        h.eq.setTrace(&trace);
        h.mem.warmL1(0, lineOf(0x7000), /*dirty=*/false);
        h.mem.markDirty(0, lineOf(0x7000));
        w->insert(lineOf(0x7000));
    }

    double
    stat(const std::string &key) const
    {
        StatGroup sg;
        h.mem.dumpStats(sg);
        return sg.get(key);
    }

    Harness h;
    FaultPlane faults;
    EventTrace trace{~std::uint32_t{0}};
    Recorder &rec = h.recs[0];
    std::shared_ptr<Signature> w = std::make_shared<Signature>();
};

TEST(MemorySystemEdge, CommitWDeliveredAfterResendGiveUpCompletes)
{
    // Copies leave at ~0 and ~64; the directory gives up before the
    // first lands at ~600. The straggler still completes the commit.
    LateCommitW t(/*max_resend=*/1);
    t.h.mem.bulkCommit(0, 1, t.w, {lineOf(0x7000)});
    t.h.eq.run();
    EXPECT_EQ(t.stat("mem.commit_abandoned"), 1.0);
    EXPECT_EQ(t.rec.commitsDone.size(), 1u);
    EXPECT_EQ(t.trace.count(TraceEventType::DirExpand), 1u);
}

TEST(MemorySystemEdge, DuplicateWAfterCommitCompletedIsIgnored)
{
    // Copies leave at ~0, ~64 and ~192; the first completes the
    // commit at ~600 and the later two arrive after it: neither may
    // expand W again nor leave it registered to bounce reads.
    LateCommitW t(/*max_resend=*/2);
    t.h.mem.bulkCommit(0, 1, t.w, {lineOf(0x7000)});
    t.h.eq.run();
    EXPECT_EQ(t.stat("mem.commit_resends"), 2.0);
    EXPECT_EQ(t.rec.commitsDone.size(), 1u);
    EXPECT_EQ(t.trace.count(TraceEventType::DirExpand), 1u);
    Tick expanded = 0;
    for (const TraceEvent &e : t.trace.snapshot()) {
        if (e.type == TraceEventType::DirExpand)
            expanded = e.tick;
    }
    EXPECT_GT(t.h.eq.now(), expanded + 100); // the late copies landed

    t.h.mem.access(1, 0x7000, MemCmd::Read, tagged(1));
    t.h.eq.run();
    EXPECT_EQ(t.h.recs[1].done.size(), 1u);
    EXPECT_EQ(t.h.mem.bouncedReads(), 0u);
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
