/**
 * @file
 * Unit tests for the timed memory system: hit/miss latencies, MSHR
 * coalescing and queueing, invalidation flows, bulk commit with read
 * bouncing, speculative discard, and value tracking.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <utility>
#include <vector>

#include "mem_harness.hh"

namespace bulksc {
namespace {

using memtest::Harness;
using memtest::Recorder;
using memtest::kNobody;
using memtest::tagged;

TEST(MemorySystem, MissThenHit)
{
    Harness h;
    auto lat = h.mem.access(0, 0x1000, MemCmd::Read, tagged(1));
    EXPECT_FALSE(lat.has_value());
    h.eq.run();
    ASSERT_EQ(h.recs[0].done.size(), 1u);
    EXPECT_EQ(h.recs[0].done[0].line, lineOf(0x1000));
    EXPECT_EQ(h.recs[0].done[0].op, 1u);

    auto lat2 = h.mem.access(0, 0x1000, MemCmd::Read, kNobody);
    ASSERT_TRUE(lat2.has_value());
    EXPECT_EQ(*lat2, h.mem.params().l1Latency);
}

TEST(MemorySystem, MemoryMissSlowerThanL2Hit)
{
    Harness h;
    // First access: cold, from memory.
    h.mem.access(0, 0x2000, MemCmd::Read, tagged(1));
    h.eq.run();
    ASSERT_EQ(h.recs[0].done.size(), 1u);
    EXPECT_GE(h.recs[0].done[0].when, h.mem.params().memLatency);

    // Another processor then misses to the (now warm) L2.
    Tick start = h.eq.now();
    h.mem.access(1, 0x2000, MemCmd::Read, tagged(2));
    h.eq.run();
    ASSERT_EQ(h.recs[1].done.size(), 1u);
    EXPECT_LT(h.recs[1].done[0].when - start,
              h.mem.params().memLatency);
}

TEST(MemorySystem, WarmLineMakesL2Hit)
{
    Harness h;
    h.mem.warmLine(lineOf(0x3000));
    h.mem.access(0, 0x3000, MemCmd::Read, tagged(1));
    h.eq.run();
    ASSERT_EQ(h.recs[0].done.size(), 1u);
    EXPECT_LT(h.recs[0].done[0].when, h.mem.params().memLatency);
}

TEST(MemorySystem, ReadExHitRequiresOwnership)
{
    Harness h;
    h.mem.access(0, 0x4000, MemCmd::Read, kNobody);
    h.eq.run();
    // Shared copy present: a Read hits but a ReadEx does not.
    EXPECT_TRUE(h.mem.access(0, 0x4000, MemCmd::Read, kNobody)
                    .has_value());
    auto lat = h.mem.access(0, 0x4000, MemCmd::ReadEx, tagged(1));
    EXPECT_FALSE(lat.has_value());
    h.eq.run();
    EXPECT_EQ(h.recs[0].done.size(), 1u);
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0x4000), true));
}

TEST(MemorySystem, ReadExInvalidatesSharers)
{
    Harness h;
    Recorder &rec = h.recs[1];
    h.mem.access(1, 0x5000, MemCmd::Read, kNobody);
    h.eq.run();
    ASSERT_TRUE(h.mem.l1Contains(1, lineOf(0x5000)));

    h.mem.access(0, 0x5000, MemCmd::ReadEx, kNobody);
    h.eq.run();
    EXPECT_FALSE(h.mem.l1Contains(1, lineOf(0x5000)));
    ASSERT_EQ(rec.invals.size(), 1u);
    EXPECT_EQ(rec.invals[0], lineOf(0x5000));
}

TEST(MemorySystem, DirtyOwnerSuppliesData)
{
    Harness h;
    h.mem.access(0, 0x6000, MemCmd::ReadEx, kNobody);
    h.eq.run();
    ASSERT_TRUE(h.mem.l1Contains(0, lineOf(0x6000), true));

    h.mem.access(1, 0x6000, MemCmd::Read, tagged(1));
    h.eq.run();
    EXPECT_EQ(h.recs[1].done.size(), 1u);
    // Owner downgraded to Shared.
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x6000)), LineState::Shared);
}

TEST(MemorySystem, MshrCoalescingSingleFetch)
{
    Harness h;
    h.mem.access(0, 0x7000, MemCmd::Read, tagged(1));
    h.mem.access(0, 0x7008, MemCmd::Read, tagged(2));
    h.mem.access(0, 0x7010, MemCmd::Read, tagged(3));
    std::uint64_t msgs_before = h.net.messages();
    h.eq.run();
    EXPECT_EQ(h.recs[0].done.size(), 3u);
    // One request + one response (same line), not three.
    EXPECT_LE(h.net.messages() - msgs_before, 2u);
}

TEST(MemorySystem, MshrQueueingBeyondCapacity)
{
    MemParams p;
    p.l1Mshrs = 2;
    Harness h(p);
    for (std::uint32_t i = 0; i < 6; ++i)
        h.mem.access(0, 0x10000 + i * 64, MemCmd::Read, tagged(i));
    h.eq.run();
    EXPECT_EQ(h.recs[0].done.size(), 6u);
}

TEST(MemorySystem, WaitersCompleteInIssueOrder)
{
    MemParams p;
    p.l1Mshrs = 2;
    Harness h(p);
    const Addr a = 0x20000, b = 0x20040, c = 0x20080, hit = 0x200c0;
    h.mem.warmL1(0, lineOf(hit), /*dirty=*/false);
    auto misses = [&](ProcId q, Addr addr, MemCmd cmd, AccessTag tag) {
        return !h.mem.access(q, addr, cmd, tag).has_value();
    };

    // a and b take both MSHRs; c waits for one. A waiter coalesces on
    // the sent a and two on the waiting c (one strengthening it).
    EXPECT_TRUE(misses(0, a, MemCmd::Read, tagged(1)));
    EXPECT_TRUE(misses(0, b, MemCmd::Read, tagged(2)));
    EXPECT_TRUE(misses(0, c, MemCmd::Read, tagged(3)));
    EXPECT_TRUE(misses(0, a + 8, MemCmd::Read, tagged(4)));
    EXPECT_TRUE(misses(0, c + 8, MemCmd::ReadEx, tagged(5)));
    EXPECT_TRUE(misses(0, c + 16, MemCmd::Read, tagged(6)));
    EXPECT_TRUE(misses(0, b + 8, MemCmd::Read, kNobody));
    // A hit's tag is the requester's to report, never the memory's.
    EXPECT_TRUE(h.mem.access(0, hit, MemCmd::Read, tagged(7)).has_value());
    h.eq.run();

    const auto &done = h.recs[0].done;
    ASSERT_EQ(done.size(), 6u);
    const std::uint32_t want_op[] = {1, 4, 2, 3, 5, 6};
    const Addr want_addr[] = {a, a, b, c, c, c};
    for (std::size_t i = 0; i < done.size(); ++i) {
        SCOPED_TRACE("report " + std::to_string(i));
        EXPECT_EQ(done[i].op, want_op[i]);
        EXPECT_EQ(done[i].line, lineOf(want_addr[i]));
        // Reported at the fill: the line is already installed.
        EXPECT_TRUE(done[i].installed);
    }
    EXPECT_EQ(done[1].when, done[0].when);
    EXPECT_LE(done[0].when, done[2].when);
    // c was sent only when a's fill freed an MSHR.
    EXPECT_GT(done[3].when, done[0].when);
    EXPECT_EQ(done[4].when, done[3].when);
    EXPECT_EQ(done[5].when, done[3].when);
    EXPECT_EQ(h.mem.l1State(0, lineOf(c)), LineState::Dirty);

    // An invalidation overtakes proc 1's fill of x: proc 0 commits a
    // write to x, and W reaches proc 1 (a sharer since its read reached
    // the directory) while memory still supplies the line. A one-way
    // L2 lets a conflicting line push x out to memory. Both waiters
    // are reported once, at the fill, which installs nothing.
    MemParams q;
    q.l2 = CacheGeometry{4 * 32, 1, 32};
    Harness h2(q);
    const LineAddr x = lineOf(0x30000);
    h2.mem.warmL1(0, x, /*dirty=*/false);
    h2.mem.warmLine(x + 4);
    auto w = std::make_shared<Signature>();
    w->insert(x);
    EXPECT_FALSE(h2.mem.access(1, x * 32, MemCmd::Read, tagged(8))
                     .has_value());
    EXPECT_FALSE(h2.mem.access(1, x * 32 + 8, MemCmd::Read, tagged(9))
                     .has_value());
    h2.eq.schedule(h2.eq.now() + 50,
                   [&] { h2.mem.bulkCommit(0, 1, w, {x}); });
    h2.eq.run();
    EXPECT_EQ(h2.mem.bouncedReads(), 0u);
    EXPECT_EQ(h2.recs[1].wsigs, 1u);
    const auto &done1 = h2.recs[1].done;
    ASSERT_EQ(done1.size(), 2u);
    EXPECT_EQ(done1[0].op, 8u);
    EXPECT_EQ(done1[1].op, 9u);
    EXPECT_EQ(done1[1].when, done1[0].when);
    EXPECT_GE(done1[0].when, q.memLatency);
    EXPECT_FALSE(done1[0].installed);
    EXPECT_FALSE(h2.mem.l1Contains(1, x));
}

TEST(MemorySystem, MarkDirtyAndState)
{
    Harness h;
    h.mem.access(0, 0x8000, MemCmd::Read, kNobody);
    h.eq.run();
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x8000)), LineState::Shared);
    h.mem.markDirty(0, lineOf(0x8000));
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x8000)), LineState::Dirty);
}

TEST(MemorySystem, ValueTracking)
{
    Harness h;
    EXPECT_EQ(h.mem.readValue(0x42), 0u);
    h.mem.writeValue(0x42, 1234);
    EXPECT_EQ(h.mem.readValue(0x42), 1234u);
}

TEST(MemorySystem, BulkCommitForwardsWToSharers)
{
    Harness h;
    Recorder &rec0 = h.recs[0], &rec1 = h.recs[1];

    // Proc 1 shares the line; proc 0 wrote it speculatively.
    h.mem.access(1, 0x9000, MemCmd::Read, kNobody);
    h.mem.access(0, 0x9000, MemCmd::Read, kNobody);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0x9000));

    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0x9000));
    h.mem.bulkCommit(0, /*tag=*/7, w, {lineOf(0x9000)});
    h.eq.run();

    ASSERT_EQ(rec0.commitsDone.size(), 1u);
    EXPECT_EQ(rec0.commitsDone[0].first, 7u);
    EXPECT_EQ(rec0.commitsDone[0].second, 1u); // nodes sent W
    EXPECT_EQ(rec1.wsigs, 1u);
    EXPECT_FALSE(h.mem.l1Contains(1, lineOf(0x9000)));
    // Committer now owns the line per the directory.
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0x9000), true));
}

TEST(MemorySystem, EmptyWCommitCompletesImmediately)
{
    Harness h;
    Recorder &rec = h.recs[0];
    h.mem.bulkCommit(0, 1, std::make_shared<Signature>(), {});
    EXPECT_EQ(rec.commitsDone.size(), 1u);
}

TEST(MemorySystem, ReadsBouncedDuringCommit)
{
    Harness h;
    h.mem.access(1, 0xA000, MemCmd::Read, kNobody);
    h.mem.access(0, 0xA000, MemCmd::Read, kNobody);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0xA000));

    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0xA000));
    h.mem.bulkCommit(0, 1, w, {lineOf(0xA000)});
    // Issue a read timed to land at the directory while the commit's
    // W is registered there: it must be bounced at least once.
    h.eq.schedule(h.eq.now() + 10, [&] {
        h.mem.access(2, 0xA000, MemCmd::Read, kNobody);
    });
    h.eq.run();
    EXPECT_GE(h.mem.bouncedReads(), 1u);
    // It still completes eventually.
    EXPECT_TRUE(h.mem.l1Contains(2, lineOf(0xA000)));
}

TEST(MemorySystem, DiscardSpeculativeDropsOnlyMembers)
{
    Harness h;
    h.mem.access(0, 0xB000, MemCmd::Read, kNobody);
    h.mem.access(0, 0xB040, MemCmd::Read, kNobody);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0xB000));

    Signature w;
    w.insert(lineOf(0xB000));
    h.mem.l1DiscardSpeculative(0, w, {lineOf(0xB000)});
    EXPECT_FALSE(h.mem.l1Contains(0, lineOf(0xB000)));
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0xB040)));
}

/** BSCdypvt memory with 512-bit, 4-bank signatures: 128 bits per
 *  bank, half the default L1's 256 sets. */
MemParams
narrowBankParams()
{
    MemParams p;
    p.bulkMode = true;
    p.sigCfg.totalBits = 512;
    p.sigCfg.numBanks = 4;
    return p;
}

/** Lines whose L1 set (line % 256) lies above the 128-bit bank-0
 *  index range; 386 shares set 130 with line 130. */
const std::vector<LineAddr> kHighSetLines = {130, 200, 255, 386};

TEST(MemorySystem, NarrowBankBulkInvalidationProbesEverySet)
{
    Harness h(narrowBankParams());
    Recorder &rec0 = h.recs[0];
    auto w = std::make_shared<Signature>(h.mem.params().sigCfg);
    std::unordered_set<LineAddr> w_lines;
    for (LineAddr l : kHighSetLines) {
        h.mem.access(1, l * kDefaultLineBytes, MemCmd::Read, kNobody);
        h.mem.access(0, l * kDefaultLineBytes, MemCmd::Read, kNobody);
        w->insert(l);
        w_lines.insert(l);
    }
    h.eq.run();
    for (LineAddr l : kHighSetLines) {
        ASSERT_TRUE(h.mem.l1Contains(1, l));
        h.mem.markDirty(0, l);
    }

    h.mem.bulkCommit(0, 1, w, w_lines);
    h.eq.run();
    ASSERT_EQ(rec0.commitsDone.size(), 1u);
    for (LineAddr l : w->exactLines())
        EXPECT_FALSE(h.mem.l1Contains(1, l)) << "line " << l;
}

TEST(MemorySystem, NarrowBankSquashDiscardProbesEverySet)
{
    Harness h(narrowBankParams());
    Signature w(h.mem.params().sigCfg);
    std::unordered_set<LineAddr> spec_lines;
    for (LineAddr l : kHighSetLines) {
        h.mem.access(0, l * kDefaultLineBytes, MemCmd::Read, kNobody);
        w.insert(l);
        spec_lines.insert(l);
    }
    h.eq.run();
    for (LineAddr l : kHighSetLines)
        h.mem.markDirty(0, l);

    h.mem.l1DiscardSpeculative(0, w, spec_lines);
    for (LineAddr l : w.exactLines())
        EXPECT_FALSE(h.mem.l1Contains(0, l)) << "line " << l;
}

TEST(MemorySystem, RestoreLineReinsertsDirty)
{
    Harness h;
    h.mem.access(0, 0xC000, MemCmd::ReadEx, kNobody); // proc 0 owns it
    h.eq.run();
    h.mem.restoreLine(0, lineOf(0xC000));
    EXPECT_EQ(h.mem.l1State(0, lineOf(0xC000)), LineState::Dirty);
}

TEST(MemorySystem, RestoreLineAfterOwnerFetchKeepsDirectoryState)
{
    // Proc 0 owns the line; proc 1's read downgrades it and writes it
    // back. A restore must not bring back the ownership the directory
    // gave away.
    Harness h;
    const LineAddr line = lineOf(0xC000);
    h.mem.access(0, 0xC000, MemCmd::ReadEx, kNobody);
    h.eq.run();
    h.mem.access(1, 0xC000, MemCmd::Read, kNobody);
    h.eq.run();
    ASSERT_EQ(h.recs[0].ownerFetches.size(), 1u);
    h.mem.restoreLine(0, line);
    EXPECT_NE(h.mem.l1State(0, line), LineState::Dirty);
    const DirEntry *e = h.mem.peekDir(line);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->dirty);
}

TEST(MemorySystem, WritebackLineKeepsL1Copy)
{
    Harness h;
    h.mem.access(0, 0xD000, MemCmd::ReadEx, kNobody);
    h.eq.run();
    std::uint64_t wb = h.mem.writebacks();
    h.mem.writebackLine(0, lineOf(0xD000));
    EXPECT_EQ(h.mem.writebacks(), wb + 1);
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0xD000)));
}

TEST(MemorySystem, VictimFilterPreventsDisplacement)
{
    // Fill one L1 set completely with vetoed lines; the next fill to
    // that set must bypass (fillBypasses counts it).
    MemParams p;
    p.l1 = CacheGeometry{4 * 2 * 32, 2, 32}; // 4 sets, 2 ways
    Harness h(p);
    Recorder &rec = h.recs[0];
    rec.vetoed = {lineOf(Addr{0} * 32), lineOf(Addr{4} * 32)};

    h.mem.access(0, 0 * 32, MemCmd::Read, kNobody);
    h.mem.access(0, 4 * 32, MemCmd::Read, kNobody);
    h.eq.run();
    std::uint64_t before = h.mem.fillBypasses();
    h.mem.access(0, 8 * 32, MemCmd::Read, kNobody);
    h.eq.run();
    EXPECT_EQ(h.mem.fillBypasses(), before + 1);
    EXPECT_TRUE(h.mem.l1Contains(0, 0));
    EXPECT_TRUE(h.mem.l1Contains(0, 4));
}

TEST(MemorySystem, RacingFillDoesNotResurrectInvalidatedLine)
{
    // Regression test for a protocol race: proc 1's read fill is in
    // flight when proc 0's chunk commits a write to the same line.
    // The bulk invalidation arrives before the fill; without fill
    // cancellation the fill would install a copy the directory no
    // longer tracks — and future commits would skip invalidating it
    // (a genuine SC hole, observed as a lost barrier increment).
    Harness h;
    h.mem.warmL1(0, lineOf(0xF100), /*dirty=*/false);
    h.mem.markDirty(0, lineOf(0xF100));

    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0xF100));

    // Issue the read and the commit into the same race window.
    h.mem.access(1, 0xF100, MemCmd::Read, kNobody);
    h.mem.bulkCommit(0, 1, w, {lineOf(0xF100)});
    h.eq.run();

    // Invariant: any cached copy must be visible to the directory.
    const DirEntry *e = h.mem.peekDir(lineOf(0xF100));
    ASSERT_NE(e, nullptr);
    if (h.mem.l1Contains(1, lineOf(0xF100)))
        EXPECT_TRUE(e->isSharer(1));
    else
        EXPECT_FALSE(e->isSharer(1));
}

TEST(MemorySystem, BaselineInvalRaceAlsoCancelled)
{
    // Same race through the baseline ReadEx invalidation path.
    Harness h;
    h.mem.warmL1(1, lineOf(0xF200), false);
    // Proc 1 refetches after losing the line, while proc 0 upgrades.
    h.mem.access(2, 0xF200, MemCmd::Read, kNobody); // extra sharer
    h.eq.run();
    h.mem.access(1, 0xF200, MemCmd::Read, kNobody);
    h.mem.access(0, 0xF200, MemCmd::ReadEx, kNobody);
    h.eq.run();
    const DirEntry *e = h.mem.peekDir(lineOf(0xF200));
    ASSERT_NE(e, nullptr);
    for (ProcId p = 0; p < 3; ++p) {
        if (h.mem.l1Contains(p, lineOf(0xF200))) {
            EXPECT_TRUE(e->isSharer(p)) << "proc " << p;
        }
    }
}

TEST(MemorySystem, StatsDumpContainsKeys)
{
    Harness h;
    h.mem.access(0, 0xE000, MemCmd::Read, kNobody);
    h.eq.run();
    StatGroup sg;
    h.mem.dumpStats(sg);
    EXPECT_TRUE(sg.has("mem.l1_hits"));
    EXPECT_TRUE(sg.has("mem.l1_misses"));
    EXPECT_TRUE(sg.has("mem.bounced_reads"));
}

} // namespace
} // namespace bulksc
