/**
 * @file
 * Unit tests for the set-associative tag array: lookup, LRU
 * replacement, victim filtering (the BDM's speculative-line
 * protection), set iteration, fingerprints, and tag-buffer reuse.
 */

#include <gtest/gtest.h>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

#include "mem/cache_array.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

CacheGeometry
tinyGeom()
{
    // 4 sets, 2 ways, 32 B lines.
    return CacheGeometry{4 * 2 * 32, 2, 32};
}

TEST(CacheGeometry, DerivedQuantities)
{
    CacheGeometry g{32 * 1024, 4, 32};
    EXPECT_EQ(g.numLines(), 1024u);
    EXPECT_EQ(g.numSets(), 256u);
    EXPECT_EQ(g.setMask(), 255u);
    EXPECT_EQ(g.lineShift(), 5u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray c(tinyGeom());
    EXPECT_EQ(c.lookup(7), nullptr);
    std::optional<Victim> vic;
    c.insert(7, LineState::Shared, nullptr, vic);
    EXPECT_FALSE(vic.has_value());
    CacheLine *l = c.lookup(7);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, LineState::Shared);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    // Lines 0, 4, 8 all map to set 0 (4 sets); 2 ways.
    c.insert(0, LineState::Shared, nullptr, vic);
    c.insert(4, LineState::Shared, nullptr, vic);
    c.lookup(0); // 0 is now MRU; 4 is LRU
    c.insert(8, LineState::Shared, nullptr, vic);
    ASSERT_TRUE(vic.has_value());
    EXPECT_EQ(vic->line, 4u);
    EXPECT_FALSE(vic->dirty);
    EXPECT_NE(c.peek(0), nullptr);
    EXPECT_EQ(c.peek(4), nullptr);
    EXPECT_NE(c.peek(8), nullptr);
}

TEST(CacheArray, CleanVictimPreferredOverDirty)
{
    // Clean-first LRU: the dirty line survives while a clean line is
    // available, even though the dirty one is least recently used.
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    c.insert(0, LineState::Dirty, nullptr, vic);
    c.insert(4, LineState::Shared, nullptr, vic);
    c.insert(8, LineState::Shared, nullptr, vic);
    ASSERT_TRUE(vic.has_value());
    EXPECT_EQ(vic->line, 4u);
    EXPECT_FALSE(vic->dirty);
    EXPECT_NE(c.peek(0), nullptr);
}

TEST(CacheArray, DirtyVictimFlaggedWhenSetAllDirty)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    c.insert(0, LineState::Dirty, nullptr, vic);
    c.insert(4, LineState::Dirty, nullptr, vic);
    c.insert(8, LineState::Shared, nullptr, vic);
    ASSERT_TRUE(vic.has_value());
    EXPECT_EQ(vic->line, 0u);
    EXPECT_TRUE(vic->dirty);
}

TEST(CacheArray, VictimFilterProtectsLines)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    c.insert(0, LineState::Dirty, nullptr, vic);
    c.insert(4, LineState::Shared, nullptr, vic);
    // Line 0 is "speculative": the filter vetoes it, so 4 is evicted
    // even though 0 is LRU.
    auto filter = [](LineAddr l) { return l != 0; };
    c.insert(8, LineState::Shared, filter, vic);
    ASSERT_TRUE(vic.has_value());
    EXPECT_EQ(vic->line, 4u);
    EXPECT_NE(c.peek(0), nullptr);
}

TEST(CacheArray, InsertFailsWhenAllWaysVetoed)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    c.insert(0, LineState::Dirty, nullptr, vic);
    c.insert(4, LineState::Dirty, nullptr, vic);
    auto veto_all = [](LineAddr) { return false; };
    CacheLine *l = c.insert(8, LineState::Shared, veto_all, vic);
    EXPECT_EQ(l, nullptr);
    EXPECT_FALSE(vic.has_value());
}

TEST(CacheArray, ReinsertUpdatesInPlace)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    c.insert(3, LineState::Shared, nullptr, vic);
    c.insert(3, LineState::Dirty, nullptr, vic);
    EXPECT_FALSE(vic.has_value());
    EXPECT_EQ(c.peek(3)->state, LineState::Dirty);
}

TEST(CacheArray, InvalidateReturnsPriorState)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    c.insert(5, LineState::Dirty, nullptr, vic);
    EXPECT_EQ(c.invalidate(5), LineState::Dirty);
    EXPECT_EQ(c.invalidate(5), LineState::Invalid);
    EXPECT_EQ(c.peek(5), nullptr);
}

TEST(CacheArray, ForEachInSetVisitsValidLines)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    c.insert(0, LineState::Shared, nullptr, vic);
    c.insert(4, LineState::Dirty, nullptr, vic);
    unsigned n = 0;
    c.forEachInSet(0, [&](const CacheLine &) { ++n; });
    EXPECT_EQ(n, 2u);
    n = 0;
    c.forEachInSet(1, [&](const CacheLine &) { ++n; });
    EXPECT_EQ(n, 0u);
}

/** Valid lines of @p c, counted set by set. */
unsigned
countLines(const CacheArray &c)
{
    unsigned n = 0;
    for (std::uint32_t s = 0; s < c.geometry().numSets(); ++s)
        c.forEachInSet(s, [&](const CacheLine &) { ++n; });
    return n;
}

TEST(CacheArray, ForEachVisitsWholeArray)
{
    CacheArray c(tinyGeom());
    std::optional<Victim> vic;
    for (LineAddr l = 0; l < 6; ++l)
        c.insert(l, LineState::Shared, nullptr, vic);
    EXPECT_EQ(countLines(c), 6u);
}

/** Fingerprint folded over every set, independent of which sets the
 *  array believes it has filled. */
std::uint64_t
referenceFingerprint(const CacheArray &c)
{
    std::uint64_t h = 0;
    for (std::uint32_t s = 0; s < c.geometry().numSets(); ++s) {
        c.forEachInSet(s, [&](const CacheLine &l) {
            h += mix64(l.line * 4 + static_cast<std::uint64_t>(l.state));
        });
    }
    return h;
}

TEST(CacheArray, FingerprintMatchesFullFoldUnderRandomOps)
{
    // 16 sets x 4 ways; 256 candidate lines force evictions.
    CacheArray c(CacheGeometry{16 * 4 * 32, 4, 32});
    Rng rng(61);
    std::optional<Victim> vic;
    for (int step = 0; step < 5000; ++step) {
        LineAddr line = rng.below(256);
        switch (rng.below(4)) {
          case 0:
            c.insert(line, LineState::Shared, nullptr, vic);
            break;
          case 1:
            c.insert(line, LineState::Dirty, nullptr, vic);
            break;
          case 2:
            c.invalidate(line);
            break;
          case 3: // dirty upgrade of a resident line
            if (CacheLine *l = c.lookup(line))
                l->state = LineState::Dirty;
            break;
        }
        ASSERT_EQ(c.fingerprint(), referenceFingerprint(c))
            << "step " << step;
    }
}

TEST(CacheArray, ReusedTagBufferStartsInvalid)
{
    const CacheGeometry g{64 * 2 * 32, 2, 32};
    {
        CacheArray dirtied(g);
        std::optional<Victim> vic;
        for (LineAddr l = 0; l < 200; l += 3)
            dirtied.insert(l, LineState::Dirty, nullptr, vic);
        CacheArray moved(std::move(dirtied));
        EXPECT_NE(moved.fingerprint(), 0u);
        EXPECT_NE(moved.peek(3), nullptr);
    }
    CacheArray fresh(g);
    EXPECT_EQ(fresh.fingerprint(), 0u);
    EXPECT_EQ(referenceFingerprint(fresh), 0u);
    for (LineAddr l = 0; l < 200; l += 3)
        EXPECT_EQ(fresh.peek(l), nullptr) << "line " << l;
    EXPECT_EQ(countLines(fresh), 0u);
}

#ifdef __SANITIZE_ADDRESS__
TEST(CacheArray, ReleasedTagBufferIsPoisoned)
{
    const CacheLine *stale = nullptr;
    {
        CacheArray c(tinyGeom());
        std::optional<Victim> vic;
        stale = c.insert(5, LineState::Dirty, nullptr, vic);
        ASSERT_NE(stale, nullptr);
        EXPECT_FALSE(__asan_address_is_poisoned(stale));
    }
    EXPECT_TRUE(__asan_address_is_poisoned(stale));
    CacheArray reused(tinyGeom());
    EXPECT_EQ(reused.peek(5), nullptr);
}
#endif

} // namespace
} // namespace bulksc
