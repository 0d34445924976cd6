/**
 * @file
 * FlatMap against std::unordered_map: seeded random insert, find and
 * erase over key sets small enough to force long probe runs that wrap
 * around the end of the table, growth through several doublings, and
 * iteration compared as a set of pairs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Pairs
sortedPairs(const FlatMap<std::uint64_t, std::uint64_t> &m)
{
    Pairs out;
    for (const auto &[k, v] : m)
        out.emplace_back(k, v);
    std::sort(out.begin(), out.end());
    return out;
}

Pairs
sortedPairs(const std::unordered_map<std::uint64_t, std::uint64_t> &m)
{
    Pairs out(m.begin(), m.end());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlatMap, AllocatesNothingUntilFirstInsert)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_EQ(m.find(3), nullptr);
    EXPECT_FALSE(m.erase(3));
    EXPECT_EQ(m.begin(), m.end());
    m[3] = 7;
    EXPECT_GT(m.capacity(), 0u);
    EXPECT_EQ(*m.find(3), 7u);
}

TEST(FlatMap, TryEmplaceReportsInsertion)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    auto [v, fresh] = m.tryEmplace(10);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(*v, 0u); // value-initialized
    *v = 5;
    auto [w, again] = m.tryEmplace(10);
    EXPECT_FALSE(again);
    EXPECT_EQ(*w, 5u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, KeyZeroIsAnOrdinaryKey)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    m[0] = 1;
    EXPECT_TRUE(m.contains(0));
    EXPECT_TRUE(m.erase(0));
    EXPECT_FALSE(m.contains(0));
}

/** Every key of a full run is found after erasing any one of them,
 *  whichever slot the run wraps around. */
TEST(FlatMap, EraseBackShiftsAcrossTheWrap)
{
    // 6 keys in an 8-slot table: the runs cover most slots, so some
    // wrap from the last slot to the first.
    for (std::uint64_t base = 0; base < 64; ++base) {
        std::vector<std::uint64_t> keys;
        for (std::uint64_t i = 0; i < 6; ++i)
            keys.push_back(base * 131 + i * 17);
        for (std::uint64_t gone : keys) {
            FlatMap<std::uint64_t, std::uint64_t> m;
            for (std::uint64_t k : keys)
                m[k] = k + 1;
            ASSERT_EQ(m.capacity(), 8u);
            ASSERT_TRUE(m.erase(gone));
            for (std::uint64_t k : keys) {
                if (k == gone) {
                    EXPECT_EQ(m.find(k), nullptr);
                } else {
                    ASSERT_NE(m.find(k), nullptr) << base << " " << k;
                    EXPECT_EQ(*m.find(k), k + 1);
                }
            }
        }
    }
}

class FlatMapDiff : public ::testing::TestWithParam<std::uint64_t>
{};

/** Seeded random operations on both maps; each parameter is a key
 *  range, from dense collisions to sparse 64-bit keys. */
TEST_P(FlatMapDiff, MatchesUnorderedMap)
{
    const std::uint64_t range = GetParam();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 1000 + range);
        FlatMap<std::uint64_t, std::uint64_t> flat;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        std::size_t peak_cap = 0;
        for (unsigned step = 0; step < 20000; ++step) {
            // Keys the map cannot store are remapped into range.
            std::uint64_t k = range ? rng.below(range) : rng.next();
            if (k == FlatMap<std::uint64_t, std::uint64_t>::kEmpty)
                k = 0;
            // Grow-heavy first half, erase-heavy second half.
            const std::uint64_t op = rng.below(10);
            const bool insert = step < 10000 ? op < 6 : op < 3;
            if (insert) {
                std::uint64_t v = rng.next();
                auto [slot, fresh] = flat.tryEmplace(k);
                EXPECT_EQ(fresh, ref.count(k) == 0);
                *slot = v;
                ref[k] = v;
            } else if (op < 8) {
                EXPECT_EQ(flat.erase(k), ref.erase(k) != 0);
            } else {
                const std::uint64_t *v = flat.find(k);
                auto it = ref.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end());
                if (v) {
                    EXPECT_EQ(*v, it->second);
                }
            }
            ASSERT_EQ(flat.size(), ref.size());
            peak_cap = std::max(peak_cap, flat.capacity());
            if (step % 2500 == 0) {
                ASSERT_EQ(sortedPairs(flat), sortedPairs(ref));
            }
        }
        EXPECT_EQ(sortedPairs(flat), sortedPairs(ref));
        for (const auto &[k, v] : ref) {
            ASSERT_NE(flat.find(k), nullptr);
            EXPECT_EQ(*flat.find(k), v);
        }
        // The map grew through several doublings and stays within
        // its 3/4 load bound.
        EXPECT_GE(peak_cap, 64u);
        EXPECT_LE(4 * flat.size(), 3 * flat.capacity());
    }
}

INSTANTIATE_TEST_SUITE_P(
    KeyRanges, FlatMapDiff, ::testing::Values(64, 4096, 0),
    [](const auto &info) {
        return info.param ? "Below" + std::to_string(info.param)
                          : std::string("Full64");
    });

/** Values that own memory move correctly through growth and
 *  back-shift (the sanitizer job checks for leaks and stale reads). */
TEST(FlatMap, OwningValuesSurviveGrowthAndErase)
{
    FlatMap<std::uint32_t, std::vector<std::uint32_t>> m;
    for (std::uint32_t k = 0; k < 500; ++k)
        m[k * 7].assign(k % 5 + 1, k);
    for (std::uint32_t k = 0; k < 500; k += 2)
        EXPECT_TRUE(m.erase(k * 7));
    for (std::uint32_t k = 1; k < 500; k += 2) {
        const auto *v = m.find(k * 7);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->size(), k % 5 + 1);
        EXPECT_EQ(v->front(), k);
    }
    EXPECT_EQ(m.size(), 250u);
}

} // namespace
} // namespace bulksc
