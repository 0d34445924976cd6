/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/rng.hh"

namespace bulksc {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ZipfishIsSkewedTowardSmallIndices)
{
    Rng r(13);
    std::uint64_t low = 0;
    const std::uint64_t n = 1000;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = r.zipfish(n, 0.7);
        EXPECT_LT(v, n);
        if (v < n / 10)
            ++low;
    }
    // Strong skew: far more than 10% of samples in the first decile.
    EXPECT_GT(low, 20000u / 4);
}

TEST(Rng, ZipfishHandlesDegenerateSizes)
{
    Rng r(15);
    EXPECT_EQ(r.zipfish(0, 0.5), 0u);
    EXPECT_EQ(r.zipfish(1, 0.5), 0u);
}

TEST(Mix64, IsStableAndMixing)
{
    // Stable across calls (pure function)...
    EXPECT_EQ(mix64(12345), mix64(12345));
    // ...and adjacent inputs produce very different outputs.
    std::uint64_t d = mix64(1) ^ mix64(2);
    int bits = 0;
    while (d) {
        bits += d & 1;
        d >>= 1;
    }
    EXPECT_GT(bits, 16);
}

TEST(ResendBackoff, DoublesPerAttemptUpToTheCap)
{
    // Attempt n waits timeout * 2^(n-1) +/-25%, never beyond cap +25%.
    for (unsigned a = 1; a <= 20; ++a) {
        std::uint64_t base = std::min<std::uint64_t>(
            std::uint64_t{256} << (a < 16 ? a - 1 : 15), 8192);
        std::uint64_t d = resendBackoff(256, 8192, a, 77);
        EXPECT_GE(d, base - base / 4) << a;
        EXPECT_LT(d, base + base / 4) << a;
    }
}

TEST(ResendBackoff, JitterIsKeyedAndDeterministic)
{
    EXPECT_EQ(resendBackoff(256, 8192, 3, 5),
              resendBackoff(256, 8192, 3, 5));
    // The attempt number is part of the jitter key.
    EXPECT_EQ(resendBackoff(1024, 1024, 3, 5),
              jitteredBackoff(1024, 5 ^ 3));
    bool differ = false;
    for (std::uint64_t k = 0; k < 16 && !differ; ++k)
        differ = resendBackoff(256, 8192, 2, k) !=
                 resendBackoff(256, 8192, 2, k + 1);
    EXPECT_TRUE(differ);
}

} // namespace
} // namespace bulksc
