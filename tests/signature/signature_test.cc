/**
 * @file
 * Unit and property tests for Bulk signatures: superset encoding (no
 * false negatives), primitive operations, exact mode, decode, and
 * compression.
 */

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "signature/signature.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

TEST(Signature, EmptyAfterConstruction)
{
    Signature s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.exactSize(), 0u);
    EXPECT_FALSE(s.contains(0x1234));
}

TEST(Signature, InsertThenContains)
{
    Signature s;
    s.insert(0xABCD);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(s.contains(0xABCD));
    EXPECT_TRUE(s.containsExact(0xABCD));
    EXPECT_EQ(s.exactSize(), 1u);
}

TEST(Signature, ClearEmpties)
{
    Signature s;
    s.insert(1);
    s.insert(2);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(1));
    EXPECT_EQ(s.exactSize(), 0u);
}

/** The exact mirror set is bookkeeping for stats and verification:
 *  switching it off must leave every Bloom-level answer unchanged. */
TEST(SignatureProperty, MirrorOffMatchesMirrorOn)
{
    SignatureConfig mirrored;
    mirrored.trackExact = true;
    SignatureConfig bare;
    bare.trackExact = false;

    Rng rng(21);
    for (int trial = 0; trial < 10; ++trial) {
        Signature am(mirrored), bm(mirrored);
        Signature ab(bare), bb(bare);
        for (int i = 0; i < 80; ++i) {
            LineAddr l = rng.next() & 0xFFFFFF;
            if (i % 3 == 0) {
                bm.insert(l);
                bb.insert(l);
            } else {
                am.insert(l);
                ab.insert(l);
            }
        }
        EXPECT_EQ(ab.intersects(bb), am.intersects(bm));
        EXPECT_EQ(ab.empty(), am.empty());
        EXPECT_EQ(ab.decodeBank0(), am.decodeBank0());
        for (int i = 0; i < 50; ++i) {
            LineAddr probe = rng.next() & 0xFFFFFF;
            EXPECT_EQ(ab.contains(probe), am.contains(probe));
        }
        ab.unionWith(bb);
        am.unionWith(bm);
        EXPECT_EQ(ab.decodeBank0(), am.decodeBank0());
        EXPECT_EQ(ab.tracksExact(), false);
        EXPECT_EQ(am.tracksExact(), true);
    }
}

/** Superset encoding: a member is NEVER reported absent. */
TEST(SignatureProperty, NoFalseNegatives)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        Signature s;
        std::vector<LineAddr> inserted;
        for (int i = 0; i < 100; ++i) {
            LineAddr l = rng.next() & 0xFFFFFFFF;
            s.insert(l);
            inserted.push_back(l);
        }
        for (LineAddr l : inserted)
            EXPECT_TRUE(s.contains(l));
    }
}

/** Intersection never misses a genuinely common address. */
TEST(SignatureProperty, IntersectionIsConservative)
{
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        Signature a, b;
        for (int i = 0; i < 20; ++i)
            a.insert(rng.next() & 0xFFFFFF);
        for (int i = 0; i < 20; ++i)
            b.insert(rng.next() & 0xFFFFFF);
        LineAddr common = rng.next() & 0xFFFFFF;
        a.insert(common);
        b.insert(common);
        EXPECT_TRUE(a.intersects(b));
        EXPECT_TRUE(a.intersectsExact(b));
    }
}

/** hash() of a never-hashed signature holding @p s's Bloom bits. */
std::uint64_t
freshHash(const Signature &s)
{
    const SignatureConfig &cfg = s.config();
    Signature f(cfg);
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        for (std::uint32_t i = 0; i < cfg.bitsPerBank(); ++i) {
            if (s.bitSet(b, i))
                f.setBit(b, i);
        }
    }
    return f.hash();
}

TEST(Signature, MemoizedHashFollowsEveryMutation)
{
    SignatureConfig cfg;
    Signature s(cfg);
    std::uint64_t empty = s.hash();
    EXPECT_EQ(empty, freshHash(s));

    s.insert(0x1000); // new bits
    EXPECT_NE(s.hash(), empty);
    EXPECT_EQ(s.hash(), freshHash(s));
    std::uint64_t one = s.hash();
    s.insert(0x1000); // already present: nothing flips
    EXPECT_EQ(s.hash(), one);
    EXPECT_EQ(s.hash(), freshHash(s));

    s.setBit(1, 7);
    EXPECT_EQ(s.hash(), freshHash(s));
    s.setBit(1, 7);
    EXPECT_EQ(s.hash(), freshHash(s));

    Signature other(cfg);
    other.insert(0x2345);
    s.unionWith(other);
    EXPECT_EQ(s.hash(), freshHash(s));
    s.unionWith(other); // subset: nothing flips
    EXPECT_EQ(s.hash(), freshHash(s));

    Signature copy(s);
    EXPECT_EQ(copy.hash(), s.hash());
    copy.insert(0x7777);
    EXPECT_EQ(copy.hash(), freshHash(copy));
    EXPECT_EQ(s.hash(), freshHash(s));

    Signature assigned(cfg);
    assigned.hash();
    assigned = s;
    EXPECT_EQ(assigned.hash(), freshHash(assigned));

    s.clear();
    EXPECT_EQ(s.hash(), empty);
    EXPECT_EQ(s.hash(), freshHash(s));

    // A moved-from signature hashes like one that was never hashed
    // before the move; the destination keeps the source's hash.
    Signature hashed(cfg), unhashed(cfg);
    hashed.insert(0x42);
    unhashed.insert(0x42);
    std::uint64_t before = hashed.hash();
    Signature dst(std::move(hashed));
    Signature dst2(std::move(unhashed));
    EXPECT_EQ(dst.hash(), before);
    EXPECT_EQ(dst.hash(), freshHash(dst));
    EXPECT_EQ(hashed.hash(), unhashed.hash()); // NOLINT(bugprone-use-after-move)

    Signature target(cfg);
    target.hash();
    target = std::move(dst);
    EXPECT_EQ(target.hash(), before);
    Signature dst3(std::move(dst2));
    EXPECT_EQ(dst.hash(), dst2.hash()); // NOLINT(bugprone-use-after-move)
}

TEST(Signature, DisjointSmallSetsUsuallyDontIntersect)
{
    // With one line each on different cache sets and different high
    // bits, the banked AND must be empty.
    Signature a, b;
    a.insert(0x10);
    b.insert(0x20);
    EXPECT_FALSE(a.intersectsExact(b));
    EXPECT_FALSE(a.intersects(b));
}

TEST(Signature, UnionContainsBoth)
{
    Signature a, b;
    a.insert(1);
    a.insert(2);
    b.insert(3);
    a.unionWith(b);
    EXPECT_TRUE(a.contains(1));
    EXPECT_TRUE(a.contains(2));
    EXPECT_TRUE(a.contains(3));
    EXPECT_EQ(a.exactSize(), 3u);
}

TEST(Signature, ExactModeHasNoAliases)
{
    SignatureConfig cfg;
    cfg.exact = true;
    Rng rng(3);
    Signature s(cfg);
    std::unordered_set<LineAddr> in;
    for (int i = 0; i < 500; ++i) {
        LineAddr l = rng.next() & 0xFFFFF;
        s.insert(l);
        in.insert(l);
    }
    for (int i = 0; i < 5000; ++i) {
        LineAddr l = rng.next() & 0xFFFFF;
        EXPECT_EQ(s.contains(l), in.count(l) != 0);
    }
}

TEST(Signature, ExactIntersectionIsPrecise)
{
    SignatureConfig cfg;
    cfg.exact = true;
    Signature a(cfg), b(cfg);
    for (LineAddr l = 0; l < 100; ++l)
        a.insert(l);
    for (LineAddr l = 100; l < 200; ++l)
        b.insert(l);
    EXPECT_FALSE(a.intersects(b));
    b.insert(50);
    EXPECT_TRUE(a.intersects(b));
}

/** Bloom mode must alias eventually (it is a superset encoding). */
TEST(SignatureProperty, BloomModeAliases)
{
    Signature s;
    Rng rng(23);
    for (int i = 0; i < 400; ++i)
        s.insert(rng.next() & 0x3FFFFF);
    unsigned false_pos = 0;
    for (int i = 0; i < 20000; ++i) {
        LineAddr l = rng.next() & 0x3FFFFF;
        if (s.contains(l) && !s.containsExact(l))
            ++false_pos;
    }
    EXPECT_GT(false_pos, 0u);
}

TEST(Signature, DecodeBank0CoversMembers)
{
    Signature s;
    std::vector<LineAddr> lines = {0x100, 0x3FF, 0x12345, 0x777};
    for (LineAddr l : lines)
        s.insert(l);
    auto decoded = s.decodeBank0();
    std::unordered_set<std::uint32_t> set(decoded.begin(),
                                          decoded.end());
    for (LineAddr l : lines)
        EXPECT_TRUE(set.count(s.bank0Index(l)));
}

TEST(Signature, Bank0IndexIsLowBits)
{
    Signature s;
    // Bank 0 keeps identity low bits so cache-set decode works.
    EXPECT_EQ(s.bank0Index(0x123),
              0x123u & (s.config().bitsPerBank() - 1));
}

TEST(Signature, CompressionSmallerForSparseSigs)
{
    Signature sparse, dense;
    sparse.insert(42);
    Rng rng(5);
    for (int i = 0; i < 600; ++i)
        dense.insert(rng.next());
    EXPECT_LT(sparse.compressedBits(), dense.compressedBits());
    // An almost-empty signature compresses far below the raw 2 Kbit.
    EXPECT_LT(sparse.compressedBits(), 200u);
    // Compression never exceeds bitmap + headers.
    EXPECT_LE(dense.compressedBits(),
              dense.config().totalBits + 8 * dense.config().numBanks);
}

TEST(Signature, PopCountGrowsWithInsertions)
{
    Signature s;
    unsigned prev = s.popCount();
    EXPECT_EQ(prev, 0u);
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        s.insert(rng.next());
    EXPECT_GT(s.popCount(), 0u);
    EXPECT_LE(s.popCount(), 50u * s.config().numBanks);
}

/**
 * The bit-level index function the byte-sliced tables must reproduce,
 * kept here as the specification: shuffle the slots of every bank but
 * bank 0 with an Rng seeded by hashSeed, slice the low 30 line bits
 * through them, and XOR-fold bank 1's slice rotated by 4 into the last
 * bank when there are 3 or more banks.
 */
class ReferenceHash
{
  public:
    explicit ReferenceHash(const SignatureConfig &cfg)
        : idxBits(floorLog2(cfg.bitsPerBank())), banks(cfg.numBanks)
    {
        const unsigned total = idxBits * banks;
        for (unsigned i = 0; i < total; ++i)
            permute.push_back(static_cast<std::uint8_t>(i));
        Rng rng(cfg.hashSeed);
        for (unsigned i = total - 1; i > idxBits; --i) {
            unsigned j = static_cast<unsigned>(
                idxBits + rng.below(i - idxBits + 1));
            std::swap(permute[i], permute[j]);
        }
    }

    std::uint32_t
    index(unsigned bank, LineAddr line) const
    {
        const std::uint32_t mask = (std::uint32_t{1} << idxBits) - 1;
        if (bank == banks - 1 && banks >= 3) {
            std::uint32_t b = slice(1, line);
            return (slice(bank, line) ^
                    ((b << 4) | (b >> (idxBits - 4)))) &
                   mask;
        }
        return slice(bank, line);
    }

  private:
    std::uint32_t
    slice(unsigned bank, LineAddr line) const
    {
        std::uint32_t idx = 0;
        for (unsigned j = 0; j < idxBits; ++j) {
            unsigned src = permute[bank * idxBits + j] % 30;
            idx |= static_cast<std::uint32_t>((line >> src) & 1) << j;
        }
        return idx;
    }

    unsigned idxBits;
    unsigned banks;
    std::vector<std::uint8_t> permute;
};

/** Every geometry of 256–8192 bits with 1, 2, 3, 4 or 8 banks. */
std::vector<std::pair<unsigned, unsigned>>
pinnedGeometries()
{
    std::vector<std::pair<unsigned, unsigned>> out;
    for (unsigned banks : {1u, 2u, 3u, 4u, 8u}) {
        for (unsigned per_bank = 32; per_bank * banks <= 8192;
             per_bank *= 2) {
            if (per_bank * banks >= 256)
                out.emplace_back(per_bank * banks, banks);
        }
    }
    return out;
}

/** Random lines, half of them with bits above 29 set, plus edges. */
std::vector<LineAddr>
probeLines(std::uint64_t seed)
{
    std::vector<LineAddr> out = {0,
                                 1,
                                 (LineAddr{1} << 29),
                                 (LineAddr{1} << 30) - 1,
                                 (LineAddr{1} << 30),
                                 ~LineAddr{0}};
    Rng rng(seed);
    for (int i = 0; i < 256; ++i) {
        LineAddr l = rng.next();
        out.push_back(i % 2 ? l : l & ((LineAddr{1} << 30) - 1));
    }
    return out;
}

TEST(SignatureHash, TablesMatchBitLevelReference)
{
    for (auto [bits, banks] : pinnedGeometries()) {
        for (std::uint64_t seed :
             {SignatureConfig{}.hashSeed, std::uint64_t{1},
              std::uint64_t{42}, std::uint64_t{0xdead'beef'f00dULL}}) {
            SignatureConfig cfg;
            cfg.totalBits = bits;
            cfg.numBanks = banks;
            cfg.hashSeed = seed;
            const ReferenceHash ref(cfg);
            const Signature s(cfg);
            for (LineAddr l : probeLines(seed ^ bits ^ banks)) {
                for (unsigned b = 0; b < banks; ++b) {
                    ASSERT_EQ(s.bankIndex(b, l), ref.index(b, l))
                        << bits << " bits, " << banks << " banks, seed "
                        << seed << ", bank " << b << ", line " << l;
                    // Bits above 29 are outside the hashed slice.
                    ASSERT_EQ(s.bankIndex(b, l),
                              s.bankIndex(b, l & ((LineAddr{1} << 30) -
                                                  1)));
                }
            }
        }
    }
}

TEST(SignatureHash, CopiesIndexLikeFreshSignatures)
{
    SignatureConfig cfg;
    cfg.totalBits = 1024;
    cfg.numBanks = 8;
    cfg.hashSeed = 7;
    SignatureConfig other;
    const Signature original(cfg);
    const Signature copy(original);
    Signature assigned(other);
    assigned = original;
    Signature moved_from(cfg);
    const Signature moved(std::move(moved_from));
    const Signature fresh(cfg);
    for (LineAddr l : probeLines(3)) {
        for (unsigned b = 0; b < cfg.numBanks; ++b) {
            const std::uint32_t want = fresh.bankIndex(b, l);
            EXPECT_EQ(original.bankIndex(b, l), want);
            EXPECT_EQ(copy.bankIndex(b, l), want);
            EXPECT_EQ(assigned.bankIndex(b, l), want);
            EXPECT_EQ(moved.bankIndex(b, l), want);
        }
    }
}

/** Signatures are built on sweep and explorer worker threads: the
 *  first use of a geometry on several threads at once must agree. */
TEST(SignatureHash, ConcurrentFirstUseAgrees)
{
    auto digest = [](std::uint64_t seed_base) {
        std::uint64_t h = 0;
        for (auto [bits, banks] : pinnedGeometries()) {
            SignatureConfig cfg;
            cfg.totalBits = bits;
            cfg.numBanks = banks;
            cfg.hashSeed = seed_base + bits;
            Signature s(cfg);
            Signature t = s;
            for (LineAddr l : probeLines(bits)) {
                for (unsigned b = 0; b < banks; ++b)
                    h = mix64(h ^ s.bankIndex(b, l) ^
                              (std::uint64_t{t.bankIndex(b, l)} << 32));
            }
        }
        return h;
    };
    // Seeds no other test uses, so the tables are built right here.
    const std::uint64_t seed_base = 0x7ab1e5'0000ULL;
    std::vector<std::uint64_t> got(4);
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < got.size(); ++i)
        workers.emplace_back([&, i] { got[i] = digest(seed_base); });
    for (auto &w : workers)
        w.join();
    for (std::uint64_t g : got)
        EXPECT_EQ(g, digest(seed_base));
}

/** Parameterized sweep over signature geometries. */
class SignatureGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(SignatureGeometry, RoundTripMembers)
{
    auto [bits, banks] = GetParam();
    SignatureConfig cfg;
    cfg.totalBits = bits;
    cfg.numBanks = banks;
    Signature s(cfg);
    Rng rng(bits + banks);
    std::vector<LineAddr> lines;
    for (int i = 0; i < 64; ++i) {
        LineAddr l = rng.next() & 0xFFFFFFF;
        lines.push_back(l);
        s.insert(l);
    }
    for (LineAddr l : lines)
        EXPECT_TRUE(s.contains(l));
    s.clear();
    EXPECT_TRUE(s.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SignatureGeometry,
    ::testing::Values(std::make_pair(512u, 2u),
                      std::make_pair(1024u, 4u),
                      std::make_pair(2048u, 4u),
                      std::make_pair(2048u, 8u),
                      std::make_pair(4096u, 4u),
                      std::make_pair(8192u, 8u)));

} // namespace
} // namespace bulksc
