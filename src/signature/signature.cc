#include "signature/signature.hh"

#include <bit>
#include <compare>
#include <map>
#include <memory>
#include <mutex>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

namespace {

/**
 * The reference bank index (Figure 2(a)): the line address bits are
 * shuffled once, then sliced into one index per bank. Bank 0 keeps the
 * identity low-order bits so the decode operation can map set bits
 * back to cache sets. Because banks are *slices of one permuted
 * address* — not independent hashes — structured address sets alias
 * realistically, as in the paper's evaluation. Evaluated only to fill
 * the lookup tables.
 */
class ReferenceIndex
{
  public:
    explicit ReferenceIndex(const SignatureConfig &cfg)
        : idxBits(floorLog2(cfg.bitsPerBank())), numBanks(cfg.numBanks)
    {
        const unsigned total_src = idxBits * numBanks;
        permute.resize(total_src);
        for (unsigned i = 0; i < total_src; ++i)
            permute[i] = static_cast<std::uint8_t>(i);
        Rng rng(cfg.hashSeed);
        for (unsigned i = total_src - 1; i > idxBits; --i) {
            // Leave bank 0's slice (positions 0..idxBits-1) in place.
            unsigned j = static_cast<unsigned>(
                idxBits + rng.below(i - idxBits + 1));
            std::swap(permute[i], permute[j]);
        }
    }

    std::uint32_t
    operator()(unsigned bank, LineAddr line) const
    {
        const std::uint32_t mask = (std::uint32_t{1} << idxBits) - 1;
        // The last bank XOR-folds two slices: well distributed for
        // diverse address mixes, but still correlated for strided/
        // structured sets — which is what produces the realistic
        // signature aliasing of the paper's evaluation (radix most of
        // all). MachineConfig::validate rejects the geometries whose
        // 4-bit rotation is undefined (idxBits < 4) and those with no
        // index bits, whose shuffle above would divide by zero.
        if (bank == numBanks - 1 && numBanks >= 3) {
            std::uint32_t a = slice(bank, line);
            std::uint32_t b = slice(1, line);
            return (a ^ ((b << 4) | (b >> (idxBits - 4)))) & mask;
        }
        return slice(bank, line);
    }

  private:
    std::uint32_t
    slice(unsigned bank, LineAddr line) const
    {
        // The hardware hashes a finite slice of the line address (30
        // bits here, a 32 GB reach); higher-order bits are not covered
        // — address sets that differ only there are indistinguishable
        // to the signature (one source of the paper's aliasing).
        std::uint32_t idx = 0;
        for (unsigned j = 0; j < idxBits; ++j) {
            unsigned src = permute[bank * idxBits + j] % 30;
            idx |= static_cast<std::uint32_t>((line >> src) & 1) << j;
        }
        return idx;
    }

    unsigned idxBits;
    unsigned numBanks;

    /** Bit permutation: slot -> source bit of the line address. */
    std::vector<std::uint8_t> permute;
};

/** Geometry that determines the index function. */
struct TableKey
{
    std::uint64_t hashSeed;
    unsigned totalBits;
    unsigned numBanks;

    auto operator<=>(const TableKey &) const = default;
};

/**
 * The index tables of @p cfg's geometry, built on first use and kept
 * for the life of the process. The reference index is linear over XOR
 * (each output bit is one source bit, or the XOR of two), so the index
 * of a line is the XOR of the indices of its four low-order bytes.
 * Construction is cheap on the hot path: each thread remembers the
 * last geometry it asked for; other lookups take the cache's mutex.
 */
const std::uint32_t *
sharedIndexTables(const SignatureConfig &cfg)
{
    const TableKey key{cfg.hashSeed, cfg.totalBits, cfg.numBanks};
    thread_local TableKey lastKey{};
    thread_local const std::uint32_t *last = nullptr;
    if (last && key == lastKey)
        return last;

    static std::mutex mtx;
    static std::map<TableKey, std::unique_ptr<std::uint32_t[]>> cache;
    std::lock_guard<std::mutex> lock(mtx);
    auto &tables = cache[key];
    if (!tables) {
        const ReferenceIndex ref(cfg);
        tables = std::make_unique<std::uint32_t[]>(
            std::size_t{cfg.numBanks} * 4 * 256);
        for (unsigned b = 0; b < cfg.numBanks; ++b) {
            std::uint32_t *t = tables.get() + std::size_t{b} * 4 * 256;
            for (unsigned byte = 0; byte < 4; ++byte) {
                for (unsigned v = 0; v < 256; ++v) {
                    t[byte * 256 + v] =
                        ref(b, LineAddr{v} << (8 * byte));
                }
            }
        }
    }
    lastKey = key;
    last = tables.get();
    return last;
}

} // namespace

Signature::Signature(const SignatureConfig &c)
    : cfg(c)
{
    panic_if(cfg.numBanks == 0, "signature needs at least one bank");
    panic_if(cfg.totalBits % cfg.numBanks != 0,
             "totalBits must be divisible by numBanks");
    panic_if(!isPowerOf2(cfg.bitsPerBank()),
             "bits per bank must be a power of two");
    panic_if(cfg.bitsPerBank() < 2, "bits per bank must be at least 2");
    panic_if(cfg.numBanks >= 3 && cfg.bitsPerBank() < 16,
             "the last bank's fold needs at least 16 bits per bank");
    wordsPerBank = (cfg.bitsPerBank() + 63) / 64;
    bits.assign(std::size_t{cfg.numBanks} * wordsPerBank, 0);
    index = sharedIndexTables(cfg);
}

void
Signature::insert(LineAddr line)
{
    if (tracksExact())
        exactSet.insert(line);
    for (unsigned b = 0; b < cfg.numBanks; ++b)
        setBit(b, bankIndex(b, line));
}

bool
Signature::contains(LineAddr line) const
{
    if (cfg.exact)
        return containsExact(line);
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        std::uint32_t idx = bankIndex(b, line);
        if (!(bits[std::size_t{b} * wordsPerBank + idx / 64] &
              (std::uint64_t{1} << (idx % 64)))) {
            return false;
        }
    }
    return true;
}

bool
Signature::containsExact(LineAddr line) const
{
    return exactSet.count(line) != 0;
}

bool
Signature::bloomEmpty() const
{
    // Membership requires a hit in every bank, so the signature is
    // definitely empty as soon as one bank is all-zero.
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        bool any = false;
        for (unsigned w = 0; w < wordsPerBank; ++w) {
            if (bits[std::size_t{b} * wordsPerBank + w]) {
                any = true;
                break;
            }
        }
        if (!any)
            return true;
    }
    return false;
}

bool
Signature::empty() const
{
    if (cfg.exact)
        return exactSet.empty();
    return bloomEmpty();
}

bool
Signature::intersects(const Signature &other) const
{
    if (cfg.exact || other.cfg.exact)
        return intersectsExact(other);
    panic_if(cfg.totalBits != other.cfg.totalBits ||
                 cfg.numBanks != other.cfg.numBanks,
             "intersecting signatures of different geometry");
    // Banked AND; the intersection is definitely empty iff some bank
    // ANDs to all-zero.
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        bool any = false;
        for (unsigned w = 0; w < wordsPerBank; ++w) {
            std::size_t i = std::size_t{b} * wordsPerBank + w;
            if (bits[i] & other.bits[i]) {
                any = true;
                break;
            }
        }
        if (!any)
            return false;
    }
    return true;
}

bool
Signature::intersectsExact(const Signature &other) const
{
    const auto &small =
        exactSet.size() <= other.exactSet.size() ? exactSet
                                                 : other.exactSet;
    const auto &big =
        exactSet.size() <= other.exactSet.size() ? other.exactSet
                                                 : exactSet;
    for (LineAddr l : small) {
        if (big.count(l))
            return true;
    }
    return false;
}

void
Signature::unionWith(const Signature &other)
{
    panic_if(cfg.totalBits != other.cfg.totalBits ||
                 cfg.numBanks != other.cfg.numBanks,
             "uniting signatures of different geometry");
    std::uint64_t flipped = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        flipped |= other.bits[i] & ~bits[i];
        bits[i] |= other.bits[i];
    }
    if (flipped)
        memo.valid = false;
    exactSet.insert(other.exactSet.begin(), other.exactSet.end());
}

void
Signature::clear()
{
    if (popCount() != 0)
        memo.valid = false;
    std::fill(bits.begin(), bits.end(), 0);
    exactSet.clear();
}

std::vector<std::uint32_t>
Signature::decodeBank0() const
{
    std::vector<std::uint32_t> out;
    for (unsigned w = 0; w < wordsPerBank; ++w) {
        std::uint64_t word = bits[w];
        while (word) {
            unsigned bit = std::countr_zero(word);
            out.push_back(w * 64 + bit);
            word &= word - 1;
        }
    }
    return out;
}

bool
Signature::bitSet(unsigned bank, std::uint32_t idx) const
{
    return bits[std::size_t{bank} * wordsPerBank + idx / 64] &
           (std::uint64_t{1} << (idx % 64));
}

void
Signature::setBit(unsigned bank, std::uint32_t idx)
{
    std::uint64_t &word = bits[std::size_t{bank} * wordsPerBank + idx / 64];
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if (!(word & bit)) {
        word |= bit;
        memo.valid = false;
    }
}

unsigned
Signature::popCount() const
{
    unsigned n = 0;
    for (std::uint64_t w : bits)
        n += std::popcount(w);
    return n;
}

std::uint64_t
Signature::hash() const
{
    if (memo.valid)
        return memo.value;
    std::uint64_t h = 0x5349'47'42'4cULL; // "SIGBL"
    for (std::uint64_t w : bits)
        h = mix64(h ^ w);
    memo.value = h;
    memo.valid = true;
    return h;
}

unsigned
Signature::compressedBits() const
{
    // Per bank: choose the smaller of the raw bitmap and a sparse list
    // of log2(bitsPerBank)-bit indices. One byte of header per bank
    // for the format tag and count — the exact format implemented by
    // signature/codec.hh (the 7-bit count field caps sparse encoding
    // at 127 indices).
    const unsigned idx_bits = floorLog2(cfg.bitsPerBank());
    unsigned total = 0;
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        unsigned pop = 0;
        for (unsigned w = 0; w < wordsPerBank; ++w)
            pop += std::popcount(bits[std::size_t{b} * wordsPerBank + w]);
        unsigned sparse = 8 + pop * idx_bits;
        unsigned bitmap = 8 + cfg.bitsPerBank();
        total += (pop < 128 && sparse < bitmap) ? sparse : bitmap;
    }
    return total;
}

bool
anyIntersects(const std::vector<SigPtr> &list, const Signature &s)
{
    for (const SigPtr &w : list) {
        if (w->intersects(s))
            return true;
    }
    return false;
}

bool
eraseSig(std::vector<SigPtr> &list, const Signature &w)
{
    for (auto it = list.begin(); it != list.end(); ++it) {
        if (it->get() == &w) {
            list.erase(it);
            return true;
        }
    }
    return false;
}

} // namespace bulksc
