/**
 * @file
 * Bulk-style address signatures (Ceze et al., "Bulk Disambiguation of
 * Speculative Threads in Multiprocessors", ISCA 2006), as used by BulkSC.
 *
 * A signature is a superset encoding of a set of cache-line addresses. It
 * is organized as a partitioned Bloom filter: the (permuted) line address
 * is sliced into one index per bank and the corresponding bit is set in
 * each bank. An address is a member iff its bit is set in every bank.
 *
 * Bank 0 is indexed by the untouched low-order bits of the line address so
 * the decode (delta) operation can recover the set of cache sets that may
 * hold members — this is what makes bulk invalidation and directory
 * signature expansion possible without walking the whole cache.
 *
 * Every signature also carries an exact mirror set. In `exact` mode
 * (the paper's BSCexact "magic" alias-free signature) the mirror drives
 * behaviour; in Bloom mode it is simulation metadata used only for
 * statistics such as true set sizes and aliasing rates.
 */

#ifndef BULKSC_SIGNATURE_SIGNATURE_HH
#define BULKSC_SIGNATURE_SIGNATURE_HH

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace bulksc {

/** Configuration for signature geometry and behaviour. */
struct SignatureConfig
{
    /** Total signature bits (paper: ~2 Kbit). */
    unsigned totalBits = 2048;

    /** Number of Bloom banks (fields); totalBits / numBanks each. */
    unsigned numBanks = 4;

    /** If true, behave as an alias-free (exact) signature: BSCexact. */
    bool exact = false;

    /**
     * Maintain the exact mirror set alongside the Bloom bits. The
     * mirror is simulation metadata: it feeds statistics (true set
     * sizes, aliasing rates, squash attribution) and the distributed
     * arbiter's range partitioning. Plain timing runs can turn it off
     * so the hot path never touches an unordered_set; exec times are
     * unaffected. Forced on for exact mode (the mirror IS the
     * signature there) and for multi-module arbiters.
     */
    bool trackExact = true;

    /** Seed selecting the per-bank hash permutations. */
    std::uint64_t hashSeed = 0xb01d'5c5cULL;

    unsigned bitsPerBank() const { return totalBits / numBanks; }

    /** True iff signatures built from this config keep exact sets. */
    bool tracksExact() const { return exact || trackExact; }
};

/**
 * An address-set signature supporting the primitive bulk operations of
 * the paper's Figure 2: intersection, union, emptiness, membership, and
 * decoding into cache sets.
 */
class Signature
{
  public:
    explicit Signature(const SignatureConfig &cfg = SignatureConfig{});

    /** Insert a line address (the "accumulate" operation). */
    void insert(LineAddr line);

    /**
     * Membership test (the ∈ operation).
     *
     * In Bloom mode this may report false positives but never false
     * negatives; in exact mode it is precise.
     */
    bool contains(LineAddr line) const;

    /** Precise membership against the exact mirror (stats only).
     *  Meaningless unless tracksExact(). */
    bool containsExact(LineAddr line) const;

    /** True iff the exact mirror is being maintained. */
    bool tracksExact() const { return cfg.tracksExact(); }

    /** @return true iff the signature encodes no addresses (=∅). */
    bool empty() const;

    /**
     * @return true iff this signature's intersection with @p other is
     * (possibly) non-empty. In Bloom mode, a banked AND: the result is
     * definitely empty iff some bank ANDs to zero.
     */
    bool intersects(const Signature &other) const;

    /** True intersection emptiness on the exact mirrors (stats only). */
    bool intersectsExact(const Signature &other) const;

    /** Union @p other into this signature (the ∪ operation). */
    void unionWith(const Signature &other);

    /** Remove all addresses. */
    void clear();

    /**
     * Decode (delta operation): the set of bank-0 indices that are set.
     * A cache controller maps these to candidate cache sets; a line with
     * bank-0 index not in this list is definitely not a member.
     */
    std::vector<std::uint32_t> decodeBank0() const;

    /** Bank-0 index of a line (used by buckets mirroring the decode). */
    std::uint32_t bank0Index(LineAddr line) const;

    /** Number of distinct line addresses inserted (exact). */
    std::size_t exactSize() const { return exactSet.size(); }

    /** The exact mirror set (simulation metadata). */
    const std::unordered_set<LineAddr> &exactLines() const
    {
        return exactSet;
    }

    /**
     * Size of this signature when transferred on the interconnect, in
     * bits: the better of the raw bitmap and a sparse per-bank index
     * list, plus a small header. Models the paper's compression of
     * ~2 Kbit signatures to a few hundred bits.
     */
    unsigned compressedBits() const;

    /** Number of bits set across all banks (Bloom occupancy). */
    unsigned popCount() const;

    /** 64-bit digest of the Bloom bit array (explorer state
     *  fingerprinting). Equal signatures hash equal; the exact mirror
     *  does not participate (it never travels on the wire). Memoized
     *  until a Bloom bit flips, so hash() must not race with another
     *  hash() of the same signature. */
    std::uint64_t hash() const;

    /** Raw bank-bit access (used by the wire codec). */
    bool bitSet(unsigned bank, std::uint32_t idx) const;

    /** Set a raw bank bit (wire codec decode; bypasses the exact
     *  mirror, which never travels on the interconnect). */
    void setBit(unsigned bank, std::uint32_t idx);

    const SignatureConfig &config() const { return cfg; }

  private:
    std::uint32_t bankIndex(unsigned bank, LineAddr line) const;

    bool bloomEmpty() const;

    SignatureConfig cfg;
    unsigned wordsPerBank;

    /** Bit permutation: slot -> source bit of the line address. */
    std::vector<std::uint8_t> permute;

    /** Bit storage: numBanks * wordsPerBank 64-bit words. */
    std::vector<std::uint64_t> bits;

    /** Exact mirror of inserted lines. */
    std::unordered_set<LineAddr> exactSet;

    /** hash() of the current bits, if computed since the last flip.
     *  A move leaves the source unset: its bits are gone. */
    struct HashMemo
    {
        std::uint64_t value = 0;
        bool valid = false;

        HashMemo() = default;
        HashMemo(const HashMemo &) = default;
        HashMemo &operator=(const HashMemo &) = default;
        HashMemo(HashMemo &&o) noexcept
            : value(o.value), valid(std::exchange(o.valid, false))
        {
        }
        HashMemo &
        operator=(HashMemo &&o) noexcept
        {
            value = o.value;
            valid = std::exchange(o.valid, false);
            return *this;
        }
    };
    mutable HashMemo memo;
};

} // namespace bulksc

#endif // BULKSC_SIGNATURE_SIGNATURE_HH
