/**
 * @file
 * A set-associative tag array with LRU replacement.
 *
 * As in the paper, the tag/data arrays know nothing about speculation:
 * lines carry only a coherence state. Speculative-line protection is
 * imposed from outside through the victim filter passed to insert(),
 * which is how the BDM prevents displacement of speculatively written
 * lines (Section 4.1.1).
 *
 * Host cost scales with the sets a run fills, not with the modelled
 * capacity: tag storage is a pooled zero-page buffer that construction
 * does not touch, and the array lists the sets that have ever held a
 * line so that fingerprinting, whole-array iteration and teardown
 * visit only those.
 */

#ifndef BULKSC_MEM_CACHE_ARRAY_HH
#define BULKSC_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/cache_geometry.hh"
#include "sim/types.hh"

namespace bulksc {

/** Coherence state of a cached line (MSI with a dirty/owned state). */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Dirty, //!< Modified/owned (may be speculative; the array can't tell)
};

/** One cache line's tag-array entry. */
struct CacheLine
{
    LineAddr line = 0;
    LineState state = LineState::Invalid;
    std::uint64_t lruStamp = 0;

    bool valid() const { return state != LineState::Invalid; }
};

/** A victim displaced by an insertion. */
struct Victim
{
    LineAddr line;
    bool dirty;
};

/** Generic set-associative cache tag array. */
class CacheArray
{
  public:
    /** Predicate deciding whether a line may be chosen as a victim. */
    using VictimFilter = std::function<bool(LineAddr)>;

    explicit CacheArray(const CacheGeometry &geom);
    ~CacheArray();

    /** Move-only: the array owns its pooled tag buffer. */
    CacheArray(CacheArray &&other) noexcept;
    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;
    CacheArray &operator=(CacheArray &&) = delete;

    /** Look up @p line, updating LRU on hit. @return entry or nullptr. */
    CacheLine *lookup(LineAddr line);

    /** Look up @p line without touching LRU state. */
    const CacheLine *peek(LineAddr line) const;

    /**
     * Insert @p line with @p state, evicting the LRU victim of its set
     * that passes @p filter.
     *
     * @param[out] victim The displaced valid line, if any.
     * @return the inserted entry, or nullptr if every candidate way was
     *         vetoed by the filter (the caller must handle bypass).
     */
    CacheLine *insert(LineAddr line, LineState state,
                      const VictimFilter &filter,
                      std::optional<Victim> &victim);

    /** Invalidate @p line if present. @return its state beforehand. */
    LineState invalidate(LineAddr line);

    /** Apply @p fn to every valid line of set @p set_idx. */
    void forEachInSet(std::uint32_t set_idx,
                      const std::function<void(const CacheLine &)> &fn)
        const;

    const CacheGeometry &geometry() const { return geom; }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

    /**
     * Order-insensitive digest of the coherence-visible contents
     * (valid lines and their states). LRU stamps and hit/miss
     * counters are deliberately excluded: they are performance
     * bookkeeping, and folding them in would make every explorer
     * fingerprint unique, defeating revisit pruning. Costs
     * O(sets ever filled), not O(capacity).
     */
    std::uint64_t fingerprint() const;

  private:
    /** Set index of @p line: its low bits, as the set count is a
     *  power of two. */
    std::uint32_t
    setOf(LineAddr line) const
    {
        return static_cast<std::uint32_t>(line & setMask);
    }

    CacheLine *findWay(LineAddr line) const;

    CacheGeometry geom;
    std::uint64_t setMask; //!< geom.setMask(), cached
    CacheLine *lines = nullptr; //!< geom.numLines() entries, pooled

    /** Indices of the sets that have ever held a line, in first-fill
     *  order. Every other set is still all-Invalid and all-zero. */
    std::vector<std::uint32_t> occupied;
    std::uint64_t lruCounter = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace bulksc

#endif // BULKSC_MEM_CACHE_ARRAY_HH
