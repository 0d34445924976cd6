#include "mem/cache_array.hh"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "sim/rng.hh"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#define BULKSC_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define BULKSC_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define BULKSC_POISON(p, n) ((void)(p), (void)(n))
#define BULKSC_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace bulksc {

// Tag buffers start as all-zero bytes and are never constructed, so
// all-zero must be a valid, Invalid CacheLine.
static_assert(std::is_trivially_copyable_v<CacheLine> &&
              std::is_trivially_destructible_v<CacheLine>);
static_assert(static_cast<int>(LineState::Invalid) == 0);

namespace {

/**
 * Per-thread free list of all-zero tag buffers, keyed by byte size.
 *
 * A new buffer is an anonymous mapping, so it costs no page until a
 * set is first filled; a returned buffer comes back re-zeroed by its
 * owner. Each size keeps at most as many idle buffers as were ever
 * live at once on this thread (one System's worth when Systems are
 * built one at a time), so every System after the first reuses pages
 * that are already faulted in. The pool unmaps its idle buffers at
 * thread exit. Idle buffers are poisoned under AddressSanitizer.
 */
class TagPool
{
  public:
    TagPool() = default;
    TagPool(const TagPool &) = delete;
    TagPool &operator=(const TagPool &) = delete;

    ~TagPool()
    {
        for (auto &[bytes, b] : buckets) {
            for (void *buf : b.idle)
                unmap(buf, bytes);
        }
    }

    static TagPool &
    local()
    {
        thread_local TagPool pool;
        return pool;
    }

    void *
    acquire(std::size_t bytes)
    {
        Bucket &b = buckets[bytes];
        b.peakLive = std::max(b.peakLive, ++b.live);
        // Reserve here so that release() never allocates.
        b.idle.reserve(b.peakLive);
        if (!b.idle.empty()) {
            void *buf = b.idle.back();
            b.idle.pop_back();
            BULKSC_UNPOISON(buf, bytes);
            return buf;
        }
        void *buf = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (buf == MAP_FAILED)
            throw std::bad_alloc();
        return buf;
    }

    /** Take back an all-zero buffer (possibly acquired on another
     *  thread). */
    void
    release(void *buf, std::size_t bytes) noexcept
    {
        auto it = buckets.find(bytes);
        if (it == buckets.end() ||
            it->second.idle.size() >= it->second.peakLive) {
            unmap(buf, bytes);
        } else {
            BULKSC_POISON(buf, bytes);
            it->second.idle.push_back(buf);
        }
        if (it != buckets.end() && it->second.live > 0)
            --it->second.live;
    }

  private:
    struct Bucket
    {
        std::vector<void *> idle;
        std::size_t live = 0;
        std::size_t peakLive = 0;
    };

    static void
    unmap(void *buf, std::size_t bytes)
    {
        // Clear the shadow first: a later mapping may reuse the range.
        BULKSC_UNPOISON(buf, bytes);
        munmap(buf, bytes);
    }

    std::unordered_map<std::size_t, Bucket> buckets;
};

} // namespace

CacheArray::CacheArray(const CacheGeometry &g)
    : geom(g), setMask(g.setMask())
{
    geom.validate();
    lines = static_cast<CacheLine *>(
        TagPool::local().acquire(geom.numLines() * sizeof(CacheLine)));
}

CacheArray::~CacheArray()
{
    if (!lines)
        return; // moved from
    // Only filled sets were ever written; the rest are still zero.
    for (std::uint32_t set : occupied)
        std::fill_n(&lines[std::size_t{set} * geom.assoc], geom.assoc,
                    CacheLine{});
    TagPool::local().release(lines, geom.numLines() * sizeof(CacheLine));
}

CacheArray::CacheArray(CacheArray &&other) noexcept
    : geom(other.geom), setMask(other.setMask),
      lines(std::exchange(other.lines, nullptr)),
      occupied(std::move(other.occupied)),
      lruCounter(other.lruCounter), nHits(other.nHits),
      nMisses(other.nMisses)
{
}

CacheLine *
CacheArray::findWay(LineAddr line) const
{
    CacheLine *base = &lines[std::size_t{setOf(line)} * geom.assoc];
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid() && base[w].line == line)
            return &base[w];
    }
    return nullptr;
}

CacheLine *
CacheArray::lookup(LineAddr line)
{
    CacheLine *entry = findWay(line);
    if (entry) {
        entry->lruStamp = ++lruCounter;
        ++nHits;
    } else {
        ++nMisses;
    }
    return entry;
}

const CacheLine *
CacheArray::peek(LineAddr line) const
{
    return findWay(line);
}

CacheLine *
CacheArray::insert(LineAddr line, LineState state,
                   const VictimFilter &filter,
                   std::optional<Victim> &victim)
{
    victim.reset();
    const std::uint32_t set = setOf(line);
    CacheLine *base = &lines[std::size_t{set} * geom.assoc];

    // Reuse the existing way if the line is already present.
    CacheLine *target = nullptr;
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid() && base[w].line == line) {
            target = &base[w];
            break;
        }
    }

    // Otherwise take an invalid way, or the LRU way that may be evicted.
    if (!target) {
        for (unsigned w = 0; w < geom.assoc; ++w) {
            if (!base[w].valid()) {
                target = &base[w];
                break;
            }
        }
    }
    // A set's first fill takes way 0, and a way's LRU stamp never
    // returns to zero, so a zero stamp there marks a never-filled set.
    if (base[0].lruStamp == 0)
        occupied.push_back(set);
    if (!target) {
        // Clean-first LRU: displacing a clean line costs only a
        // refetch, while a dirty victim needs a writeback — so prefer
        // the LRU clean line and fall back to the LRU dirty one.
        CacheLine *lru_clean = nullptr;
        CacheLine *lru_dirty = nullptr;
        for (unsigned w = 0; w < geom.assoc; ++w) {
            if (filter && !filter(base[w].line))
                continue;
            if (base[w].state == LineState::Dirty) {
                if (!lru_dirty ||
                    base[w].lruStamp < lru_dirty->lruStamp)
                    lru_dirty = &base[w];
            } else {
                if (!lru_clean ||
                    base[w].lruStamp < lru_clean->lruStamp)
                    lru_clean = &base[w];
            }
        }
        CacheLine *lru = lru_clean ? lru_clean : lru_dirty;
        if (!lru)
            return nullptr; // every way vetoed
        victim = Victim{lru->line, lru->state == LineState::Dirty};
        target = lru;
    }

    target->line = line;
    target->state = state;
    target->lruStamp = ++lruCounter;
    return target;
}

LineState
CacheArray::invalidate(LineAddr line)
{
    CacheLine *entry = findWay(line);
    if (!entry)
        return LineState::Invalid;
    LineState prev = entry->state;
    entry->state = LineState::Invalid;
    return prev;
}

void
CacheArray::forEachInSet(
    std::uint32_t set_idx,
    const std::function<void(const CacheLine &)> &fn) const
{
    const CacheLine *base = &lines[std::size_t{set_idx} * geom.assoc];
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid())
            fn(base[w]);
    }
}

std::uint64_t
CacheArray::fingerprint() const
{
    // Commutative fold, so neither way placement nor set order
    // matters; never-filled sets hold no valid line.
    std::uint64_t h = 0;
    for (std::uint32_t set : occupied) {
        const CacheLine *base = &lines[std::size_t{set} * geom.assoc];
        for (unsigned w = 0; w < geom.assoc; ++w) {
            if (base[w].valid())
                h += mix64(base[w].line * 4 +
                           static_cast<std::uint64_t>(base[w].state));
        }
    }
    return h;
}

} // namespace bulksc
