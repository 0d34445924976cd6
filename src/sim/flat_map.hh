/**
 * @file
 * An open-addressed hash map over unsigned integer keys: the one table
 * behind the directory entries, the L1 MSHRs and the committed-value
 * store.
 *
 * Entries live in one power-of-two array. The home slot of a key is the
 * top bits of a multiplicative (Fibonacci) hash, so a lookup costs one
 * multiply and a shift, never a division; collisions probe linearly,
 * and erase shifts the following entries of the probe run back instead
 * of leaving tombstones. A map allocates nothing until its first
 * insert, so a component that never uses its table costs nothing.
 *
 * The all-ones key marks a free slot and may not be stored. Any insert
 * may move every entry and any erase may move entries of the erased
 * key's probe run: hold no pointer into the map across either.
 * Iteration order is the slot order. It depends on the sequence of
 * inserts and erases as well as on the keys and the capacity (keys that
 * share a home slot land in insertion order, and an erase reorders its
 * probe run), so no loop over a FlatMap may depend on its order.
 */

#ifndef BULKSC_SIM_FLAT_MAP_HH
#define BULKSC_SIM_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace bulksc {

template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K>, "FlatMap keys are unsigned");

  public:
    /** The free-slot marker; never a stored key. */
    static constexpr K kEmpty = ~K{0};

    /** One slot; .first == kEmpty marks it free. The names follow
     *  std::pair so structured bindings read as for the std maps. */
    struct Entry
    {
        K first = kEmpty;
        V second{};
    };

    std::size_t size() const { return count; }

    /** Slots allocated (0 before the first insert). */
    std::size_t capacity() const { return slots ? mask + 1 : 0; }

    /** @return the value of @p k, or nullptr. */
    V *
    find(K k)
    {
        if (!slots)
            return nullptr;
        std::size_t i = probe(k);
        return slots[i].first == k ? &slots[i].second : nullptr;
    }

    const V *
    find(K k) const
    {
        return const_cast<FlatMap *>(this)->find(k);
    }

    bool contains(K k) const { return find(k) != nullptr; }

    /** The value of @p k, which must be present. */
    V &
    at(K k)
    {
        V *v = find(k);
        panic_if(!v, "FlatMap: no entry for key ", k);
        return *v;
    }

    const V &at(K k) const { return const_cast<FlatMap *>(this)->at(k); }

    /**
     * The value of @p k, inserting a value-initialized one if absent.
     * @return the value and whether it was inserted.
     */
    std::pair<V *, bool>
    tryEmplace(K k)
    {
        panic_if(k == kEmpty, "FlatMap: the all-ones key is reserved");
        std::size_t i = slots ? probe(k) : 0;
        if (slots && slots[i].first == k)
            return {&slots[i].second, false};
        // Grow at 3/4 load: linear probe runs stay short.
        if (4 * (count + 1) > 3 * capacity()) {
            rehash(slots ? 2 * (mask + 1) : kMinCapacity);
            i = probe(k);
        }
        slots[i].first = k;
        ++count;
        return {&slots[i].second, true};
    }

    V &operator[](K k) { return *tryEmplace(k).first; }

    /** Remove @p k. @return whether it was present. */
    bool
    erase(K k)
    {
        if (!slots)
            return false;
        std::size_t i = probe(k);
        if (slots[i].first != k)
            return false;
        // Back-shift: pull each later entry of the run whose home lies
        // cyclically at or before the hole into it, so every remaining
        // key stays reachable from its home without tombstones.
        for (std::size_t j = (i + 1) & mask; slots[j].first != kEmpty;
             j = (j + 1) & mask) {
            if (((j - home(slots[j].first)) & mask) >= ((j - i) & mask)) {
                slots[i] = std::move(slots[j]);
                i = j;
            }
        }
        slots[i] = Entry{};
        --count;
        return true;
    }

    template <typename E>
    class Iter
    {
      public:
        Iter(E *p, E *end) : cur(p), last(end) { skip(); }

        E &operator*() const { return *cur; }
        E *operator->() const { return cur; }

        Iter &
        operator++()
        {
            ++cur;
            skip();
            return *this;
        }

        bool operator==(const Iter &o) const { return cur == o.cur; }
        bool operator!=(const Iter &o) const { return cur != o.cur; }

      private:
        void
        skip()
        {
            while (cur != last && cur->first == kEmpty)
                ++cur;
        }

        E *cur;
        E *last;
    };

    using iterator = Iter<Entry>;
    using const_iterator = Iter<const Entry>;

    iterator begin() { return {slots.get(), slotsEnd()}; }
    iterator end() { return {slotsEnd(), slotsEnd()}; }
    const_iterator begin() const { return {slots.get(), slotsEnd()}; }
    const_iterator end() const { return {slotsEnd(), slotsEnd()}; }

  private:
    static constexpr std::size_t kMinCapacity = 8;

    std::size_t
    home(K k) const
    {
        // Fibonacci hashing: the top bits of the product mix every key
        // bit, so runs of consecutive lines spread over the table.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL) >>
            shift);
    }

    /** The slot holding @p k, or the free slot that ends its run. */
    std::size_t
    probe(K k) const
    {
        std::size_t i = home(k);
        while (slots[i].first != k && slots[i].first != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    Entry *
    slotsEnd() const
    {
        return slots ? slots.get() + mask + 1 : nullptr;
    }

    void
    rehash(std::size_t cap)
    {
        std::unique_ptr<Entry[]> old = std::move(slots);
        const std::size_t old_cap = old ? mask + 1 : 0;
        slots.reset(new Entry[cap]);
        mask = cap - 1;
        shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
        for (std::size_t j = 0; j < old_cap; ++j) {
            if (old[j].first == kEmpty)
                continue;
            std::size_t i = home(old[j].first);
            while (slots[i].first != kEmpty)
                i = (i + 1) & mask;
            slots[i] = std::move(old[j]);
        }
    }

    std::unique_ptr<Entry[]> slots;
    std::size_t mask = 0;
    unsigned shift = 64;
    std::size_t count = 0;
};

} // namespace bulksc

#endif // BULKSC_SIM_FLAT_MAP_HH
