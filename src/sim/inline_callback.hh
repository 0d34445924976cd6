/**
 * @file
 * A move-only type-erased callable with small-buffer storage, used as
 * the event representation of the DES kernel.
 *
 * Unlike std::function, captures up to kInlineBytes are stored inline
 * in the event itself, so scheduling an event performs no heap
 * allocation; the bucket vectors of the EventQueue recycle this storage
 * run over run. Larger callables fall back to a single heap cell.
 *
 * Callables that are trivially copyable and trivially destructible
 * (most of the simulator's hot-path lambdas: a this pointer plus a few
 * scalars) leave manage_ null: moving them is a byte copy and
 * destroying them a no-op, so bucket drains touch no function pointers
 * beyond the single invoke.
 */

#ifndef BULKSC_SIM_INLINE_CALLBACK_HH
#define BULKSC_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bulksc {

class InlineCallback
{
  public:
    /** Inline capture budget. Processor, sync-engine and memory-request
     *  events (this, an epoch and a few scalars) take at most 32 bytes.
     *  Commit-protocol events name their records by id and carry at
     *  most the immutable W and R (two shared_ptrs); the largest, an
     *  arbiter's request delivery or decision step, takes 64. */
    static constexpr std::size_t kInlineBytes = 64;

    InlineCallback() noexcept = default;

    /** The empty callback (a memory access nobody waits for). */
    InlineCallback(std::nullptr_t) noexcept {} // NOLINT: implicit

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f) // NOLINT: implicit from any callable
    {
        using Fn = std::decay_t<F>;
        constexpr bool fits =
            sizeof(Fn) <= kInlineBytes &&
            alignof(Fn) <= alignof(std::max_align_t);
        if constexpr (fits && std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn>) {
            // Trivial fast path: manage_ stays null.
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
        } else if constexpr (fits &&
                             std::is_nothrow_move_constructible_v<
                                 Fn>) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            manage_ = [](void *dst, void *src) {
                if (dst) {
                    ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                }
                static_cast<Fn *>(src)->~Fn();
            };
        } else {
            // Oversized capture: one heap cell, pointer stored inline.
            auto **slot = reinterpret_cast<Fn **>(buf);
            *slot = new Fn(std::forward<F>(f));
            invoke_ = [](void *p) { (**static_cast<Fn **>(p))(); };
            manage_ = [](void *dst, void *src) {
                if (dst) {
                    *static_cast<Fn **>(dst) =
                        *static_cast<Fn **>(src);
                } else {
                    delete *static_cast<Fn **>(src);
                }
            };
        }
    }

    InlineCallback(InlineCallback &&o) noexcept
        : invoke_(o.invoke_), manage_(o.manage_)
    {
        if (manage_)
            manage_(buf, o.buf);
        else if (invoke_)
            std::memcpy(buf, o.buf, kInlineBytes);
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
    }

    InlineCallback &
    operator=(InlineCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            invoke_ = o.invoke_;
            manage_ = o.manage_;
            if (manage_)
                manage_(buf, o.buf);
            else if (invoke_)
                std::memcpy(buf, o.buf, kInlineBytes);
            o.invoke_ = nullptr;
            o.manage_ = nullptr;
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback()
    {
        // Not reset(): nulling the pointers of a dying object is a
        // wasted store in the batch-destroy loop of the event kernel.
        if (manage_)
            manage_(nullptr, buf);
    }

    void operator()() { invoke_(buf); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

  private:
    void
    reset() noexcept
    {
        if (manage_) {
            manage_(nullptr, buf);
            manage_ = nullptr;
        }
        invoke_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf[kInlineBytes];

    /** Call the stored callable in place. */
    void (*invoke_)(void *) = nullptr;

    /** dst != nullptr: move-construct into dst, destroy src.
     *  dst == nullptr: destroy src. Null for trivially-relocatable
     *  callables (byte-copy move, no-op destroy). */
    void (*manage_)(void *dst, void *src) = nullptr;
};

} // namespace bulksc

#endif // BULKSC_SIM_INLINE_CALLBACK_HH
