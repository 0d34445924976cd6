/**
 * @file
 * A move-only type-erased callable with small-buffer storage, used as
 * the event representation of the DES kernel.
 *
 * Unlike std::function, the capture is stored inline in the event
 * itself, so scheduling an event performs no heap allocation; the
 * bucket vectors of the EventQueue recycle this storage run over run.
 * kInlineBytes is a hard limit: a larger capture does not compile.
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
    /** Capture limit, enforced at compile time. Processor, sync-engine
     *  and memory-request events (this, an epoch or access tag and a
     *  few scalars) take at most 32 bytes. Commit-protocol events name
     *  their records by id and carry at most the immutable W and R
     *  (two shared_ptrs); the largest, an arbiter's request delivery or
     *  decision step, takes 64. */
    static constexpr std::size_t kInlineBytes = 64;

    InlineCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f) // NOLINT: implicit from any callable
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "capture exceeds InlineCallback::kInlineBytes");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "an event's capture must move without throwing");
        ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
        invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
        if constexpr (!std::is_trivially_copyable_v<Fn> ||
                      !std::is_trivially_destructible_v<Fn>) {
            manage_ = [](void *dst, void *src) {
                if (dst) {
                    ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                }
                static_cast<Fn *>(src)->~Fn();
            };
        }
        // Otherwise the trivial fast path: manage_ stays null.
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
