/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated machine. Events are
 * callbacks scheduled at an absolute tick; events scheduled for the same
 * tick fire in FIFO order of scheduling, which makes every simulation run
 * bit-for-bit reproducible.
 *
 * The kernel is a timing wheel: events within kHorizon ticks of now()
 * land in per-tick bucket vectors addressed by `when mod kHorizon`, and
 * a bitmap over the buckets finds the next occupied tick with a couple
 * of word scans. A due bucket is swapped whole into a scratch batch and
 * its callbacks invoked in place — no per-event move — while same-tick
 * reschedules accumulate in the (emptied) bucket for the next pass.
 * The swap also ping-pongs vector capacity between the scratch batch
 * and the buckets, and the InlineCallback event representation stores
 * captures in place, so steady-state scheduling performs no heap
 * allocation at all. The rare event beyond the horizon (idle-phase
 * timeouts, run limits) waits in a tick-keyed overflow map whose
 * batches drain through the same scratch buffer.
 */

#ifndef BULKSC_SIM_EVENT_QUEUE_HH
#define BULKSC_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bulksc {

class EventTrace;
class ScheduleController;

/**
 * The central event queue. All timed behaviour in the simulator is
 * expressed as callbacks scheduled on an instance of this class.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Tag of events that are not schedulable choices (must equal
     *  ScheduleController::kNoTag; static_assert'd in the .cc). */
    static constexpr std::uint32_t kUntagged = ~std::uint32_t{0};

    /** Wheel span in ticks (power of two). Covers every latency the
     *  machine model schedules on its hot path (memory round trip 300,
     *  capped spin backoff 200) while keeping the bucket headers small
     *  enough to stay L1-resident; longer waits take the far path. */
    static constexpr std::size_t kHorizon = 512;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * The event is emplace-constructed directly in its bucket — no
     * intermediate Callback object, no move.
     *
     * @param when Absolute tick; must be >= now().
     * @param f Callable to invoke.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        panic_if(when < _now, "scheduling event in the past: ", when,
                 " < ", _now);
        if (when - _now < kHorizon) {
            std::size_t idx = static_cast<std::size_t>(when) & kMask;
            wheel[idx].emplace_back(std::forward<F>(f));
            markBucket(idx);
            if (ctrl) [[unlikely]] {
                wheelTags[idx].push_back(stagedTag);
                stagedTag = kUntagged;
            }
        } else {
            farBatch(when).emplace_back(std::forward<F>(f));
            // Far events are never reorderable choices.
            stagedTag = kUntagged;
        }
    }

    /**
     * Schedule a callback @p delta ticks in the future.
     */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&f)
    {
        schedule(_now + delta, std::forward<F>(f));
    }

    /**
     * Schedule a callback carrying a controller tag: if a controller
     * is attached and the event lands on the wheel, its batch becomes
     * a choice point the controller may permute. Without a controller
     * this is exactly schedule().
     */
    template <typename F>
    void
    scheduleTagged(Tick when, std::uint32_t tag, F &&f)
    {
        stagedTag = tag;
        schedule(when, std::forward<F>(f));
    }

    /**
     * Attach (or detach, with nullptr) a schedule controller. Must be
     * called while the queue is empty — tag bookkeeping only mirrors
     * events scheduled afterwards.
     */
    void setController(ScheduleController *c);

    /** The attached controller, or nullptr. */
    ScheduleController *controller() const { return ctrl; }

    /** Point the SimObjects on this queue at their run's event sink
     *  (non-owning; nullptr records nothing). */
    void setTrace(EventTrace *t) { sink = t; }

    /** The run's event sink, or nullptr. */
    EventTrace *trace() const { return sink; }

    /** @return true if no events remain. */
    bool
    empty() const
    {
        return summary == 0 && far.empty() && curHead >= cur.size();
    }

    /** @return the number of pending events (walks the wheel — meant
     *  for tests and teardown checks, not the simulation hot path). */
    std::size_t size() const;

    /** @return the tick of the earliest pending event (kTickNever if
     *  the queue is empty). */
    Tick nextEventTick() const;

    /**
     * Run until the queue drains or @p limit ticks is reached.
     *
     * @param limit Stop (without firing) events past this tick.
     * @return the tick of the last event fired (or now() if none fired).
     */
    Tick run(Tick limit = kTickNever);

    /**
     * Request that run() return at the next batch boundary.
     *
     * Callable from inside a firing event (the watchdog uses this to
     * halt a wedged simulation); the current batch finishes so
     * same-tick FIFO order is preserved, then run() returns. The flag
     * is cleared at the next run() entry.
     */
    void stop() { stopRequested = true; }

    /** @return true if stop() was called during the last run(). */
    bool stopped() const { return stopRequested; }

    /**
     * Fire a single event.
     *
     * @return true if an event was fired, false if the queue was empty.
     */
    bool step();

    /** Total number of events processed so far. */
    std::uint64_t eventsFired() const { return fired; }

  private:
    static constexpr std::size_t kMask = kHorizon - 1;
    static constexpr std::size_t kWords = kHorizon / 64;

    /** Earliest occupied wheel tick, or kTickNever. All wheel events
     *  satisfy when in [_now, _now + kHorizon), so the bucket index
     *  uniquely identifies the tick. */
    Tick nextWheelTick() const;

    /** Pull the next due batch (far batches at a tick precede wheel
     *  events at the same tick: they were necessarily scheduled at an
     *  earlier now()) into cur and advance _now. @return false if the
     *  earliest batch is past @p limit (nothing pulled). Defined here
     *  so the per-batch hot path inlines into run()/step(). */
    bool
    pullBatch(Tick limit)
    {
        Tick tw = nextWheelTick();
        Tick t = tw < farNext ? tw : farNext;
        if (t == kTickNever || t > limit)
            return false;
        _now = t;
        if (farNext <= tw) [[unlikely]] {
            pullFar();
            if (ctrl) [[unlikely]]
                curTags.assign(cur.size(), kUntagged);
        } else {
            // Swap the due bucket out whole; same-tick events
            // appended by a firing callback land in the (emptied)
            // bucket, re-mark it, and are pulled by the caller's
            // recheck — preserving global FIFO order within the tick.
            std::size_t idx = static_cast<std::size_t>(t) & kMask;
            cur.swap(wheel[idx]);
            clearBucket(idx);
            if (ctrl) [[unlikely]]
                applyControl(idx);
        }
        curHead = 0;
        return true;
    }

    /** Move the earliest far batch into cur, recycling cur's storage
     *  through the spare slot. */
    void pullFar();

    /** Controlled mode: sync curTags with the freshly pulled bucket
     *  @p idx and let the controller permute the batch. */
    void applyControl(std::size_t idx);

    void
    markBucket(std::size_t idx)
    {
        occupied[idx / 64] |= std::uint64_t{1} << (idx % 64);
        summary |= std::uint32_t{1} << (idx / 64);
    }

    void
    clearBucket(std::size_t idx)
    {
        std::uint64_t w = occupied[idx / 64] &=
            ~(std::uint64_t{1} << (idx % 64));
        if (!w)
            summary &= ~(std::uint32_t{1} << (idx / 64));
    }

    /** The far batch for tick @p when (>= kHorizon out), created if
     *  needed; keeps the overflow list sorted and farNext current. */
    std::vector<Callback> &farBatch(Tick when);

    std::array<std::vector<Callback>, kHorizon> wheel;
    std::uint64_t occupied[kWords] = {};

    /** One bit per occupied[] word with any bit set: finds the next
     *  occupied wheel slot without looping over the bitmap. */
    std::uint32_t summary = 0;
    static_assert(kWords <= 32, "summary bitmap is one 32-bit word");

    /** Events at least kHorizon ticks out: (tick, batch) pairs sorted
     *  by tick descending, so the earliest batch pops off the back.
     *  Entries are few (long io waits, run limits) and the vector
     *  recycles its storage — no per-event node allocation. */
    std::vector<std::pair<Tick, std::vector<Callback>>> far;

    /** Cached earliest far tick (kTickNever when far is empty), so
     *  the per-batch scheduling decision is two compares. */
    Tick farNext = kTickNever;

    /** Spare batch storage: far entry -> cur -> spare -> next far
     *  entry, so far scheduling allocates nothing in steady state. */
    std::vector<Callback> spare;

    /** The batch currently being drained (its tick == _now): a wheel
     *  bucket swapped out whole, or a far-map batch. Callbacks are
     *  invoked in place through curHead; the vector is cleared (keeping
     *  capacity) only once the whole batch has fired. */
    std::vector<Callback> cur;
    std::size_t curHead = 0;

    Tick _now = 0;
    std::uint64_t fired = 0;
    bool stopRequested = false;

    // --- schedule-controller plumbing (inert unless ctrl is set) ---

    ScheduleController *ctrl = nullptr;

    /** Tag staged by scheduleTagged() for the next schedule() call. */
    std::uint32_t stagedTag = kUntagged;

    /** Per-bucket tag vectors mirroring wheel[] (controlled mode). */
    std::array<std::vector<std::uint32_t>, kHorizon> wheelTags;

    /** Tags mirroring cur (controlled mode). */
    std::vector<std::uint32_t> curTags;

    /** Permutation scratch, reused across batches. */
    std::vector<std::uint32_t> ctrlOrder;
    std::vector<Callback> ctrlScratch;
    std::vector<std::uint32_t> ctrlTagScratch;

    EventTrace *sink = nullptr;
};

/**
 * Base class for named simulation components. Provides access to the
 * shared event queue, the run's event sink, and a hierarchical name
 * used in stats.
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : eventq(eq), _name(std::move(name))
    {}

    virtual ~SimObject() = default;

    const std::string &name() const { return _name; }

    Tick curTick() const { return eventq.now(); }

  protected:
    /** The sink EVENT_TRACE records into (null when not tracing). */
    EventTrace *traceSink() const { return eventq.trace(); }

    EventQueue &eventq;

  private:
    std::string _name;
};

} // namespace bulksc

#endif // BULKSC_SIM_EVENT_QUEUE_HH
