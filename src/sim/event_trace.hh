/**
 * @file
 * Structured chunk-lifecycle event tracing.
 *
 * The simulator's one trace plane. The EventTrace sink records *typed*
 * events (chunk start/commit/squash, arbitration request/grant/deny,
 * commit begin/end, directory expansions and bounces, bulk
 * invalidations, barrier arrivals, faults, resends, watchdog actions)
 * into a fixed-capacity ring buffer with tick timestamps. The recorded
 * stream can be exported as Chrome `trace_event` JSON — one track per
 * processor plus arbiter and directory tracks — and opened directly in
 * chrome://tracing or https://ui.perfetto.dev, or rendered as one text
 * line per event for humans.
 *
 * A sink belongs to one run: System::enableTrace() creates it and
 * hands every component a non-owning pointer (SimObjects through
 * their EventQueue, the checkers through the AnalysisEngine). Without
 * a sink every instrumentation site costs a single predicted branch
 * on that null pointer. A sink filters events by its TraceCat
 * category mask, so `--trace-cats squash,commit` records only those
 * event families. Two runs on two threads trace independently.
 *
 * Per-type totals are counted independently of the ring (the ring
 * keeps the most recent `capacity` events; the counters never drop),
 * which lets tests cross-check event counts against the statistics
 * counters.
 */

#ifndef BULKSC_SIM_EVENT_TRACE_HH
#define BULKSC_SIM_EVENT_TRACE_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bulksc {

/** Trace categories (bitmask): the families events are filtered by. */
enum class TraceCat : std::uint32_t
{
    Chunk = 1u << 0,     //!< chunk start/end
    Commit = 1u << 1,    //!< arbitration and commit flow
    Squash = 1u << 2,    //!< squashes and rollbacks
    Coherence = 1u << 3, //!< directory / invalidation actions
    Sync = 1u << 4,      //!< barrier arrivals
    Analysis = 1u << 5,  //!< SC violations and data races found
    Fault = 1u << 6,     //!< fault injections, resends and give-ups
    Watchdog = 1u << 7,  //!< forward-progress watchdog actions
};

/** Short printable name of a category. */
const char *traceCatName(TraceCat cat);

/**
 * Parse a comma-separated category list ("chunk,squash" or "all")
 * into @p mask. Matching is case-insensitive and empty tokens are
 * skipped. @return false, with @p err naming the offending token and
 * the known names, on an unknown name.
 */
bool parseTraceCategories(const std::string &spec, std::uint32_t &mask,
                          std::string &err);

/** Typed chunk-lifecycle events. */
enum class TraceEventType : std::uint8_t
{
    ChunkStart,  //!< chunk opened (proc track; arg = target size)
    ChunkCommit, //!< chunk left the pipeline by commit (arg = instrs)
    ChunkSquash, //!< chunk discarded by a squash (arg = instrs)
    Squash,      //!< one squash occurrence (arg = chunks squashed)
    ArbRequest,  //!< commit request sent (proc track)
    ArbGrant,    //!< grant received at the processor
    ArbDeny,     //!< denial received at the processor
    ArbDecision, //!< decision made at the arbiter (cause 1 = grant)
    CommitBegin, //!< W handed to the memory system (proc track)
    CommitEnd,   //!< all directory acks collected (proc track)
    DirBounce,   //!< read bounced off a committing W (dir track)
    BulkInval,   //!< W delivered to a cache for bulk invalidation
    ScViolation, //!< axiomatic checker found a cycle (arg = address)
    RaceDetected, //!< happens-before race (arg = address; cause =
                  //!< 1 for a racing write)
    FaultInject,  //!< fault plane fired (arg = FaultKind index)
    Resend,       //!< protocol retransmission (arg = attempt number)
    DirNack,      //!< directory refused a commit W delivery
    WatchdogRescue, //!< watchdog forced a starved proc's chunk small
    WatchdogTrip, //!< watchdog verdict reached (arg = verdict code)
    ResendGiveUp, //!< retransmissions exhausted (arg = attempts)
    DirExpand,    //!< directory expanded a commit W (arg = lookups)
    BarrierArrive, //!< processor arrived at a barrier (arg = new count)
    NumTypes,
};

/** Why a squash happened, from the exact address sets. */
enum class SquashCause : std::uint8_t
{
    None = 0,
    TrueConflict,  //!< the exact R/W sets really intersect W
    FalsePositive, //!< only the Bloom encodings intersect (aliasing)
    Unattributed,  //!< exact mirrors off — cause unknown
};

/** Short printable name of an event type. */
const char *traceEventTypeName(TraceEventType t);

/** Short printable name of a squash cause. */
const char *squashCauseName(SquashCause c);

/** The TraceCat family an event type belongs to (for mask filtering). */
TraceCat traceEventCat(TraceEventType t);

/** One recorded event (32 bytes; the ring is a flat array of these). */
struct TraceEvent
{
    Tick tick;
    std::uint64_t seq; //!< chunk sequence number, or 0
    std::uint64_t arg; //!< type-specific payload
    std::uint16_t track;
    TraceEventType type;
    std::uint8_t cause; //!< SquashCause, or grant/deny flag
};

// --- track identifiers ---------------------------------------------------
// Tracks are small integers: processors from 0, directory modules from
// kTrackDirBase, arbiter modules from kTrackArbBase.

constexpr std::uint16_t kTrackDirBase = 0x100;
constexpr std::uint16_t kTrackArbBase = 0x200;

constexpr std::uint16_t
trackProc(ProcId p)
{
    return static_cast<std::uint16_t>(p);
}

constexpr std::uint16_t
trackDir(unsigned d)
{
    return static_cast<std::uint16_t>(kTrackDirBase + d);
}

constexpr std::uint16_t
trackArb(unsigned a)
{
    return static_cast<std::uint16_t>(kTrackArbBase + a);
}

/** Human-readable track name ("cpu3", "dir0", "arbiter0"). */
std::string trackName(std::uint16_t track);

/** One run's event sink (see System::enableTrace()). */
class EventTrace
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

    /**
     * A sink recording events whose family is in @p cat_mask, keeping
     * the most recent @p capacity events.
     */
    explicit EventTrace(std::uint32_t cat_mask,
                        std::size_t capacity = kDefaultCapacity);

    /** Record one event (called through the EVENT_TRACE macro). */
    void record(TraceEventType type, Tick tick, std::uint16_t track,
                std::uint64_t seq = 0, std::uint64_t arg = 0,
                std::uint8_t cause = 0);

    /** Total events recorded of @p type (not reduced by ring drops). */
    std::uint64_t count(TraceEventType type) const;

    /** Total events recorded across all types. */
    std::uint64_t recorded() const { return total; }

    /** Events pushed out of the ring by newer ones. */
    std::uint64_t dropped() const { return nDropped; }

    /** Events currently held in the ring. */
    std::size_t size() const;

    /** Ring contents in chronological (record) order. */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Export the ring as Chrome trace_event JSON. Chunk, arbitration,
     * and commit start/end pairs become complete ("X") spans; squashes,
     * arbiter decisions, bounces, and bulk invalidations become instant
     * ("i") events. One tick maps to one microsecond of trace time.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace() to @p path. @return false on I/O error. */
    bool exportChromeTrace(const std::string &path) const;

    /**
     * Render the ring in record order, one line per event:
     * `<tick>: [<category>] <track> <type> seq=<seq> arg=<arg>`,
     * followed by ` cause=<cause>` for squashes (the attributed cause)
     * and arbiter decisions (grant or deny).
     */
    void writeText(std::ostream &os) const;

  private:
    std::uint32_t catMask = 0;
    std::vector<TraceEvent> ring;
    std::size_t cap = 0;
    std::size_t head = 0; //!< next slot to write
    std::uint64_t total = 0;
    std::uint64_t nDropped = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(TraceEventType::NumTypes)>
        counts{};
};

/**
 * Record an event into the sink `traceSink()` names at the call site
 * (SimObject::traceSink(), or the checkers' own): a single predicted
 * branch when that is null. Usage:
 *   EVENT_TRACE(TraceEventType::ChunkStart, curTick(), trackProc(pid),
 *               seq, target);
 */
#define EVENT_TRACE(type, tick, track, ...)                             \
    do {                                                                \
        if (::bulksc::EventTrace *bulksc_sink_ = traceSink())           \
            [[unlikely]] {                                              \
            bulksc_sink_->record(type, tick,                            \
                                 track __VA_OPT__(, ) __VA_ARGS__);     \
        }                                                               \
    } while (0)

} // namespace bulksc

#endif // BULKSC_SIM_EVENT_TRACE_HH
