/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is a named host-time interval with a parent span and the id
 * of the simulation or schedule it belongs to. Spans are recorded
 * only around calls the benchmark makes into the simulator's public
 * API, kept in memory, and written out once at the end as Chrome
 * trace_event JSON. A disabled recorder records nothing, so untraced
 * runs execute the same code without the bookkeeping.
 */

#ifndef BULKSC_PERFBENCH_SPANS_HH
#define BULKSC_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Index of "no span" (a disabled recorder, or a root's parent). */
    static constexpr int kNone = -1;

    explicit SpanRecorder(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span; returns its index (kNone when disabled). */
    int
    begin(const char *name, std::uint64_t id, int parent = kNone)
    {
        if (!on)
            return kNone;
        spans.push_back(Span{name, id, parent, nowUs(), -1.0});
        return static_cast<int>(spans.size()) - 1;
    }

    /** Close the span @p idx (no-op for kNone). */
    void
    end(int idx)
    {
        if (idx != kNone)
            spans[static_cast<std::size_t>(idx)].endUs = nowUs();
    }

    /** Record a span over an interval the caller timed itself. */
    void
    record(const char *name, std::uint64_t id, int parent,
           Clock::time_point start, Clock::time_point end)
    {
        if (on)
            spans.push_back(
                Span{name, id, parent, usOf(start), usOf(end)});
    }

    /** Per-name totals: span count, total and self time (seconds).
     *  Self time is the span's duration minus its children's. */
    struct Totals
    {
        std::uint64_t count = 0;
        double totalS = 0;
        double selfS = 0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write every span as Chrome trace_event JSON; false on I/O
     *  failure. */
    bool writeChrome(const std::string &path) const;

    std::size_t size() const { return spans.size(); }

  private:
    struct Span
    {
        const char *name;
        std::uint64_t id;
        int parent;
        double startUs;
        double endUs;
    };

    double
    usOf(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    }

    double nowUs() const { return usOf(Clock::now()); }

    bool on;
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

} // namespace perfbench

#endif // BULKSC_PERFBENCH_SPANS_HH
