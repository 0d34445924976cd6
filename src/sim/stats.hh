/**
 * @file
 * A small statistics framework in the spirit of the gem5 stats package.
 *
 * Components keep their own plain counters and log2 histograms and
 * write them into a StatGroup — a flat name/value table — at dump time,
 * together with formula-style derived values (rates, means) computed
 * by the owner.
 */

#ifndef BULKSC_SIM_STATS_HH
#define BULKSC_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace bulksc {

class StatGroup;

/**
 * Log2-bucketed histogram over a stream of samples.
 *
 * Bucket 0 holds samples below 1 (including negatives and zero);
 * bucket i >= 1 holds samples in [2^(i-1), 2^i). Alongside the bucket
 * counts the exact min/max/sum are kept, so mean is exact and
 * percentiles are bucket-interpolated but clamped to the observed
 * range. Designed for latency/size distributions where a factor-of-two
 * resolution is plenty and memory must stay constant.
 */
class Histogram
{
  public:
    static constexpr unsigned kNumBuckets = 64;

    void
    sample(double v)
    {
        if (n == 0 || v < lo)
            lo = v;
        if (n == 0 || v > hi)
            hi = v;
        sum += v;
        ++n;
        ++buckets[bucketOf(v)];
    }

    std::uint64_t samples() const { return n; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double total() const { return sum; }

    /**
     * Percentile estimate for @p pct in [0, 100]: linear interpolation
     * inside the covering log2 bucket, clamped to [min(), max()].
     */
    double percentile(double pct) const;

    /** Accumulate @p other into this histogram. */
    void merge(const Histogram &other);

    void reset();

    /** Write samples/mean/min/max/p50/p90/p99 under @p prefix. */
    void dumpInto(StatGroup &sg, const std::string &prefix) const;

    const std::array<std::uint64_t, kNumBuckets> &bucketCounts() const
    {
        return buckets;
    }

  private:
    static unsigned bucketOf(double v);

    std::array<std::uint64_t, kNumBuckets> buckets{};
    double lo = 0.0;
    double hi = 0.0;
    double sum = 0.0;
    std::uint64_t n = 0;
};

/**
 * A flat named collection of scalar statistics. Components expose their
 * stats by writing name/value pairs into a StatGroup at dump time; the
 * System merges groups into a final report.
 */
class StatGroup
{
  public:
    void set(const std::string &key, double value);

    /** Add @p value to the entry (creating it at zero if absent). */
    void add(const std::string &key, double value);

    /** @return the value for @p key, or @p fallback if absent. */
    double get(const std::string &key, double fallback = 0.0) const;

    bool has(const std::string &key) const;

    /** Merge all entries of @p other into this group (overwrites). */
    void merge(const StatGroup &other);

    const std::map<std::string, double> &entries() const { return vals; }

    /** Print "key value" lines, sorted by key. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Print the group as a complete JSON object, one member per line
     * under @p indent ("{}" when empty).
     */
    void dumpJson(std::ostream &os, const std::string &indent = "  ") const;

    /**
     * The one stats-to-JSON writer: every entry as a `"key": value`
     * member, sorted by key, @p lead before the first and @p sep
     * before each later one. Keys are escaped, and non-finite values
     * (which JSON cannot represent) become null.
     */
    void dumpJsonMembers(std::ostream &os, const std::string &lead,
                         const std::string &sep) const;

  private:
    std::map<std::string, double> vals;
};

/** Escape @p s for use inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Render @p v as a JSON number ("null" for NaN/infinity). */
std::string jsonNumber(double v);

} // namespace bulksc

#endif // BULKSC_SIM_STATS_HH
