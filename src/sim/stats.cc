#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/types.hh"

namespace bulksc {

unsigned
Histogram::bucketOf(double v)
{
    if (v < 1.0)
        return 0;
    auto u = static_cast<std::uint64_t>(v);
    unsigned idx = floorLog2(u) + 1;
    return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

double
Histogram::percentile(double pct) const
{
    if (n == 0)
        return 0.0;
    double rank = pct / 100.0 * static_cast<double>(n);
    if (rank < 1.0)
        rank = 1.0;
    if (rank > static_cast<double>(n))
        rank = static_cast<double>(n);

    std::uint64_t cum = 0;
    for (unsigned i = 0; i < kNumBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        double before = static_cast<double>(cum);
        cum += buckets[i];
        if (rank > static_cast<double>(cum))
            continue;
        double b_lo = i == 0 ? lo
                             : static_cast<double>(std::uint64_t{1}
                                                   << (i - 1));
        double b_hi = i == 0 ? 1.0
                             : static_cast<double>(std::uint64_t{1} << i);
        double frac =
            (rank - before) / static_cast<double>(buckets[i]);
        double v = b_lo + frac * (b_hi - b_lo);
        return std::clamp(v, lo, hi);
    }
    return hi;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.n == 0)
        return;
    if (n == 0 || other.lo < lo)
        lo = other.lo;
    if (n == 0 || other.hi > hi)
        hi = other.hi;
    sum += other.sum;
    n += other.n;
    for (unsigned i = 0; i < kNumBuckets; ++i)
        buckets[i] += other.buckets[i];
}

void
Histogram::reset()
{
    buckets.fill(0);
    lo = hi = sum = 0.0;
    n = 0;
}

void
Histogram::dumpInto(StatGroup &sg, const std::string &prefix) const
{
    sg.set(prefix + "samples", static_cast<double>(n));
    sg.set(prefix + "mean", mean());
    sg.set(prefix + "min", min());
    sg.set(prefix + "max", max());
    sg.set(prefix + "p50", percentile(50.0));
    sg.set(prefix + "p90", percentile(90.0));
    sg.set(prefix + "p99", percentile(99.0));
}

void
StatGroup::set(const std::string &key, double value)
{
    vals[key] = value;
}

void
StatGroup::add(const std::string &key, double value)
{
    vals[key] += value;
}

double
StatGroup::get(const std::string &key, double fallback) const
{
    auto it = vals.find(key);
    return it == vals.end() ? fallback : it->second;
}

bool
StatGroup::has(const std::string &key) const
{
    return vals.count(key) != 0;
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &[k, v] : other.vals)
        vals[k] = v;
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    for (const auto &[k, v] : vals)
        os << prefix << k << " " << v << "\n";
}

void
StatGroup::dumpJson(std::ostream &os, const std::string &indent) const
{
    if (vals.empty()) {
        os << "{}";
        return;
    }
    os << "{";
    dumpJsonMembers(os, "\n" + indent, ",\n" + indent);
    os << "\n}";
}

void
StatGroup::dumpJsonMembers(std::ostream &os, const std::string &lead,
                           const std::string &sep) const
{
    bool first = true;
    for (const auto &[k, v] : vals) {
        os << (first ? lead : sep) << "\"" << jsonEscape(k)
           << "\": " << jsonNumber(v);
        first = false;
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace bulksc
