/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/stats.hh"

namespace bulksc {
namespace {

TEST(Histogram, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(Histogram, SingleSamplePercentilesCollapse)
{
    Histogram h;
    h.sample(100.0);
    EXPECT_EQ(h.samples(), 1u);
    // With one sample every percentile is clamped to that value.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 100.0);
    EXPECT_DOUBLE_EQ(h.min(), 100.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, BucketsAreLog2)
{
    Histogram h;
    h.sample(0.0);   // bucket 0 (< 1)
    h.sample(-3.0);  // bucket 0 (negatives)
    h.sample(1.0);   // bucket 1: [1, 2)
    h.sample(2.0);   // bucket 2: [2, 4)
    h.sample(3.0);   // bucket 2
    h.sample(1024.0); // bucket 11: [1024, 2048)
    const auto &b = h.bucketCounts();
    EXPECT_EQ(b[0], 2u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 2u);
    EXPECT_EQ(b[11], 1u);
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.max(), 1024.0);
}

TEST(Histogram, PercentilesOrderedAndInRange)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    double p50 = h.percentile(50.0);
    double p90 = h.percentile(90.0);
    double p99 = h.percentile(99.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_GE(p50, h.min());
    EXPECT_LE(p99, h.max());
    // log2 buckets: the p50 estimate lives within the covering
    // power-of-two bucket of the true median (500 -> [256, 1024)).
    EXPECT_GE(p50, 256.0);
    EXPECT_LT(p50, 1024.0);
}

TEST(Histogram, MergeMatchesCombinedStream)
{
    Histogram a, b, both;
    for (double v : {1.0, 5.0, 9.0}) {
        a.sample(v);
        both.sample(v);
    }
    for (double v : {2.0, 100.0}) {
        b.sample(v);
        both.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.samples(), both.samples());
    EXPECT_DOUBLE_EQ(a.min(), both.min());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.total(), both.total());
    EXPECT_DOUBLE_EQ(a.percentile(90.0), both.percentile(90.0));

    Histogram empty;
    a.merge(empty); // no-op
    EXPECT_EQ(a.samples(), both.samples());
}

TEST(Histogram, DumpIntoWritesAllKeys)
{
    Histogram h;
    h.sample(4.0);
    h.sample(16.0);
    StatGroup sg;
    h.dumpInto(sg, "lat.");
    EXPECT_DOUBLE_EQ(sg.get("lat.samples"), 2.0);
    EXPECT_DOUBLE_EQ(sg.get("lat.mean"), 10.0);
    EXPECT_DOUBLE_EQ(sg.get("lat.min"), 4.0);
    EXPECT_DOUBLE_EQ(sg.get("lat.max"), 16.0);
    EXPECT_TRUE(sg.has("lat.p50"));
    EXPECT_TRUE(sg.has("lat.p90"));
    EXPECT_TRUE(sg.has("lat.p99"));
    EXPECT_LE(sg.get("lat.p50"), sg.get("lat.p99"));
}

TEST(StatGroup, SetGetAddMerge)
{
    StatGroup g;
    EXPECT_FALSE(g.has("x"));
    EXPECT_DOUBLE_EQ(g.get("x", -1.0), -1.0);
    g.set("x", 3.0);
    g.add("x", 2.0);
    EXPECT_DOUBLE_EQ(g.get("x"), 5.0);

    StatGroup h;
    h.set("y", 7.0);
    h.set("x", 1.0);
    g.merge(h);
    EXPECT_DOUBLE_EQ(g.get("x"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("y"), 7.0);
}

TEST(StatGroup, DumpIsSortedAndPrefixed)
{
    StatGroup g;
    g.set("b", 2);
    g.set("a", 1);
    std::ostringstream os;
    g.dump(os, "pre.");
    EXPECT_EQ(os.str(), "pre.a 1\npre.b 2\n");
}

TEST(StatGroup, DumpJsonEscapesAndHandlesNonFinite)
{
    StatGroup g;
    g.set("plain", 1.5);
    g.set("quote\"back\\slash", 2.0);
    g.set("newline\nkey\ttab", 3.0);
    g.set(std::string("ctrl\x01key"), 4.0);
    g.set("nan", std::nan(""));
    g.set("inf", HUGE_VAL);
    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"quote\\\"back\\\\slash\": 2"),
              std::string::npos);
    EXPECT_NE(out.find("\"newline\\nkey\\ttab\": 3"),
              std::string::npos);
    EXPECT_NE(out.find("\\u0001"), std::string::npos);
    EXPECT_NE(out.find("\"nan\": null"), std::string::npos);
    EXPECT_NE(out.find("\"inf\": null"), std::string::npos);
    // No raw control characters survive in the output.
    for (char c : out)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
}

TEST(StatGroup, DumpJsonEmptyGroup)
{
    StatGroup g;
    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(), "{}");
}

TEST(JsonHelpers, EscapeAndNumber)
{
    EXPECT_EQ(jsonEscape("ok"), "ok");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("\b\f\r"), "\\b\\f\\r");
    EXPECT_EQ(jsonNumber(2.0), "2");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "null");
}

} // namespace
} // namespace bulksc
