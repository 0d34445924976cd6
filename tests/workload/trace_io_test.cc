/**
 * @file
 * Tests for trace bundle save/load: round-tripping, format
 * robustness, and replay equivalence (a reloaded bundle produces a
 * bit-identical simulation).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "system/system.hh"
#include "workload/generator.hh"
#include "workload/litmus.hh"
#include "workload/trace_io.hh"

namespace bulksc {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "bulksc_traces_" +
               std::to_string(::getpid()) + ".bin";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(TraceIoTest, RoundTripPreservesEveryField)
{
    AppProfile app = profileByName("radiosity");
    app.trackAllValues = true;
    auto traces = generateTraces(app, 3, 8000);
    std::string err;
    ASSERT_TRUE(saveTraces(path, traces, err)) << err;

    std::vector<Trace> loaded;
    ASSERT_TRUE(loadTraces(path, loaded, err)) << err;
    ASSERT_EQ(loaded.size(), traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        ASSERT_EQ(loaded[i].ops.size(), traces[i].ops.size());
        EXPECT_EQ(loaded[i].totalInstrs(), traces[i].totalInstrs());
        for (std::size_t j = 0; j < traces[i].ops.size(); ++j) {
            const Op &a = traces[i].ops[j];
            const Op &b = loaded[i].ops[j];
            ASSERT_EQ(a.addr, b.addr);
            ASSERT_EQ(a.gap, b.gap);
            ASSERT_EQ(a.aux, b.aux);
            ASSERT_EQ(a.storeValue, b.storeValue);
            ASSERT_EQ(a.type, b.type);
            ASSERT_EQ(a.stackRef, b.stackRef);
            ASSERT_EQ(a.tracked, b.tracked);
        }
    }
}

TEST_F(TraceIoTest, ReplayIsBitIdentical)
{
    auto traces = generateTraces(profileByName("lu"), 4, 10000);
    std::string err;
    ASSERT_TRUE(saveTraces(path, traces, err)) << err;
    std::vector<Trace> loaded;
    ASSERT_TRUE(loadTraces(path, loaded, err)) << err;
    ASSERT_EQ(loaded.size(), 4u);

    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    System a(cfg, std::move(traces));
    Results ra = a.run();
    System b(cfg, std::move(loaded));
    Results rb = b.run();
    EXPECT_EQ(ra.execTime, rb.execTime);
    EXPECT_DOUBLE_EQ(ra.stats.get("net.bits.total"),
                     rb.stats.get("net.bits.total"));
    EXPECT_DOUBLE_EQ(ra.stats.get("cpu.squashes"),
                     rb.stats.get("cpu.squashes"));
}

TEST_F(TraceIoTest, DoubleRoundTripIsByteIdentical)
{
    auto traces = generateTraces(profileByName("ocean"), 2, 5000);
    std::string err;
    ASSERT_TRUE(saveTraces(path, traces, err)) << err;
    std::vector<Trace> loaded;
    ASSERT_TRUE(loadTraces(path, loaded, err)) << err;
    ASSERT_FALSE(loaded.empty());

    std::string path2 = path + ".2";
    ASSERT_TRUE(saveTraces(path2, loaded, err)) << err;
    auto slurp = [](const std::string &p) {
        std::FILE *f = std::fopen(p.c_str(), "rb");
        std::string out;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            out.append(buf, n);
        std::fclose(f);
        return out;
    };
    EXPECT_EQ(slurp(path), slurp(path2));
    std::remove(path2.c_str());
}

TEST_F(TraceIoTest, LitmusTracesRoundTrip)
{
    // Litmus traces exercise the corners profile-generated ones
    // rarely do: tiny op counts, tracked loads, explicit store
    // values, and zero-gap sequences.
    LitmusTest lt;
    ASSERT_TRUE(litmusByName("wrc", 0, lt));
    std::string err;
    ASSERT_TRUE(saveTraces(path, lt.traces, err)) << err;
    std::vector<Trace> loaded;
    ASSERT_TRUE(loadTraces(path, loaded, err)) << err;
    ASSERT_EQ(loaded.size(), lt.traces.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        ASSERT_EQ(loaded[i].ops.size(), lt.traces[i].ops.size());
        for (std::size_t j = 0; j < loaded[i].ops.size(); ++j) {
            const Op &a = lt.traces[i].ops[j];
            const Op &b = loaded[i].ops[j];
            ASSERT_EQ(a.addr, b.addr);
            ASSERT_EQ(a.type, b.type);
            ASSERT_EQ(a.storeValue, b.storeValue);
            ASSERT_EQ(a.tracked, b.tracked);
            ASSERT_EQ(a.aux, b.aux);
        }
    }
}

TEST_F(TraceIoTest, EmptyTraceListRoundTrips)
{
    std::vector<Trace> none, loaded(1);
    std::string err;
    ASSERT_TRUE(saveTraces(path, none, err)) << err;
    ASSERT_TRUE(loadTraces(path, loaded, err)) << err;
    EXPECT_TRUE(loaded.empty());
}

TEST_F(TraceIoTest, MissingFileIsEmpty)
{
    std::vector<Trace> loaded;
    std::string err;
    EXPECT_FALSE(loadTraces("/nonexistent/nope.bin", loaded, err));
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(err, "cannot open '/nonexistent/nope.bin'");

    EXPECT_FALSE(saveTraces("/nonexistent/dir/x.bin", {}, err));
    EXPECT_EQ(err, "cannot open '/nonexistent/dir/x.bin'");
}

TEST_F(TraceIoTest, GarbageFileIsRejected)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace bundle at all", f);
    std::fclose(f);
    std::vector<Trace> loaded;
    std::string err;
    EXPECT_FALSE(loadTraces(path, loaded, err));
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(err, "not a trace bundle '" + path + "'");
}

TEST_F(TraceIoTest, TruncatedBundleIsRejected)
{
    auto traces = generateTraces(profileByName("barnes"), 2, 4000);
    std::string err;
    ASSERT_TRUE(saveTraces(path, traces, err)) << err;
    // Chop the file in half.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    std::vector<Trace> loaded;
    EXPECT_FALSE(loadTraces(path, loaded, err));
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(err, "truncated bundle '" + path + "'");
}

} // namespace
} // namespace bulksc
