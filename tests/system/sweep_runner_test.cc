/**
 * @file
 * Unit tests for the parameter-sweep runner: grid enumeration,
 * validation, the settings-only seed policy, and the byte-identical
 * output guarantee across worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "system/sweep_runner.hh"

namespace bulksc {
namespace {

SimOptions
tinyBase()
{
    SimOptions base;
    base.instrs = 1200; // keep each grid point fast
    return base;
}

/** Run the grid with @p workers and return the JSONL output. */
std::string
runToString(SweepRunner &runner, unsigned workers,
            std::size_t *failed = nullptr)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    std::size_t nfail = runner.run(workers, f);
    if (failed)
        *failed = nfail;
    std::fseek(f, 0, SEEK_END);
    long len = std::ftell(f);
    std::rewind(f);
    std::string out(static_cast<std::size_t>(len), '\0');
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
    return out;
}

TEST(SweepRunner, GridIsRowMajorLastAxisFastest)
{
    SweepRunner runner(tinyBase(),
                       {{"procs", {"2", "4"}}, {"chunk", {"100",
                                                          "200"}}});
    ASSERT_EQ(runner.numPoints(), 4u);
    using KV = std::vector<std::pair<std::string, std::string>>;
    EXPECT_EQ(runner.pointSettings(0),
              (KV{{"procs", "2"}, {"chunk", "100"}}));
    EXPECT_EQ(runner.pointSettings(1),
              (KV{{"procs", "2"}, {"chunk", "200"}}));
    EXPECT_EQ(runner.pointSettings(2),
              (KV{{"procs", "4"}, {"chunk", "100"}}));
    EXPECT_EQ(runner.pointSettings(3),
              (KV{{"procs", "4"}, {"chunk", "200"}}));
}

TEST(SweepRunner, ValidateRejectsUnknownAxis)
{
    SweepRunner runner(tinyBase(), {{"frobnicate", {"1"}}});
    std::string err;
    EXPECT_FALSE(runner.validateGrid(err));
    EXPECT_NE(err.find("frobnicate"), std::string::npos) << err;
}

TEST(SweepRunner, ValidateRejectsEmptyAxis)
{
    SweepRunner runner(tinyBase(), {{"procs", {}}});
    std::string err;
    EXPECT_FALSE(runner.validateGrid(err));
    EXPECT_NE(err.find("procs"), std::string::npos) << err;
}

TEST(SweepRunner, ValidateRejectsInvalidPoint)
{
    SweepRunner runner(tinyBase(), {{"procs", {"2", "0"}}});
    std::string err;
    EXPECT_FALSE(runner.validateGrid(err));
    EXPECT_NE(err.find("point"), std::string::npos) << err;
}

TEST(SweepRunner, ValidateRejectsRepeatedAxis)
{
    SweepRunner runner(tinyBase(), {{"app", {"barnes"}},
                                    {"app", {"ocean"}}});
    std::string err;
    EXPECT_FALSE(runner.validateGrid(err));
    EXPECT_NE(err.find("'app'"), std::string::npos) << err;
}

TEST(SweepRunner, PointInputsDependOnlyOnSettings)
{
    // The same settings at different indices and in different grids
    // simulate the same traces with the same fault schedule.
    SimOptions base = tinyBase();
    base.seedSalt = 5;
    base.cfg.faultSeed = 9;
    SweepRunner a(base, {{"model", {"RC", "BSCdypvt"}}});
    SweepRunner b(base, {{"model", {"BSCexact", "BSCdypvt", "RC"}}});
    SimOptions a1, b1, b2;
    std::string err;
    ASSERT_TRUE(a.pointOptions(1, a1, err)) << err;
    ASSERT_TRUE(b.pointOptions(1, b1, err)) << err;
    ASSERT_TRUE(b.pointOptions(2, b2, err)) << err;
    for (const SimOptions *o : {&a1, &b1, &b2}) {
        EXPECT_EQ(o->seedSalt, 5u);
        EXPECT_EQ(o->cfg.faultSeed, 9u);
    }

    // Byte-identical records, up to the leading point index.
    auto body = [](SweepRunner &r) {
        std::string out = runToString(r, 2);
        std::vector<std::string> recs;
        std::size_t pos = 0;
        while (pos < out.size()) {
            std::size_t nl = out.find('\n', pos);
            std::string line = out.substr(pos, nl - pos);
            recs.push_back(line.substr(line.find(", ")));
            pos = nl + 1;
        }
        return recs;
    };
    std::vector<std::string> ra = body(a), rb = body(b);
    ASSERT_EQ(ra.size(), 2u);
    ASSERT_EQ(rb.size(), 3u);
    EXPECT_EQ(ra[1], rb[1]); // BSCdypvt at index 1 in both grids
    EXPECT_EQ(ra[0], rb[2]); // RC at index 0 and at index 2
}

TEST(SweepRunner, ExplicitSeedSaltAxisIsNotRederived)
{
    SweepRunner runner(tinyBase(), {{"seed-salt", {"3", "8"}}});
    SimOptions p0, p1;
    std::string err;
    ASSERT_TRUE(runner.pointOptions(0, p0, err)) << err;
    ASSERT_TRUE(runner.pointOptions(1, p1, err)) << err;
    EXPECT_EQ(p0.seedSalt, 3u);
    EXPECT_EQ(p1.seedSalt, 8u);
}

TEST(SweepRunner, OutputIsByteIdenticalAcrossWorkerCounts)
{
    std::vector<SweepAxis> axes{{"procs", {"2", "4"}},
                                {"chunk", {"400", "800"}}};
    std::string err;
    SweepRunner serial(tinyBase(), axes);
    ASSERT_TRUE(serial.validateGrid(err)) << err;
    std::size_t fail1 = 0, fail8 = 0;
    std::string out1 = runToString(serial, 1, &fail1);
    SweepRunner parallel(tinyBase(), axes);
    std::string out8 = runToString(parallel, 8, &fail8);
    EXPECT_EQ(fail1, 0u);
    EXPECT_EQ(fail8, 0u);
    EXPECT_FALSE(out1.empty());
    EXPECT_EQ(out1, out8);
    // One record per point, point index leading.
    EXPECT_EQ(std::count(out1.begin(), out1.end(), '\n'), 4);
    EXPECT_EQ(out1.rfind("{\"point\": 0", 0), 0u);
}

TEST(SweepRunner, FailedPointEmitsErrorRecordAndCounts)
{
    SimOptions base = tinyBase();
    base.app = "nosuchapp";
    SweepRunner runner(base, {{"chunk", {"100"}}});
    std::size_t failed = 0;
    std::string out = runToString(runner, 1, &failed);
    EXPECT_EQ(failed, 1u);
    EXPECT_NE(out.find("\"error\""), std::string::npos) << out;
    EXPECT_NE(out.find("nosuchapp"), std::string::npos) << out;
}

} // namespace
} // namespace bulksc
