/**
 * @file
 * Pins the non-chunk baselines (SC, TSO, RC, SC++) to exact figures on
 * three workloads, so a refactor of the processor core that claims no
 * timing change can prove it: every pinned statistic must match to the
 * unit. ocean and sjbb2k exercise SC++ squashes.
 */

#include <gtest/gtest.h>

#include "system/system.hh"
#include "workload/app_profiles.hh"

namespace bulksc {
namespace {

struct Pin
{
    const char *model;
    const char *app;
    std::uint64_t execTime;
    std::uint64_t retired;
    std::uint64_t wasted;
    std::uint64_t squashes;
    std::uint64_t l1Misses;
    std::uint64_t messages;
};

// 8 processors x 60000 instructions, seed salt 0, default machine.
constexpr Pin kPins[] = {
    {"SC", "ocean", 60494, 485543, 0, 0, 31366, 23639},
    {"SC", "radiosity", 50867, 480016, 0, 0, 13123, 10791},
    {"SC", "sjbb2k", 61365, 480035, 0, 0, 34832, 29108},
    {"TSO", "ocean", 50742, 485527, 0, 0, 32951, 23712},
    {"TSO", "radiosity", 39049, 480024, 0, 0, 13801, 10842},
    {"TSO", "sjbb2k", 50678, 480027, 0, 0, 37293, 29144},
    {"RC", "ocean", 42940, 491751, 0, 0, 33236, 23480},
    {"RC", "radiosity", 30190, 480016, 0, 0, 13335, 10794},
    {"RC", "sjbb2k", 43507, 480035, 0, 0, 37978, 28977},
    {"SC++", "ocean", 44715, 493911, 1815, 26, 33351, 23560},
    {"SC++", "radiosity", 31576, 480032, 0, 0, 13332, 10810},
    {"SC++", "sjbb2k", 47000, 480027, 796, 11, 38100, 29021},
};

TEST(BaselinePin, ExactStatsOnThreeApps)
{
    for (const Pin &p : kPins) {
        Results r = runWorkload(modelByName(p.model),
                                profileByName(p.app), 8, 60'000);
        const std::string where =
            std::string(p.model) + " on " + p.app;
        ASSERT_TRUE(r.completed) << where;
        auto get = [&](const char *key) {
            return static_cast<std::uint64_t>(r.stats.get(key));
        };
        EXPECT_EQ(get("exec_time"), p.execTime) << where;
        EXPECT_EQ(get("cpu.retired_instrs"), p.retired) << where;
        EXPECT_EQ(get("cpu.wasted_instrs"), p.wasted) << where;
        EXPECT_EQ(get("cpu.squashes"), p.squashes) << where;
        EXPECT_EQ(get("mem.l1_misses"), p.l1Misses) << where;
        EXPECT_EQ(get("net.messages"), p.messages) << where;
    }
}

} // namespace
} // namespace bulksc
