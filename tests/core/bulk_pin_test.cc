/**
 * @file
 * Pins the four BulkSC models to exact figures on three workloads, the
 * counterpart of cpu/baseline_pin_test.cc: a host-speed change to the
 * signature, chunk or directory code that claims no modelled-behaviour
 * difference must match every pinned statistic to the unit. The
 * small-L1 rows (4 KB, 2-way) end most chunks by way overflow.
 */

#include <gtest/gtest.h>

#include <string>

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
    std::uint64_t dirAliasLookups;
    std::uint64_t commits;
};

// 8 processors x 60000 instructions, seed salt 0, default machine.
constexpr Pin kPins[] = {
    {"BSCbase", "ocean", 45207, 486695, 73113, 101, 39249, 32751, 5931,
     578},
    {"BSCbase", "radiosity", 32461, 480016, 64607, 77, 18902, 19388,
     2172, 553},
    {"BSCbase", "sjbb2k", 51263, 480019, 159603, 208, 53456, 42617, 5070,
     666},
    {"BSCdypvt", "ocean", 43616, 485663, 31102, 44, 33877, 24667, 2540,
     527},
    {"BSCdypvt", "radiosity", 29963, 480016, 5833, 8, 13399, 11261, 12,
     488},
    {"BSCdypvt", "sjbb2k", 46194, 480019, 45637, 66, 39191, 29872, 1776,
     544},
    {"BSCstpvt", "ocean", 43497, 485151, 43294, 61, 35569, 29332, 3403,
     543},
    {"BSCstpvt", "radiosity", 31362, 480016, 27606, 32, 15056, 16182, 74,
     512},
    {"BSCstpvt", "sjbb2k", 47844, 480019, 104541, 135, 45445, 36987,
     2576, 608},
    {"BSCexact", "ocean", 43358, 485623, 12409, 23, 33345, 24349, 0, 506},
    {"BSCexact", "radiosity", 30203, 480016, 3136, 5, 13354, 11205, 0,
     485},
    {"BSCexact", "sjbb2k", 43419, 480019, 9787, 14, 38238, 29201, 0, 494},
};

// The same runs on BSCdypvt with a 4 KB 2-way L1: each set holds one
// speculative line, so way overflow ends about 5x more chunks.
constexpr Pin kSmallL1Pins[] = {
    {"BSCdypvt", "ocean", 68087, 502207, 18303, 44, 84938, 63157, 2483,
     2611},
    {"BSCdypvt", "radiosity", 58104, 480016, 2159, 5, 57191, 46182, 102,
     2577},
    {"BSCdypvt", "sjbb2k", 83233, 480019, 7418, 14, 89000, 68866, 1866,
     2856},
};

void
expectPinned(const Pin &p, const MachineConfig *cfg,
             const std::string &where)
{
    Results r = runWorkload(modelByName(p.model), profileByName(p.app),
                            8, 60'000, cfg);
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
    EXPECT_EQ(get("mem.dir_alias_lookups"), p.dirAliasLookups) << where;
    EXPECT_EQ(get("bulk.commits"), p.commits) << where;
}

TEST(BulkPin, ExactStatsOnThreeApps)
{
    for (const Pin &p : kPins)
        expectPinned(p, nullptr, std::string(p.model) + " on " + p.app);

    MachineConfig small;
    small.mem.l1.sizeBytes = 4 * 1024;
    small.mem.l1.assoc = 2;
    for (const Pin &p : kSmallL1Pins) {
        expectPinned(p, &small,
                     std::string(p.model) + " on " + p.app +
                         ", 4 KB 2-way L1");
    }
}

} // namespace
} // namespace bulksc
