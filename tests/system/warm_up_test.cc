/**
 * @file
 * The once-per-line cache warm-up (System::warmUp) against the per-op
 * loop it replaced, kept here as the reference: both must leave the
 * same L1, L2 and directory contents, with the same LRU stamps. A
 * small L2 makes the warm-up evict, so the walk's re-warm of displaced
 * lines runs; a --no-warm run is the control that shows the
 * comparison can fail.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "system/sim_options.hh"
#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

/** The per-op warm loop: warm every op's line into the L2, then the
 *  first L1-sized prefix of the first-touch order into the L1. With
 *  @p rewarm false a line is warmed into the L2 only at its first
 *  touch (a deliberately wrong walk, for the small-L2 check). */
void
referenceWarm(System &sys, const std::vector<Trace> &traces,
              bool rewarm = true)
{
    MemorySystem &mem = sys.memory();
    const MachineConfig &cfg = sys.config();
    for (unsigned p = 0; p < sys.numProcs(); ++p) {
        std::unordered_map<LineAddr, bool> first; // line -> dirty
        std::vector<LineAddr> order;
        for (const Op &op : traces[p].ops) {
            if (op.addr >= layout::kStreamBase)
                continue;
            LineAddr line = lineOf(op.addr, cfg.mem.l1.lineBytes);
            if (rewarm || !first.count(line))
                mem.warmLine(line);
            if (first.count(line))
                continue;
            bool priv = (op.addr >= layout::kStackBase &&
                         op.addr < layout::kSharedBase) ||
                        op.addr >= layout::kLockBase;
            first[line] = op.type == OpType::Store && priv &&
                          op.addr < layout::kLockBase;
            order.push_back(line);
        }
        std::size_t count = order.size();
        if (count > cfg.mem.l1.numLines())
            count = cfg.mem.l1.numLines();
        for (std::size_t i = count; i-- > 0;)
            mem.warmL1(p, order[i], first[order[i]]);
    }
}

using Way = std::tuple<std::uint32_t, LineAddr, LineState, std::uint64_t>;

/** Every valid way of @p a in set and way order, with its LRU stamp. */
std::vector<Way>
contents(const CacheArray &a)
{
    std::vector<Way> out;
    const std::uint64_t sets = a.geometry().numSets();
    for (std::uint32_t s = 0; s < sets; ++s) {
        a.forEachInSet(s, [&](const CacheLine &l) {
            out.emplace_back(s, l.line, l.state, l.lruStamp);
        });
    }
    return out;
}

using DirState = std::tuple<LineAddr, std::uint32_t, bool, ProcId>;

/** The directory entry of every line the traces touch. */
std::vector<DirState>
directory(System &sys, const std::vector<Trace> &traces)
{
    std::vector<DirState> out;
    for (const Trace &t : traces) {
        for (const Op &op : t.ops) {
            LineAddr line = lineOf(op.addr);
            if (const DirEntry *e = sys.memory().peekDir(line))
                out.emplace_back(line, e->sharers, e->dirty, e->owner);
        }
    }
    return out;
}

/** Assert that @p a and @p b hold the same warmed state. */
void
expectSameState(System &a, System &b, const std::vector<Trace> &traces)
{
    ASSERT_EQ(a.numProcs(), b.numProcs());
    for (unsigned p = 0; p < a.numProcs(); ++p) {
        EXPECT_EQ(contents(a.memory().l1Array(p)),
                  contents(b.memory().l1Array(p)))
            << "L1 of proc " << p;
    }
    EXPECT_EQ(contents(a.memory().l2Array()),
              contents(b.memory().l2Array()));
    EXPECT_EQ(directory(a, traces), directory(b, traces));
    EXPECT_EQ(a.memory().fingerprint(), b.memory().fingerprint());
}

std::vector<Trace>
oceanTraces(std::uint64_t salt)
{
    return generateTraces(profileByName("ocean"), 8, 40'000, salt);
}

TEST(WarmUp, WalkMatchesPerOpLoopOnOcean)
{
    for (std::uint64_t salt : {0, 1, 7}) {
        std::vector<Trace> traces = oceanTraces(salt);
        MachineConfig cfg;
        System walk(cfg, traces);
        System ref(cfg, traces);
        walk.warmUp();
        referenceWarm(ref, traces);
        expectSameState(walk, ref, traces);
        // The warm-up filled the L1s, so the comparison had content.
        EXPECT_FALSE(contents(walk.memory().l1Array(0)).empty());
    }
}

/** A 16 KB L2 is far smaller than the ocean footprint: warming
 *  displaces lines that the trace touches again, which the walk must
 *  warm again exactly when the per-op loop would, at two
 *  associativities (256 sets of 2 ways, 64 sets of 8). */
TEST(WarmUp, WalkMatchesPerOpLoopWhenTheL2Evicts)
{
    std::vector<Trace> traces = oceanTraces(3);
    for (unsigned assoc : {2u, 8u}) {
        SCOPED_TRACE(assoc);
        MachineConfig cfg;
        cfg.mem.l2 = CacheGeometry{16 * 1024, assoc, 32};
        System walk(cfg, traces);
        System ref(cfg, traces);
        walk.warmUp();
        referenceWarm(ref, traces);
        expectSameState(walk, ref, traces);

        // Warming each line only at its first touch leaves a
        // different L2: the re-warm path above did real work.
        System once(cfg, traces);
        referenceWarm(once, traces, /*rewarm=*/false);
        EXPECT_NE(contents(walk.memory().l2Array()),
                  contents(once.memory().l2Array()));
    }
}

/** End to end: a run that warms with the walk and a --no-warm run
 *  warmed by the reference loop give the same statistics; a --no-warm
 *  run left cold does not. */
TEST(WarmUp, NoWarmControl)
{
    std::vector<Trace> traces = oceanTraces(5);
    SimOptions cold_opts;
    std::vector<const char *> argv{"--no-warm"};
    std::string err;
    ASSERT_TRUE(OptionRegistry::instance().parse(
        static_cast<int>(argv.size()), argv.data(), cold_opts,
        OptionGroup::Sim, err))
        << err;
    ASSERT_FALSE(cold_opts.cfg.warmCaches);
    MachineConfig warm_cfg = cold_opts.cfg;
    warm_cfg.warmCaches = true;

    System walk(warm_cfg, traces);
    Results walked = walk.run();

    System ref(cold_opts.cfg, traces);
    referenceWarm(ref, traces);
    Results reffed = ref.run();

    System cold(cold_opts.cfg, traces);
    EXPECT_TRUE(contents(cold.memory().l2Array()).empty());
    Results colded = cold.run();

    ASSERT_TRUE(walked.completed && reffed.completed && colded.completed);
    EXPECT_EQ(walked.stats.entries(), reffed.stats.entries());
    EXPECT_NE(walked.stats.entries(), colded.stats.entries());
    EXPECT_GT(colded.stats.get("mem.l1_misses"),
              walked.stats.get("mem.l1_misses"));
}

} // namespace
} // namespace bulksc
