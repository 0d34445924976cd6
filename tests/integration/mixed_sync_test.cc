/**
 * @file
 * Regression test over random traces that mix every kind of
 * synchronization: plain loads and stores on shared lines, lock
 * sections, I/O ops, transactions and long gaps, in rounds separated by
 * barriers. Every model must run each trace set to completion.
 *
 * Under the Private-Buffer models (BSCdypvt, BSCexact) such traces used
 * to lose a barrier increment: a squash restored a buffered line as
 * Dirty after an owner fetch had taken the line away, so the next store
 * to it skipped W and was never published. Every processor then spun
 * on BarrierWait with the count one short.
 *
 * With the shared lines in the L1 sets of the lock and barrier words,
 * a transaction's store could find its set filled by the predecessor
 * chunk, and the simulation aborted as if the transaction itself had
 * overflowed the L1.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

constexpr unsigned kTraceSets = 120;
constexpr unsigned kRounds = 3;
constexpr unsigned kSharedLines = 16;

/** By default the shared lines take L1 sets 32-47, clear of the lock,
 *  lock-data and barrier words (sets 0-2, 16, 129 and 136). */
constexpr Addr kSharedFirst =
    layout::kSharedBase + 32 * kDefaultLineBytes;

constexpr unsigned kLocks = 3;
constexpr Tick kCeiling = 3'000'000;

/** Builds one processor's trace: rounds of random groups, each round
 *  closed by a barrier. */
class TraceWriter
{
  public:
    TraceWriter(Rng &r, ProcId p, Addr shared_first)
        : rng(r), proc(p), sharedFirst(shared_first)
    {}

    Trace
    build()
    {
        for (std::uint32_t round = 0; round < kRounds; ++round) {
            const std::uint64_t groups = 20 + rng.below(41);
            for (std::uint64_t g = 0; g < groups; ++g)
                group();
            barrier(OpType::BarrierArrive, round);
            barrier(OpType::BarrierWait, round);
        }
        trace.finalize();
        return std::move(trace);
    }

  private:
    std::uint32_t
    gap()
    {
        return 1 + static_cast<std::uint32_t>(rng.below(20));
    }

    Addr
    sharedAddr()
    {
        return sharedFirst + rng.below(kSharedLines) * kDefaultLineBytes;
    }

    void
    push(OpType type, Addr addr, std::uint32_t gap_instrs)
    {
        Op op;
        op.type = type;
        op.addr = addr;
        op.gap = gap_instrs;
        if (type == OpType::Load || type == OpType::Store)
            op.tracked = true;
        if (type == OpType::Store)
            op.storeValue = (std::uint64_t{proc} << 32) | ++stores;
        trace.ops.push_back(op);
    }

    void
    barrier(OpType type, std::uint32_t round)
    {
        push(type, layout::kBarrierBase, gap());
        trace.ops.back().aux = round;
    }

    void
    group()
    {
        switch (rng.below(5)) {
          case 0:
            push(rng.below(2) ? OpType::Store : OpType::Load,
                 sharedAddr(), gap());
            return;
          case 1: {
            const auto lock =
                static_cast<std::uint32_t>(rng.below(kLocks));
            const Addr data = layout::lockDataBase(lock);
            push(OpType::Acquire, layout::lockAddr(lock), gap());
            push(OpType::Store, data, gap());
            push(OpType::Load, data, gap());
            push(OpType::Release, layout::lockAddr(lock), gap());
            return;
          }
          case 2:
            push(OpType::Io, 0, gap());
            return;
          case 3:
            push(OpType::TxBegin, 0, gap());
            push(OpType::Store, sharedAddr(), gap());
            push(OpType::Load, sharedAddr(), gap());
            push(OpType::TxEnd, 0, gap());
            return;
          default:
            push(OpType::Load, sharedAddr(), 600);
            return;
        }
    }

    Rng &rng;
    ProcId proc;
    Addr sharedFirst;
    Trace trace;
    std::uint32_t stores = 0;
};

/** Trace set @p seed: 2 to 4 processors. */
std::vector<Trace>
traceSet(std::uint64_t seed, Addr shared_first = kSharedFirst)
{
    Rng rng(seed * 7919 + 1);
    const auto procs = static_cast<ProcId>(2 + rng.below(3));
    std::vector<Trace> traces;
    for (ProcId p = 0; p < procs; ++p)
        traces.push_back(TraceWriter(rng, p, shared_first).build());
    return traces;
}

class MixedSync : public ::testing::TestWithParam<Model>
{};

TEST_P(MixedSync, EveryTraceSetCompletes)
{
    for (std::uint64_t seed = 0; seed < kTraceSets; ++seed) {
        std::vector<Trace> traces = traceSet(seed);
        MachineConfig cfg;
        cfg.model = GetParam();
        cfg.numProcs = static_cast<unsigned>(traces.size());
        System sys(cfg, std::move(traces));
        Results r = sys.run(kCeiling);
        EXPECT_TRUE(r.completed)
            << modelName(GetParam()) << " trace set " << seed << " ("
            << cfg.numProcs << " procs) did not finish by tick "
            << kCeiling;
    }
}

/**
 * Shared lines in L1 sets 0-15, with the barrier count, lock 0 and its
 * data: on trace set 107 (2 procs) a transaction's store finds its set
 * filled by the predecessor chunk's lines. It waits for that chunk to
 * commit instead of aborting the run.
 */
TEST(MixedSyncTxn, StoreWaitsForPredecessorChunkFillingItsSet)
{
    for (Model m : {Model::BSCbase, Model::BSCdypvt, Model::BSCexact}) {
        std::vector<Trace> traces = traceSet(107, layout::kSharedBase);
        ASSERT_EQ(traces.size(), 2u);
        MachineConfig cfg;
        cfg.model = m;
        cfg.numProcs = 2;
        System sys(cfg, std::move(traces));
        sys.enableAnalysis(/*axiomatic=*/true);
        Results r = sys.run(kCeiling);
        EXPECT_TRUE(r.completed) << modelName(m);
        ASSERT_TRUE(r.stats.has("analysis.sc_cycles")) << modelName(m);
        EXPECT_EQ(r.stats.get("analysis.sc_cycles"), 0) << modelName(m);
        EXPECT_GT(r.stats.get("bulk.commits"), 0) << modelName(m);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Models, MixedSync,
    ::testing::Values(Model::SC, Model::TSO, Model::RC, Model::SCpp,
                      Model::BSCbase, Model::BSCdypvt, Model::BSCstpvt,
                      Model::BSCexact),
    [](const auto &info) {
        std::string n = modelName(info.param);
        for (char &ch : n) {
            if (ch == '+')
                ch = 'p';
        }
        return n;
    });

} // namespace
} // namespace bulksc
