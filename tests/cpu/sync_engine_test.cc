/**
 * @file
 * Focused tests of the synchronization engine shared by all processor
 * models: lock hand-off latency and fairness, barrier generation
 * arithmetic across repeated barriers, spin accounting, and lock
 * value-state invariants.
 */

#include <gtest/gtest.h>

#include "system/system.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

Op
load(Addr a, std::uint32_t gap = 1, std::uint32_t slot = kNoSlot)
{
    Op op;
    op.type = OpType::Load;
    op.addr = a;
    op.gap = gap;
    op.aux = slot;
    op.tracked = true;
    return op;
}

Op
store(Addr a, std::uint64_t v, std::uint32_t gap = 1)
{
    Op op;
    op.type = OpType::Store;
    op.addr = a;
    op.storeValue = v;
    op.gap = gap;
    op.tracked = true;
    return op;
}

Op
acquire(Addr lock, std::uint32_t gap = 5)
{
    Op op;
    op.type = OpType::Acquire;
    op.addr = lock;
    op.gap = gap;
    return op;
}

Op
release(Addr lock, std::uint32_t gap = 5)
{
    Op op;
    op.type = OpType::Release;
    op.addr = lock;
    op.gap = gap;
    return op;
}

Trace
makeTrace(std::vector<Op> ops)
{
    Trace t;
    t.ops = std::move(ops);
    t.finalize();
    return t;
}

class SyncModels : public ::testing::TestWithParam<Model>
{};

TEST_P(SyncModels, UncontendedAcquireIsFast)
{
    const Addr lock = layout::lockAddr(0);
    std::vector<Op> ops = {load(0x1000, 10), acquire(lock),
                           store(0xB000'0000, 1, 3), release(lock),
                           load(0x1000, 10)};
    MachineConfig cfg;
    cfg.model = GetParam();
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    // A single uncontended lock pair costs far less than one spin
    // backoff round would.
    EXPECT_LT(r.execTime, 2000u);
    EXPECT_EQ(sys.memory().readValue(lock), 0u);
}

TEST_P(SyncModels, LockIsHeldExactlyWhileInside)
{
    // The lock word must read 1 between acquire and release and 0
    // after everything commits/drains.
    const Addr lock = layout::lockAddr(1);
    std::vector<Op> ops = {acquire(lock), load(0x1000, 4000),
                           release(lock)};
    MachineConfig cfg;
    cfg.model = GetParam();
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sys.memory().readValue(lock), 0u);
}

TEST_P(SyncModels, RepeatedBarriersAdvanceGenerations)
{
    const unsigned kBarriers = 5;
    auto mk = [&] {
        std::vector<Op> ops;
        for (std::uint32_t b = 0; b < kBarriers; ++b) {
            Op arrive;
            arrive.type = OpType::BarrierArrive;
            arrive.addr = layout::kBarrierBase;
            arrive.gap = 8;
            arrive.aux = b;
            ops.push_back(arrive);
            Op wait = arrive;
            wait.type = OpType::BarrierWait;
            ops.push_back(wait);
            ops.push_back(load(0x3000 + b * 64, 15));
        }
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = GetParam();
    cfg.numProcs = 4;
    cfg.cpu.numBarrierProcs = 4;
    System sys(cfg, {mk(), mk(), mk(), mk()});
    Results r = sys.run(100'000'000);
    ASSERT_TRUE(r.completed);
    // Generation counter = number of completed barriers; count reset.
    EXPECT_EQ(sys.memory().readValue(layout::kBarrierBase +
                                     kDefaultLineBytes),
              kBarriers);
    EXPECT_EQ(sys.memory().readValue(layout::kBarrierBase), 0u);
}

TEST_P(SyncModels, ContendedLockSerializesCriticalSections)
{
    // Both processors write the same protected word; because the
    // sections are serialized, the final value is one of the two
    // last-written values and the lock ends free.
    const Addr lock = layout::lockAddr(2);
    const Addr data = 0xB000'0040;
    auto mk = [&](std::uint64_t tag) {
        std::vector<Op> ops;
        for (int i = 0; i < 10; ++i) {
            ops.push_back(acquire(lock));
            ops.push_back(store(data, tag, 3));
            ops.push_back(release(lock));
            ops.push_back(load(0x1000, 30));
        }
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = GetParam();
    cfg.numProcs = 2;
    System sys(cfg, {mk(100), mk(200)});
    Results r = sys.run(200'000'000);
    ASSERT_TRUE(r.completed);
    std::uint64_t final = sys.memory().readValue(data);
    EXPECT_TRUE(final == 100 || final == 200);
    EXPECT_EQ(sys.memory().readValue(lock), 0u);
}

TEST_P(SyncModels, SpinInstructionsAreCharged)
{
    // A waiter that spins on a barrier charges spin instructions, and
    // each of them retires once: retired minus spin is the trace.
    auto fast = [&] {
        std::vector<Op> ops;
        Op arrive;
        arrive.type = OpType::BarrierArrive;
        arrive.addr = layout::kBarrierBase;
        arrive.gap = 2;
        arrive.aux = 0;
        ops.push_back(arrive);
        Op wait = arrive;
        wait.type = OpType::BarrierWait;
        ops.push_back(wait);
        return makeTrace(ops);
    };
    auto slow = [&] {
        std::vector<Op> ops;
        ops.push_back(load(0x1000, 5000)); // arrives late
        Op arrive;
        arrive.type = OpType::BarrierArrive;
        arrive.addr = layout::kBarrierBase;
        arrive.gap = 2;
        arrive.aux = 0;
        ops.push_back(arrive);
        Op wait = arrive;
        wait.type = OpType::BarrierWait;
        ops.push_back(wait);
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = GetParam();
    cfg.numProcs = 2;
    cfg.cpu.numBarrierProcs = 2;
    std::vector<Trace> traces = {fast(), slow()};
    const std::uint64_t fast_instrs = traces[0].totalInstrs();
    System sys(cfg, std::move(traces));
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);
    const ProcessorBase &cpu = sys.processor(0);
    EXPECT_GT(cpu.spinInstrs(), 0u);
    EXPECT_EQ(cpu.retiredInstrs() - cpu.spinInstrs(), fast_instrs);
}

INSTANTIATE_TEST_SUITE_P(Models, SyncModels,
                         ::testing::Values(Model::SC, Model::TSO,
                                           Model::RC, Model::SCpp,
                                           Model::BSCbase,
                                           Model::BSCdypvt,
                                           Model::BSCstpvt,
                                           Model::BSCexact),
                         [](const auto &info) {
                             std::string n = modelName(info.param);
                             for (auto &c : n) {
                                 if (!isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

} // namespace
} // namespace bulksc
