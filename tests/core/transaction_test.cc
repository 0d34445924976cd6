/**
 * @file
 * Tests for the transactional-memory extension (Section 8): on BulkSC
 * a transaction is a chunk whose boundaries are pinned to
 * TxBegin/TxEnd, so atomicity, isolation, and conflict resolution
 * come from the existing chunk machinery.
 */

#include <gtest/gtest.h>

#include "core/bulk_processor.hh"
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
marker(OpType t, std::uint32_t gap = 1)
{
    Op op;
    op.type = t;
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

TEST(Transactions, WritesPublishAtomically)
{
    // P0 updates two words inside a transaction with a long gap in
    // between; P1 polls both. P1 must never observe the first write
    // without the second once the transaction committed — and because
    // the whole transaction is one chunk, no intermediate state is
    // ever visible.
    const Addr a = 0x9000'0000;
    const Addr b = 0x9000'0040;
    std::vector<Op> p0 = {
        marker(OpType::TxBegin, 5),
        store(a, 1, 1),
        load(0x2000, 2500), // long transaction body
        store(b, 1, 1),
        marker(OpType::TxEnd, 1),
    };
    std::vector<Op> p1;
    for (int i = 0; i < 12; ++i) {
        p1.push_back(load(a, 300, static_cast<std::uint32_t>(2 * i)));
        p1.push_back(
            load(b, 1, static_cast<std::uint32_t>(2 * i + 1)));
    }
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, {makeTrace(p0), makeTrace(p1)});
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);
    for (int i = 0; i < 12; ++i) {
        std::uint64_t va = r.loadResults[1][2 * i];
        std::uint64_t vb = r.loadResults[1][2 * i + 1];
        // (0,0) before commit; (1,1) after; (1,0) forbidden. (0,1)
        // can appear if the polls straddle the commit.
        EXPECT_FALSE(va == 1 && vb == 0) << "poll " << i;
    }
    EXPECT_EQ(sys.memory().readValue(a), 1u);
    EXPECT_EQ(sys.memory().readValue(b), 1u);
}

TEST(Transactions, TransactionOccupiesItsOwnChunk)
{
    // Work, then a transaction, then work: the transaction must not
    // share a chunk with preceding work (commits >= 3).
    std::vector<Op> ops;
    for (int i = 0; i < 60; ++i)
        ops.push_back(load(0x1000 + (i % 8) * 64, 3));
    ops.push_back(marker(OpType::TxBegin, 2));
    ops.push_back(store(0x9000'0100, 7, 2));
    ops.push_back(marker(OpType::TxEnd, 2));
    for (int i = 0; i < 60; ++i)
        ops.push_back(load(0x1000 + (i % 8) * 64, 3));

    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.stats.get("bulk.commits"), 3.0);
}

TEST(Transactions, LongTransactionIsNotSplitBySize)
{
    // A transaction far longer than the chunk size must still commit
    // as a single chunk.
    std::vector<Op> ops;
    ops.push_back(marker(OpType::TxBegin, 2));
    for (int i = 0; i < 40; ++i) {
        ops.push_back(load(0x1000 + (i % 8) * 64, 80));
        ops.push_back(store(0x9000'0200 + (i % 4) * 64, i, 80));
    }
    ops.push_back(marker(OpType::TxEnd, 2));

    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 1;
    cfg.bulk.chunkSize = 500; // transaction is ~6500 instructions
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.stats.get("bulk.commits"), 2.0);
}

TEST(Transactions, ConflictingTransactionsSerialize)
{
    // Both processors transactionally increment-style update the same
    // word: the loser is squashed and re-executes, so the final value
    // is one of the two written values and both finish.
    const Addr x = 0x9000'0300;
    auto mk = [&](std::uint64_t tag) {
        std::vector<Op> ops;
        for (int i = 0; i < 15; ++i) {
            ops.push_back(marker(OpType::TxBegin, 5));
            ops.push_back(load(x, 2));
            ops.push_back(store(x, tag, 30));
            ops.push_back(marker(OpType::TxEnd, 5));
            ops.push_back(load(0x1000, 40));
        }
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, {mk(111), mk(222)});
    Results r = sys.run(100'000'000);
    ASSERT_TRUE(r.completed);
    std::uint64_t final = sys.memory().readValue(x);
    EXPECT_TRUE(final == 111 || final == 222);
}

TEST(Transactions, NestedTransactionsFlatten)
{
    std::vector<Op> ops;
    ops.push_back(marker(OpType::TxBegin, 2));
    ops.push_back(store(0x9000'0400, 1, 2));
    ops.push_back(marker(OpType::TxBegin, 2)); // nested
    ops.push_back(store(0x9000'0440, 2, 2));
    ops.push_back(marker(OpType::TxEnd, 2));
    ops.push_back(store(0x9000'0480, 3, 2));
    ops.push_back(marker(OpType::TxEnd, 2));
    ops.push_back(load(0x1000, 50));

    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sys.memory().readValue(0x9000'0480), 3u);
}

TEST(Transactions, SerializableUnderVerification)
{
    // Random transactional workload + the SC conformance checker.
    const Addr base = 0x9000'1000;
    auto mk = [&](unsigned p) {
        std::vector<Op> ops;
        std::uint64_t v = (Addr{p} << 32) + 1;
        for (int i = 0; i < 25; ++i) {
            ops.push_back(marker(OpType::TxBegin, 10));
            ops.push_back(load(base + ((p + i) % 6) * 64, 3));
            ops.push_back(store(base + ((p + i) % 6) * 64, v++, 3));
            ops.push_back(marker(OpType::TxEnd, 3));
            ops.push_back(load(0x1000 + p * 64, 60));
        }
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    System sys(cfg, {mk(0), mk(1), mk(2), mk(3)});
    sys.enableAnalysis(false, false, true);
    Results r = sys.run(200'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0);
    const ScVerifier *rep = sys.analysis()->replay();
    if (rep && !rep->verified()) {
        for (const std::string &e : rep->errors())
            ADD_FAILURE() << e;
    }
}

TEST(Transactions, NonTransactionalMachineCanTear)
{
    // The same two-store "transfer" with a long body: an observer
    // under fence-free RC can see the first store without the second,
    // while BulkSC (transaction = chunk) never exposes it.
    const Addr a = 0x9000'0600;
    const Addr b = 0x9000'0640;
    auto writer = [&] {
        std::vector<Op> ops;
        for (int i = 0; i < 10; ++i) {
            ops.push_back(marker(OpType::TxBegin, 5));
            ops.push_back(store(a, 1, 2));
            ops.push_back(load(0x2000, 500));
            ops.push_back(store(b, 1, 2));
            ops.push_back(marker(OpType::TxEnd, 2));
            ops.push_back(store(a, 0, 20));
            ops.push_back(store(b, 0, 20));
            ops.push_back(load(0x2000, 200));
        }
        return makeTrace(ops);
    };
    auto observer = [&] {
        std::vector<Op> ops;
        for (std::uint32_t i = 0; i < 80; ++i) {
            ops.push_back(load(a, 25, 2 * i));
            ops.push_back(load(b, 1, 2 * i + 1));
        }
        return makeTrace(ops);
    };
    auto torn = [&](Model m) {
        MachineConfig cfg;
        cfg.model = m;
        cfg.numProcs = 2;
        System sys(cfg, {writer(), observer()});
        Results r = sys.run(100'000'000);
        EXPECT_TRUE(r.completed);
        unsigned n = 0;
        for (std::uint32_t i = 0; i < 80; ++i) {
            if (r.loadResults[1][2 * i] == 1 &&
                r.loadResults[1][2 * i + 1] == 0) {
                ++n;
            }
        }
        return n;
    };
    EXPECT_EQ(torn(Model::BSCdypvt), 0u);
    EXPECT_GT(torn(Model::RC), 0u);
}

TEST(Transactions, BaselinesTreatMarkersAsNoOps)
{
    std::vector<Op> ops = {marker(OpType::TxBegin, 2),
                           store(0x9000'0500, 9, 2),
                           marker(OpType::TxEnd, 2),
                           load(0x9000'0500, 2, 0)};
    for (Model m : {Model::SC, Model::TSO, Model::RC, Model::SCpp}) {
        MachineConfig cfg;
        cfg.model = m;
        cfg.numProcs = 1;
        System sys(cfg, {makeTrace(ops)});
        Results r = sys.run(10'000'000);
        ASSERT_TRUE(r.completed) << modelName(m);
        EXPECT_EQ(r.loadResults[0][0], 9u) << modelName(m);
    }
}

} // namespace
} // namespace bulksc
