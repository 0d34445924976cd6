/**
 * @file
 * Tests for the BulkSC processor: chunk formation and commit, squash
 * and re-execution semantics, conflict detection through signatures,
 * the dynamically-private data machinery, chunk-size shrinking, and
 * the statistics the paper's tables are built from.
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

Trace
makeTrace(std::vector<Op> ops)
{
    Trace t;
    t.ops = std::move(ops);
    t.finalize();
    return t;
}

const BulkStats &
bulkStatsOf(System &sys, unsigned p)
{
    auto *bp = dynamic_cast<BulkProcessor *>(&sys.processor(p));
    EXPECT_NE(bp, nullptr);
    return bp->bulkStats();
}

TEST(BulkProcessor, ChunksCommitByInstructionCount)
{
    // ~4000 instructions with the default 1000-instruction chunks
    // must commit about 4 chunks (plus the final flush).
    std::vector<Op> ops;
    for (int i = 0; i < 800; ++i)
        ops.push_back(load(0x1000 + (i % 32) * 64, 4));
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    double commits = r.stats.get("bulk.commits");
    EXPECT_GE(commits, 4.0);
    EXPECT_LE(commits, 6.0);
}

TEST(BulkProcessor, ReadOnlyChunksCommitWithEmptyW)
{
    std::vector<Op> ops;
    for (int i = 0; i < 600; ++i)
        ops.push_back(load(0x1000 + (i % 16) * 64, 4));
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_DOUBLE_EQ(r.stats.get("bulk.empty_w_pct"), 100.0);
}

TEST(BulkProcessor, ConflictSquashesAndReExecutes)
{
    // P1 reads X early and then dawdles inside its first chunk;
    // P0 writes X and commits. P1's chunk must squash and re-read the
    // committed value — slot 0 ends up with the new value.
    const Addr x = 0x9000'0000;
    std::vector<Op> p0 = {store(x, 55, 10)};
    std::vector<Op> p1 = {
        load(x, 1, 0),
        load(0x2000, 900, kNoSlot), // stay inside the chunk a while
    };
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, {makeTrace(p0), makeTrace(p1)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sys.processor(1).squashes(), 1u);
    EXPECT_EQ(r.loadResults[1][0], 55u);
}

TEST(BulkProcessor, SpeculativeStoresInvisibleUntilCommit)
{
    // P0 writes X at the START of a long chunk; P1 reads X midway.
    // P1 must see the old value (0) unless P0's chunk already
    // committed — and if it reads early and P0 then commits, P1 gets
    // squashed and re-reads 99. Either way, the final observed value
    // is consistent with chunk atomicity: never a torn intermediate.
    const Addr x = 0x9000'0100;
    std::vector<Op> p0 = {
        store(x, 99, 1),
        load(0x2000, 500),     // keep the chunk open
        store(x, 100, 1),      // second update in the same chunk
        load(0x2000, 2000),
    };
    std::vector<Op> p1 = {load(x, 300, 0)};
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, {makeTrace(p0), makeTrace(p1)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    // 0 (before commit) or 100 (after commit) — never 99 alone,
    // because both stores commit atomically with the chunk.
    EXPECT_TRUE(r.loadResults[1][0] == 0 || r.loadResults[1][0] == 100)
        << "observed " << r.loadResults[1][0];
}

TEST(BulkProcessor, DypvtDivertsRepeatedPrivateWrites)
{
    // Repeatedly write the same private lines across chunks: with the
    // dynamically-private optimization the W signature stays small
    // and most writes land in Wpriv.
    std::vector<Op> ops;
    for (int i = 0; i < 1200; ++i)
        ops.push_back(store(0x4000'0000 + (i % 8) * 64, i, 4));
    MachineConfig cfg;
    cfg.numProcs = 1;

    cfg.model = Model::BSCdypvt;
    System dy(cfg, {makeTrace(ops)});
    Results rdy = dy.run(10'000'000);
    ASSERT_TRUE(rdy.completed);

    cfg.model = Model::BSCbase;
    System base(cfg, {makeTrace(ops)});
    Results rb = base.run(10'000'000);
    ASSERT_TRUE(rb.completed);

    EXPECT_LT(rdy.stats.get("bulk.avg_write_set"),
              rb.stats.get("bulk.avg_write_set"));
    EXPECT_GT(rdy.stats.get("bulk.avg_priv_write_set"), 0.0);
    // The base protocol pays a writeback per first write to a dirty
    // line; dypvt skips them.
    EXPECT_GT(rb.stats.get("bulk.base_writebacks"), 0.0);
    EXPECT_LT(rdy.stats.get("bulk.base_writebacks"),
              rb.stats.get("bulk.base_writebacks"));
}

TEST(BulkProcessor, PrivateBufferSuppliesOldVersionOnExternalRead)
{
    // P0 makes a line dirty (commit), then speculatively rewrites it
    // (dypvt -> Private Buffer); P1 reads it while P0's chunk is
    // live: the external access must hit Wpriv and be counted, and
    // P1 must observe the old (committed) value. The line goes back
    // into W, so the rewrite's commit must reach the line's home
    // directory module (module 1 of 2) and invalidate P1's copy.
    const Addr x = 0x9000'8200;
    std::vector<Op> p0 = {
        store(x, 1, 1),
        load(0x2000, 1100), // chunk 1 ends; x will be committed dirty
        load(0x2000, 600),  // give chunk 1's commit time to finish
        store(x, 2, 1),     // chunk 2: dirty non-spec -> Wpriv
        load(0x2000, 3000), // keep chunk 2 open
    };
    std::vector<Op> p1 = {load(x, 2400, 0)};
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.warmCaches = false;
    cfg.mem.numDirectories = 2;
    System sys(cfg, {makeTrace(p0), makeTrace(p1)});
    ASSERT_EQ(sys.memory().dirOf(lineOf(x)), 1u);
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    const BulkStats &bs = bulkStatsOf(sys, 0);
    ASSERT_GT(bs.privBufferSupplies, 0u);
    // The external read arrived while the rewrite was live.
    EXPECT_EQ(r.loadResults[1][0], 1u);
    EXPECT_EQ(sys.memory().readValue(x), 2u);
    EXPECT_FALSE(sys.memory().l1Contains(1, lineOf(x)));
    EXPECT_GT(bs.wprivSizeSum, 0.0);
}

TEST(BulkProcessor, SquashRestoresPrivateBufferLines)
{
    // P1: chunk 1 commits a dirty private-ish line, chunk 2 rewrites
    // it (Private Buffer) and also reads a shared variable that P0
    // commits -> squash. The buffered line must be restored dirty.
    const Addr shared = 0x9000'0300;
    const Addr priv = 0x4000'0000;
    std::vector<Op> p0 = {store(shared, 7, 1200)};
    std::vector<Op> p1 = {
        store(priv, 1, 1),
        load(0x2000, 1100), // chunk boundary; priv committed dirty
        store(priv, 2, 1),  // dypvt: old version -> Private Buffer
        load(shared, 5, 0), // conflict with P0's commit
        load(0x2000, 3000),
    };
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, {makeTrace(p0), makeTrace(p1)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sys.processor(1).squashes(), 1u);
    // After the squash + re-execution the line is present and the
    // re-executed store's value is the final one.
    EXPECT_TRUE(sys.memory().l1Contains(1, lineOf(priv)));
    EXPECT_EQ(sys.memory().readValue(priv), 2u);
    EXPECT_EQ(r.loadResults[1][0], 7u);
}

TEST(BulkProcessor, StoresAreStallFree)
{
    // A burst of cold store misses: BulkSC retires them without
    // stalling (writes retire from the ROB head even if the line is
    // not in the cache, Section 6), so the run costs on the order of
    // one overlapped memory round trip plus the commit drain — far
    // from 16 serialized misses.
    std::vector<Op> ops;
    for (int i = 0; i < 16; ++i)
        ops.push_back(
            store(layout::kStreamBase + Addr(i) * 2048, i, 1));
    ops.push_back(load(0x1000, 50));
    MachineConfig cfg;
    cfg.numProcs = 1;
    cfg.model = Model::BSCdypvt;
    System bsc(cfg, {makeTrace(ops)});
    Results rb = bsc.run(10'000'000);
    ASSERT_TRUE(rb.completed);
    EXPECT_LT(rb.execTime, 16u * 300 / 4);
}

TEST(BulkProcessor, RepeatedSquashesShrinkChunks)
{
    // Ping-pong writes to one contended line from all processors:
    // squashes must trigger, and the shrink machinery (plus possibly
    // pre-arbitration) must keep every processor making progress.
    const Addr x = 0x9000'0400;
    auto mk = [&] {
        std::vector<Op> ops;
        for (int i = 0; i < 400; ++i) {
            ops.push_back(load(x, 3));
            ops.push_back(store(x, i, 3));
        }
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    System sys(cfg, {mk(), mk(), mk(), mk()});
    Results r = sys.run(100'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.stats.get("cpu.squashes"), 0.0);
}

TEST(BulkProcessor, ExactSignatureNeverFalselySquashes)
{
    // Disjoint address streams: with the exact (alias-free)
    // signature there is nothing to conflict on.
    auto mk = [&](unsigned p) {
        std::vector<Op> ops;
        for (int i = 0; i < 600; ++i)
            ops.push_back(
                store(0x4000'0000 + Addr{p} * 0x100'0000 + (i % 64) * 64,
                      i, 3));
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = Model::BSCexact;
    cfg.numProcs = 4;
    System sys(cfg, {mk(0), mk(1), mk(2), mk(3)});
    Results r = sys.run(100'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.squashes"), 0.0);
}

TEST(BulkProcessor, StpvtKeepsStackOutOfSignatures)
{
    // All accesses are stack references: under BSCstpvt neither R nor
    // W should see them (W stays empty; commits are all empty-W).
    std::vector<Op> ops;
    for (int i = 0; i < 800; ++i) {
        Op op = i % 2 ? load(0x1000'0000 + (i % 16) * 64, 3)
                      : store(0x1000'0000 + (i % 16) * 64, i, 3);
        op.stackRef = true;
        ops.push_back(op);
    }
    MachineConfig cfg;
    cfg.model = Model::BSCstpvt;
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_DOUBLE_EQ(r.stats.get("bulk.empty_w_pct"), 100.0);
    EXPECT_DOUBLE_EQ(r.stats.get("bulk.avg_read_set"), 0.0);
    EXPECT_GT(r.stats.get("bulk.avg_priv_write_set"), 0.0);
}

TEST(BulkProcessor, SetOverflowEndsChunkEarly)
{
    // Write more same-set lines than the L1 associativity within what
    // would be one chunk: the chunk must end early rather than lose
    // speculative data (commits > expected-by-instruction-count).
    std::vector<Op> ops;
    // 256-set L1: lines k*256 all map to set 0.
    for (int i = 0; i < 12; ++i)
        ops.push_back(store(Addr{static_cast<unsigned>(i)} * 256 * 32,
                            i, 2));
    ops.push_back(load(0x2000, 50));
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 1;
    System sys(cfg, {makeTrace(ops)});
    Results r = sys.run(10'000'000);
    ASSERT_TRUE(r.completed);
    // ~90 instructions would be a single chunk; the overflow rule
    // must split it.
    EXPECT_GE(r.stats.get("bulk.commits"), 3.0);
    // Bloom-aliased victim vetoes can occasionally force a fill
    // bypass, but the overflow rule keeps it to stray cases.
    EXPECT_LE(sys.memory().fillBypasses(), 2u);
}

/** Streaming-region line @p k of L1 set 0 (default L1: 256 sets of
 *  32-byte lines). Never warmed, so every store to one misses and
 *  keeps its chunk live until the fill returns. */
Addr
setZeroLine(unsigned k)
{
    return layout::kStreamBase + Addr{k} * 256 * 32;
}

/** Instructions of processor @p p's committed chunks, in order. */
std::vector<std::uint64_t>
committedChunks(const System &sys, ProcId p)
{
    std::vector<std::uint64_t> out;
    for (const TraceEvent &e : sys.trace()->snapshot()) {
        if (e.type == TraceEventType::ChunkCommit &&
            e.track == trackProc(p))
            out.push_back(e.arg);
    }
    return out;
}

std::vector<std::uint64_t>
nonEmpty(std::vector<std::uint64_t> sizes)
{
    std::erase(sizes, 0u);
    return sizes;
}

/** Run @p traces on BSCdypvt with chunk-lifecycle tracing. */
Results
runTraced(System &sys)
{
    sys.enableTrace(~std::uint32_t{0});
    return sys.run(2'000'000);
}

MachineConfig
overflowConfig(unsigned procs, unsigned chunk = 1000)
{
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = procs;
    cfg.bulk.chunkSize = chunk;
    return cfg;
}

TEST(BulkProcessor, WayOverflowEndsChunkAtAssocMinusOneLines)
{
    // A 4-way L1 holds at most 3 speculative lines per set: storing
    // to a 4th distinct set-0 line ends the chunk before that store.
    // Committing the chunk frees its ways, so the next 3 lines fit.
    std::vector<Op> ops;
    for (unsigned k = 0; k < 9; ++k)
        ops.push_back(store(setZeroLine(k), k, 1));
    ops.push_back(load(0x2000, 50));
    System sys(overflowConfig(1), {makeTrace(ops)});
    Results r = runTraced(sys);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(nonEmpty(committedChunks(sys, 0)),
              (std::vector<std::uint64_t>{6, 6, 6 + 51}));
}

TEST(BulkProcessor, RewritingASpeculativeLineNeedsNoNewWay)
{
    std::vector<Op> ops;
    for (unsigned rep = 0; rep < 3; ++rep) {
        for (unsigned k = 0; k < 3; ++k)
            ops.push_back(store(setZeroLine(k), rep * 3 + k, 1));
    }
    ops.push_back(load(0x2000, 50));
    System sys(overflowConfig(1), {makeTrace(ops)});
    Results r = runTraced(sys);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(committedChunks(sys, 0),
              (std::vector<std::uint64_t>{18 + 51}));
}

TEST(BulkProcessor, LineWrittenByTwoLiveChunksCountsOnce)
{
    // 16-instruction chunks. The first writes set-0 lines 0 and 1 and
    // stays live waiting for their fills while the second runs.
    auto run = [](unsigned second_first_line) {
        std::vector<Op> ops = {
            store(setZeroLine(0), 1, 7), store(setZeroLine(1), 2, 7),
            store(setZeroLine(second_first_line), 3, 7),
            store(setZeroLine(2), 4, 7), load(0x2000, 50)};
        System sys(overflowConfig(1, 16), {makeTrace(ops)});
        Results r = runTraced(sys);
        EXPECT_TRUE(r.completed);
        return committedChunks(sys, 0);
    };
    // Re-writing line 0 in the second chunk: lines {0, 1, 2} are 3
    // distinct ways, so the second chunk runs to its full 16.
    EXPECT_EQ(run(0)[1], 16u);
    // Control: a fresh line 3 makes line 2 the 4th distinct line while
    // the first chunk is live, so the second chunk ends after 8.
    EXPECT_EQ(run(3)[1], 8u);
}

TEST(BulkProcessor, SquashedChunkReleasesItsWays)
{
    // P0's first chunk stays live on a cold store; its second chunk
    // reads x, writes 3 set-0 lines and is squashed by P1's commit to
    // x. After everything commits, 3 new set-0 lines must fit again:
    // ways leaked by the squashed chunk would end every later chunk
    // at its first set-0 store, and the run would never finish.
    const Addr x = 0x9000'0500;
    std::vector<Op> p0 = {
        store(layout::kStreamBase + 32, 1, 15), // set 1; ends chunk
        load(x, 0),
        store(setZeroLine(0), 2, 0),
        store(setZeroLine(1), 3, 0),
        store(setZeroLine(2), 4, 0),
        load(0x2000, 11),
    };
    for (unsigned k = 3; k < 6; ++k)
        p0.push_back(store(setZeroLine(k), k, 0));
    p0.push_back(load(0x2000, 50));
    std::vector<Op> p1 = {store(x, 9, 1), load(0x3000, 50)};
    System sys(overflowConfig(2, 16), {makeTrace(p0), makeTrace(p1)});
    Results r = runTraced(sys);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sys.processor(0).squashes(), 1u);
    // Only the younger chunk (seq 1 onward) was squashed.
    for (const TraceEvent &e : sys.trace()->snapshot()) {
        if (e.type == TraceEventType::ChunkSquash &&
            e.track == trackProc(0)) {
            EXPECT_GE(e.seq, 1u);
        }
    }
}

TEST(BulkProcessor, EndChunkOnSyncShortensLockWindows)
{
    // With chunk boundaries at synchronization ops, each critical
    // section starts in a fresh chunk: more commits, and contention
    // windows no wider than the critical section itself.
    const Addr lock = layout::lockAddr(9);
    auto mk = [&] {
        std::vector<Op> ops;
        for (int i = 0; i < 20; ++i) {
            ops.push_back(load(0x1000 + (i % 8) * 64, 40));
            Op acq;
            acq.type = OpType::Acquire;
            acq.addr = lock;
            acq.gap = 5;
            ops.push_back(acq);
            ops.push_back(store(0xB000'0100, i, 3));
            Op rel;
            rel.type = OpType::Release;
            rel.addr = lock;
            rel.gap = 3;
            ops.push_back(rel);
        }
        return makeTrace(ops);
    };
    MachineConfig plain;
    plain.model = Model::BSCdypvt;
    plain.numProcs = 2;
    System a(plain, {mk(), mk()});
    Results ra = a.run(100'000'000);

    MachineConfig split = plain;
    split.bulk.endChunkOnSync = true;
    System b(split, {mk(), mk()});
    Results rb = b.run(100'000'000);

    ASSERT_TRUE(ra.completed);
    ASSERT_TRUE(rb.completed);
    EXPECT_GT(rb.stats.get("bulk.commits"),
              ra.stats.get("bulk.commits"));
}

TEST(BulkProcessor, TableStatsArePopulated)
{
    auto traces = generateTraces(profileByName("barnes"), 4, 8000);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    System sys(cfg, std::move(traces));
    Results r = sys.run(100'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.stats.get("bulk.commits"), 0.0);
    EXPECT_GT(r.stats.get("bulk.avg_read_set"), 0.0);
    EXPECT_GT(r.stats.get("arb.requests"), 0.0);
    EXPECT_GE(r.stats.get("arb.empty_w_pct"), 0.0);
    EXPECT_GT(r.stats.get("net.bits.WrSig"), 0.0);
}

} // namespace
} // namespace bulksc
