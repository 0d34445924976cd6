/**
 * @file
 * Synchronization-pattern demo (Section 3.3 of the paper): how
 * explicit synchronization interacts with chunks.
 *
 * 1. Contended locks: multiple processors may enter a critical
 *    section speculatively, each believing it owns the lock; the
 *    first chunk to commit squashes the others.
 * 2. Barriers: arrival increments commit through the chunk pipeline,
 *    and spinning waiters are woken by the squash caused by the
 *    releaser's committing W signature.
 * 3. The pathological write-spinner: repeated squashes trigger the
 *    forward-progress measures (exponential chunk shrinking, then
 *    pre-arbitration).
 *
 *   ./build/examples/sync_patterns
 */

#include <cstdio>

#include "system/system.hh"
#include "workload/generator.hh"

using namespace bulksc;

namespace {

Op
load(Addr a, std::uint32_t gap = 1)
{
    Op op;
    op.type = OpType::Load;
    op.addr = a;
    op.gap = gap;
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

void
contendedLocks()
{
    std::printf("--- contended critical sections "
                "(Figure 6 scenarios) ---\n");
    const Addr lock = layout::lockAddr(0);
    auto mk = [&] {
        std::vector<Op> ops;
        for (int i = 0; i < 30; ++i) {
            Op acq;
            acq.type = OpType::Acquire;
            acq.addr = lock;
            acq.gap = 15;
            ops.push_back(acq);
            ops.push_back(load(0xB000'0000, 3));
            ops.push_back(store(0xB000'0000, i, 3));
            Op rel;
            rel.type = OpType::Release;
            rel.addr = lock;
            rel.gap = 15;
            ops.push_back(rel);
        }
        return makeTrace(ops);
    };

    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    System sys(cfg, {mk(), mk(), mk(), mk()});
    Results r = sys.run(200'000'000);
    std::printf("  completed=%s  exec=%llu cycles\n",
                r.completed ? "yes" : "NO",
                static_cast<unsigned long long>(r.execTime));
    std::printf("  chunk commits=%.0f  squashes=%.0f  "
                "(losers of speculative critical sections)\n",
                r.stats.get("bulk.commits"),
                r.stats.get("cpu.squashes"));
    std::printf("  lock word after the run: %llu (free)\n\n",
                static_cast<unsigned long long>(
                    sys.memory().readValue(lock)));
}

void
barriers()
{
    std::printf("--- barriers through chunks ---\n");
    auto mk = [&] {
        std::vector<Op> ops;
        for (std::uint32_t b = 0; b < 4; ++b) {
            for (int i = 0; i < 40; ++i)
                ops.push_back(load(0x1000 + (i % 8) * 64, 5));
            Op arrive;
            arrive.type = OpType::BarrierArrive;
            arrive.addr = layout::kBarrierBase;
            arrive.gap = 5;
            arrive.aux = b;
            ops.push_back(arrive);
            Op wait = arrive;
            wait.type = OpType::BarrierWait;
            ops.push_back(wait);
        }
        return makeTrace(ops);
    };
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 8;
    std::vector<Trace> traces;
    for (int i = 0; i < 8; ++i)
        traces.push_back(mk());
    System sys(cfg, std::move(traces));
    Results r = sys.run(200'000'000);
    std::printf("  8 processors x 4 barriers: completed=%s, "
                "exec=%llu cycles\n",
                r.completed ? "yes" : "NO",
                static_cast<unsigned long long>(r.execTime));
    std::printf("  squashes=%.0f (spinning waiters woken by the "
                "releaser's commit)\n\n",
                r.stats.get("cpu.squashes"));
}

void
forwardProgress()
{
    std::printf("--- pathological write-spinners "
                "(forward-progress measures) ---\n");
    const Addr v = 0x9000'0000;
    std::vector<Trace> traces;
    {
        std::vector<Op> ops; // the key processor
        for (int i = 0; i < 100; ++i) {
            ops.push_back(load(v, 4));
            ops.push_back(store(v, i, 4));
        }
        traces.push_back(makeTrace(ops));
    }
    for (int p = 1; p < 4; ++p) {
        std::vector<Op> ops; // write-spinners
        for (int i = 0; i < 400; ++i)
            ops.push_back(store(v, i, 2));
        traces.push_back(makeTrace(ops));
    }
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    cfg.bulk.preArbThreshold = 4;
    System sys(cfg, std::move(traces));
    Results r = sys.run(400'000'000);
    std::printf("  completed=%s  squashes=%.0f  "
                "pre-arbitrations=%.0f\n",
                r.completed ? "yes" : "NO",
                r.stats.get("cpu.squashes"),
                r.stats.get("bulk.pre_arbitrations"));
    std::printf("  (squashed chunks shrink exponentially; if that "
                "fails, the processor\n   reserves the arbiter and "
                "is guaranteed to commit — Section 3.3)\n");
}

} // namespace

int
main()
{
    contendedLocks();
    barriers();
    forwardProgress();
    return 0;
}
