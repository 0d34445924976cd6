/**
 * @file
 * Microbenchmarks (google-benchmark) of the signature primitive
 * operations of the paper's Figure 2: insertion, membership,
 * intersection, union, decode, and compression — the operations the
 * BDM, arbiter, and DirBDM perform on every access/commit — plus the
 * construction and copy that every chunk and commit pays.
 */

#include <benchmark/benchmark.h>

#include "signature/signature.hh"
#include "sim/rng.hh"

using namespace bulksc;

namespace {

Signature
filledSig(unsigned n, std::uint64_t seed, bool exact = false)
{
    SignatureConfig cfg;
    cfg.exact = exact;
    Signature s(cfg);
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i)
        s.insert(rng.next() & 0xFFFFFF);
    return s;
}

void
BM_SignatureInsert(benchmark::State &state)
{
    Rng rng(1);
    Signature s;
    for (auto _ : state) {
        s.insert(rng.next() & 0xFFFFFF);
        if (s.exactSize() > 4096) {
            state.PauseTiming();
            s.clear();
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_SignatureInsert);

void
BM_SignatureMembership(benchmark::State &state)
{
    Signature s = filledSig(static_cast<unsigned>(state.range(0)), 2);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.contains(rng.next() & 0xFFFFFF));
}
BENCHMARK(BM_SignatureMembership)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureIntersect(benchmark::State &state)
{
    Signature a = filledSig(static_cast<unsigned>(state.range(0)), 4);
    Signature b = filledSig(static_cast<unsigned>(state.range(0)), 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.intersects(b));
}
BENCHMARK(BM_SignatureIntersect)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureIntersectExact(benchmark::State &state)
{
    Signature a =
        filledSig(static_cast<unsigned>(state.range(0)), 6, true);
    Signature b =
        filledSig(static_cast<unsigned>(state.range(0)), 7, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.intersects(b));
}
BENCHMARK(BM_SignatureIntersectExact)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureUnion(benchmark::State &state)
{
    Signature a = filledSig(64, 8);
    Signature b = filledSig(64, 9);
    for (auto _ : state) {
        Signature c = a;
        c.unionWith(b);
        benchmark::DoNotOptimize(c.empty());
    }
}
BENCHMARK(BM_SignatureUnion);

/**
 * What a chunk, an arbiter request and a commit pay per signature:
 * construct an empty one (the index tables are shared per geometry,
 * so this allocates only the bit array) and copy it. Arg 0 keeps the
 * exact mirror off, as plain timing runs do; arg 1 turns it on.
 */
void
BM_SignatureConstructAndCopy(benchmark::State &state)
{
    SignatureConfig cfg;
    cfg.trackExact = state.range(0) != 0;
    for (auto _ : state) {
        Signature s(cfg);
        s.insert(42);
        Signature c = s;
        benchmark::DoNotOptimize(c.contains(42));
    }
}
BENCHMARK(BM_SignatureConstructAndCopy)->Arg(0)->Arg(1);

void
BM_SignatureDecode(benchmark::State &state)
{
    Signature s = filledSig(static_cast<unsigned>(state.range(0)), 10);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.decodeBank0());
}
BENCHMARK(BM_SignatureDecode)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureCompressedBits(benchmark::State &state)
{
    Signature s = filledSig(static_cast<unsigned>(state.range(0)), 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.compressedBits());
}
BENCHMARK(BM_SignatureCompressedBits)->Arg(4)->Arg(64);

} // namespace

BENCHMARK_MAIN();
