/**
 * @file
 * Memory-path microbenchmark: host ns per tag-array lookup and peek on
 * the Table 2 L1 (32 KB 4-way) and L2 (8 MB 8-way), and host ms per
 * functional cache warm-up of an ocean trace set.
 *
 *   micro_cache [--probes N] [--instrs N] [--reps N]
 *
 * The probe stream is drawn before the timed region: line addresses
 * from a working set of twice the array's capacity, so about half the
 * probes hit. The warm-up is timed on Systems built before the timed
 * region (8 procs, --instrs instructions each); System::run does the
 * same walk before tick 0. Prints a checksum of the hits, so the probes
 * cannot be optimized away, and a digest of the warmed memory state.
 * Each figure is the best of --reps runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/rng.hh"
#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

using namespace bulksc;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Fill every other line of a working set twice @p g's capacity into
 *  an array of geometry @p g, then time @p probes lookups and peeks. */
void
probeArray(const char *name, const CacheGeometry &g, std::uint64_t probes,
           unsigned reps)
{
    Rng rng(g.sizeBytes);
    std::vector<LineAddr> lines(probes);
    const std::uint64_t span = 2 * g.numLines();
    for (LineAddr &l : lines)
        l = rng.below(span) * 3 + 0x40000; // spread across the sets

    CacheArray a(g);
    std::optional<Victim> vic;
    for (std::uint64_t i = 0; i < span; i += 2)
        a.insert(i * 3 + 0x40000, LineState::Shared, nullptr, vic);

    double best_lookup = 1e30, best_peek = 1e30;
    std::uint64_t hits = 0;
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (LineAddr l : lines)
            hits += a.lookup(l) != nullptr;
        best_lookup = std::min(best_lookup, secondsSince(t0));
        t0 = Clock::now();
        for (LineAddr l : lines)
            hits += a.peek(l) != nullptr;
        best_peek = std::min(best_peek, secondsSince(t0));
    }
    const double n = static_cast<double>(probes);
    std::printf("%-3s lookup %6.2f ns   peek %6.2f ns   (%llu probes, "
                "checksum %llu)\n",
                name, 1e9 * best_lookup / n, 1e9 * best_peek / n,
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(hits));
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t probes = 2'000'000;
    std::uint64_t instrs = 40'000;
    unsigned reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--probes") && i + 1 < argc)
            probes = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--instrs") && i + 1 < argc)
            instrs = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else {
            std::fprintf(stderr,
                         "usage: %s [--probes N] [--instrs N] [--reps N]\n",
                         argv[0]);
            return 1;
        }
    }
    if (probes == 0 || instrs == 0 || reps == 0) {
        std::fprintf(stderr, "micro_cache: counts must be positive\n");
        return 1;
    }

    MachineConfig cfg;
    probeArray("L1", cfg.mem.l1, probes, reps);
    probeArray("L2", cfg.mem.l2, probes, reps);

    std::vector<Trace> traces =
        generateTraces(profileByName("ocean"), 8, instrs, 1);
    std::uint64_t ops = 0;
    for (const Trace &t : traces)
        ops += t.ops.size();
    double best = 1e30;
    std::uint64_t digest = 0;
    for (unsigned r = 0; r < reps; ++r) {
        auto sys = std::make_unique<System>(cfg, traces);
        auto t0 = Clock::now();
        sys->warmUp();
        best = std::min(best, secondsSince(t0));
        digest = sys->memory().fingerprint();
    }
    std::printf("warm-up %8.3f ms   (8 procs x %llu instrs, %llu ops, "
                "%.2f ns/op, checksum %016llx)\n",
                1e3 * best, static_cast<unsigned long long>(instrs),
                static_cast<unsigned long long>(ops),
                1e9 * best / static_cast<double>(ops),
                static_cast<unsigned long long>(digest));
    return 0;
}
