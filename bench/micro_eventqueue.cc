/**
 * @file
 * DES-kernel microbenchmark: the timing-wheel EventQueue vs. the
 * original std::function + std::priority_queue kernel, on an event mix
 * modelled on what a fig9 run schedules (the "fig9 mix"), plus the
 * absolute events/sec of a real fig9-style simulation.
 *
 *   micro_eventqueue [--events N] [--reps N] [--min-ratio X]
 *
 * The synthetic mix replays the delay/fan-out distribution of the
 * simulator's hot path: short fixed latencies (store retire, forward
 * log, cache hits), medium network/arbitration latencies, commit retry
 * backoff, and occasional long io waits, with capture payloads sized
 * like the simulator's lambdas. The delay and fan-out streams are
 * drawn before the timed region so both kernels replay the identical
 * schedule and the measurement isolates kernel cost, not the RNG.
 * Exits non-zero if the new kernel does not reach --min-ratio times
 * the legacy events/sec (default 2.0, the acceptance bar; 0 disables
 * the check).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "system/sim_options.hh"
#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

using namespace bulksc;

namespace {

/** The pre-rework kernel, kept here as the comparison baseline. */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return _now; }

    void
    schedule(Tick when, Callback cb)
    {
        panic_if(when < _now, "scheduling event in the past: ", when,
                 " < ", _now);
        events.push(Event{when, nextSeq++, std::move(cb)});
    }

    void
    scheduleAfter(Tick delta, Callback cb)
    {
        schedule(_now + delta, std::move(cb));
    }

    bool empty() const { return events.empty(); }

    std::uint64_t eventsFired() const { return fired; }

    Tick
    run(Tick limit = kTickNever)
    {
        while (!events.empty() && events.top().when <= limit) {
            Event ev = std::move(const_cast<Event &>(events.top()));
            events.pop();
            _now = ev.when;
            ++fired;
            ev.cb();
        }
        return _now;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> events;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
};

/** Delay mix drawn from the simulator's scheduling sites: L1 hits and
 *  store retires (1-3), forward-log drain (3), spin retries (10),
 *  arbiter processing (24), commit retry (30), network + directory
 *  latencies, and a tail of long io waits. */
Tick
mixDelay(Rng &rng)
{
    unsigned r = static_cast<unsigned>(rng.below(100));
    if (r < 30)
        return 1 + rng.below(3);
    if (r < 45)
        return 3;
    if (r < 60)
        return 10;
    if (r < 75)
        return 24 + rng.below(8);
    if (r < 85)
        return 30;
    if (r < 97)
        return 60 + rng.below(240);
    return 2500 + rng.below(5000); // beyond-horizon tail
}

/** Pre-drawn delay/fan-out stream: bit 31 is the "fan out a one-shot
 *  completion" coin flip (heads half the time), low bits the delay. */
constexpr std::size_t kMixLen = std::size_t{1} << 16;
constexpr std::size_t kMixMask = kMixLen - 1;

std::vector<std::uint32_t>
drawMix()
{
    Rng rng(0x9e3779b9u);
    std::vector<std::uint32_t> mix(kMixLen);
    for (auto &m : mix) {
        m = static_cast<std::uint32_t>(mixDelay(rng));
        if (rng.below(2) == 0)
            m |= 0x80000000u;
    }
    return mix;
}

/**
 * Drive @p eq with the fig9-style mix until ~@p target events fired.
 * Each "processor" keeps one self-rescheduling chain alive (the
 * advance loop: a bare owner pointer) and fans out one-shot
 * completion events shaped like the simulator's store-retire lambda —
 * a captured std::function continuation plus owner pointer and epoch,
 * 48 bytes, the simulator's most frequent event.
 */
template <typename Queue>
std::uint64_t
runMix(Queue &eq, const std::vector<std::uint32_t> &mix,
       std::uint64_t target, std::uint64_t &checksum)
{
    struct Chain
    {
        Queue *eq;
        const std::uint32_t *mix;
        std::size_t mi;
        std::uint64_t remaining;
        std::uint64_t *checksum;
        std::shared_ptr<std::uint64_t> payload;

        void
        fire()
        {
            *checksum += eq->now() + *payload;
            if (!remaining)
                return;
            --remaining;
            std::uint32_t m = mix[mi++ & kMixMask];
            if (m & 0x80000000u) {
                std::uint32_t d = mix[mi++ & kMixMask];
                std::function<void()> done =
                    [sum = checksum, seq = remaining] { *sum += seq; };
                eq->scheduleAfter(
                    d & 0x7fffffffu,
                    [done = std::move(done), p = payload.get(),
                     e = remaining] { *p ^= e; done(); });
            }
            eq->scheduleAfter(m & 0x7fffffffu, [this] { fire(); });
        }
    };

    constexpr unsigned kProcs = 8;
    std::vector<std::unique_ptr<Chain>> chains;
    for (unsigned p = 0; p < kProcs; ++p) {
        // Stagger the chains through the shared stream so they don't
        // replay each other's schedule in lockstep.
        chains.push_back(std::make_unique<Chain>(Chain{
            &eq, mix.data(), p * (kMixLen / kProcs + 137),
            target / kProcs, &checksum,
            std::make_shared<std::uint64_t>(p)}));
        eq.scheduleAfter(1 + p, [c = chains.back().get()] { c->fire(); });
    }
    eq.run();
    return eq.eventsFired();
}

template <typename Queue>
double
oneRep(const std::vector<std::uint32_t> &mix, std::uint64_t events,
       std::uint64_t &check)
{
    auto eq = std::make_unique<Queue>();
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t fired = runMix(*eq, mix, events, check);
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(fired) / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 2'000'000;
    unsigned reps = 3;
    double min_ratio = 2.0;

    SimOptions opts;
    // Throughput measurement: keep the signatures' exact stats mirror
    // off unless asked for (--exact-stats).
    opts.cfg.bulk.sigCfg.trackExact = false;
    const OptionRegistry &reg = OptionRegistry::instance();
    std::string err;
    std::vector<const char *> rest;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--events") && i + 1 < argc) {
            events = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--min-ratio") &&
                   i + 1 < argc) {
            min_ratio = std::strtod(argv[++i], nullptr);
        } else {
            rest.push_back(argv[i]);
        }
    }
    if (!rest.empty() &&
        !reg.parse(static_cast<int>(rest.size()), rest.data(), opts,
                   OptionGroup::Bench, err)) {
        std::fprintf(stderr, "%s\nusage: %s [--events N] [--reps N] "
                             "[--min-ratio X] [sim options]\n",
                     err.c_str(), argv[0]);
        reg.printUsage(stderr, OptionGroup::Bench);
        return 1;
    }

    const std::vector<std::uint32_t> mix = drawMix();
    std::uint64_t check_new = 0, check_old = 0;
    // Interleave the reps so background-load drift hits both kernels
    // alike; best-of-reps then discards the disturbed runs.
    double new_eps = 0, old_eps = 0;
    for (unsigned i = 0; i < reps; ++i) {
        new_eps = std::max(
            new_eps, oneRep<EventQueue>(mix, events, check_new));
        old_eps = std::max(
            old_eps, oneRep<LegacyEventQueue>(mix, events, check_old));
    }
    check_new /= reps;
    check_old /= reps;
    if (check_new != check_old) {
        std::fprintf(stderr,
                     "FAIL: kernels disagree on the mix "
                     "(checksum %llu vs %llu)\n",
                     static_cast<unsigned long long>(check_new),
                     static_cast<unsigned long long>(check_old));
        return 1;
    }

    double ratio = new_eps / old_eps;
    std::printf("fig9 mix, %llu events, best of %u reps:\n",
                static_cast<unsigned long long>(events), reps);
    std::printf("  legacy kernel: %12.0f events/sec\n", old_eps);
    std::printf("  wheel kernel:  %12.0f events/sec\n", new_eps);
    std::printf("  speedup:       %.2fx\n", ratio);

    // Absolute events/sec of the real simulator on a fig9 point.
    opts.cfg.resolve();
    AppProfile app = profileByName(opts.app);
    auto traces = generateTraces(app, opts.cfg.numProcs,
                                 opts.instrs ? opts.instrs : 60'000,
                                 opts.seedSalt);
    System sys(opts.cfg, std::move(traces));
    auto t0 = std::chrono::steady_clock::now();
    Results res = sys.run();
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    std::printf("  full sim (%s, %u procs): %.0f events/sec, "
                "%llu events, exec_time=%llu\n",
                app.name.c_str(), opts.cfg.numProcs,
                static_cast<double>(sys.eventQueue().eventsFired()) /
                    secs,
                static_cast<unsigned long long>(
                    sys.eventQueue().eventsFired()),
                static_cast<unsigned long long>(res.execTime));

    if (min_ratio > 0 && ratio < min_ratio) {
        std::fprintf(stderr, "FAIL: speedup %.2fx below required "
                             "%.2fx\n", ratio, min_ratio);
        return 1;
    }
    return 0;
}
