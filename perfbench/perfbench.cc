/**
 * @file
 * The repository benchmark: simulator host throughput and the
 * modelled BulkSC machine's behaviour on workloads that separate the
 * simulator's layers (see README.md for why each was chosen).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--span-out FILE]
 *
 * The benchmark makes its inputs from --seed (generateTraces or the
 * litmus constructors) and hands only those traces to System or
 * Explorer. Each workload is a fixed number of independent inputs
 * drawn from the seed, simulated (or explored) in rounds: one round
 * runs every input once. It is one closed-loop client on one thread:
 * the next simulation starts when the previous one returns. Layers
 * are timed from outside, around calls into their public functions;
 * simulated statistics come from Results.stats.
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones from a separate traced run that also records spans (written
 * to --span-out as Chrome trace_event JSON). Human-readable report
 * lines come first; the last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "explore/explorer.hh"
#include "explore/run_controller.hh"
#include "sig_replay.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "spans.hh"
#include "system/system.hh"
#include "workload/generator.hh"
#include "workload/litmus.hh"

namespace perfbench {
namespace {

using namespace bulksc;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Workloads

enum class Kind
{
    Sim,     //!< repeated whole-program simulations
    Explore, //!< repeated exhaustive schedule explorations
};

struct Workload
{
    const char *name;
    Kind kind;
    Model model;
    const char *app;
    unsigned procs;
    std::uint64_t instrsPerProc;
    unsigned arbiters;
    unsigned dirs;
    bool contention;
    bool checked; //!< axiomatic SC + race checkers attached
    /** Independent inputs per run (trace sets; for explore-litmus,
     *  timing variants per litmus test). Averaging over several
     *  inputs keeps the metrics of one seed close to another's. */
    unsigned inputs;
};

// One simulation takes 0.05-0.5 s of host time on a recent Xeon core
// (4-vCPU KVM guest), so a run measures whole rounds many times over.
const Workload kWorkloads[] = {
    {"bsc-ocean", Kind::Sim, Model::BSCdypvt, "ocean", 8, 100'000, 1, 1,
     false, false, 8},
    {"rc-ocean", Kind::Sim, Model::RC, "ocean", 8, 100'000, 1, 1, false,
     false, 8},
    // Not in BENCHMARK.json: its host time swings too much on shared
    // hosts to hold a bound (README.md). Still runnable and tested.
    {"bsc-radix-dist-checked", Kind::Sim, Model::BSCdypvt, "radix", 16,
     30'000, 4, 4, false, true, 8},
    {"explore-litmus", Kind::Explore, Model::BSCdypvt, "", 0, 0, 1, 1,
     false, true, 2},
    // The bsc-radix-dist-checked machine with destination-link
    // contention livelocks in commit arbitration on many inputs
    // (README.md, "Known defect").
    // Kept runnable as a reproduction.
    {"bsc-radix-dist-contended", Kind::Sim, Model::BSCdypvt, "radix", 16,
     20'000, 4, 4, true, true, 8},
};

/** Litmus tests of explore-litmus; the seed picks their timing
 *  variants. */
const char *const kLitmusTests[] = {"sb", "mp"};
constexpr unsigned kLitmusVariants = 8;

/** Delivery delays in [0, kExploreDelay] become choice points. */
constexpr unsigned kExploreDelay = 10;

/** Per-simulation tick budget, far above any workload's execution
 *  time: a simulation that livelocks without tripping the watchdog
 *  stops here and counts as failed instead of hanging the run. */
constexpr Tick kTickLimit = 5'000'000;

/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSimSetupReps = 5;
constexpr unsigned kExploreSetupReps = 21;

MachineConfig
machineFor(const Workload &w)
{
    MachineConfig cfg;
    cfg.model = w.model;
    cfg.numProcs = w.procs;
    cfg.numArbiters = w.arbiters;
    cfg.mem.numDirectories = w.dirs;
    cfg.net.modelContention = w.contention;
    // Armed as the command-line tools arm it; caches start
    // functionally warmed (the MachineConfig default).
    cfg.watchdog.enabled = true;
    return cfg;
}

/** Seed material of input @p k of a run with seed @p seed. */
std::uint64_t
inputSalt(std::uint64_t seed, std::uint64_t k)
{
    return mix64(seed ^ mix64(k));
}

// ---------------------------------------------------------------------
// Small helpers

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

double
pct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

/** FNV-1a over the bytes fed to it. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof b);
        u64(b);
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

std::uint64_t
statsDigest(const StatGroup &sg, std::uint64_t events)
{
    Digest d;
    for (const auto &[k, v] : sg.entries()) {
        d.str(k);
        d.f64(v);
    }
    d.u64(events);
    return d.value();
}

std::uint64_t
tracesDigest(const std::vector<Trace> &traces)
{
    Digest d;
    for (const Trace &t : traces) {
        d.u64(t.ops.size());
        for (const Op &op : t.ops) {
            d.u64(op.addr);
            d.u64(op.gap);
            d.u64(op.storeValue);
            d.u64(static_cast<std::uint64_t>(op.type));
        }
    }
    return d.value();
}

/**
 * Combine the statistics of several simulations: counts add up;
 * distribution summaries (.p50, .p90, ...), percentages and averages,
 * which do not add, take the median over the simulations.
 */
StatGroup
combineStats(const std::vector<StatGroup> &groups)
{
    auto summary = [](const std::string &k) {
        for (const char *suffix : {".p50", ".p90", ".p99", ".mean", ".min",
                                   ".max", "_pct"}) {
            std::size_t n = std::strlen(suffix);
            if (k.size() >= n && k.compare(k.size() - n, n, suffix) == 0)
                return true;
        }
        return k.find(".share.") != std::string::npos ||
               k.find("avg") != std::string::npos ||
               k.find("per_") != std::string::npos;
    };
    StatGroup out;
    std::map<std::string, std::vector<double>> med;
    for (const StatGroup &g : groups) {
        for (const auto &[k, v] : g.entries()) {
            if (summary(k))
                med[k].push_back(v);
            else
                out.add(k, v);
        }
    }
    for (const auto &[k, v] : med)
        out.set(k, median(v));
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; //!< report-only context (sample counts, bases)
};

/** Output checks: every attempted simulation or schedule is judged;
 *  run-level checks (determinism, tree drained) also land here. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool ok = true;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        ok = false;
        if (problems.size() < 16)
            problems.push_back(why);
    }

    /** Judge one attempted operation: failed iff @p why is nonempty. */
    void
    judge(const std::string &why)
    {
        ++attempted;
        if (!why.empty()) {
            ++failed;
            fail(why);
        }
    }

    bool passed() const { return ok && failed == 0 && attempted > 0; }
};

void
printReport(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("metric %-36s %.6g %s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.empty() ? "" : "  # ",
                    m.note.c_str());
    }
}

void
printResult(const Checks &c, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += c.passed() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(c.attempted);
    out += ", \"failed\": " + std::to_string(c.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += first ? "" : ", ";
        out += "\"" + m.name + "\": {\"value\": " + num +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spanOut;
};

/** Shared state of one benchmark run. */
struct Ctx
{
    Ctx(const Workload &wl, const Args &a) : w(wl), args(a), spans(a.trace)
    {}

    const Workload &w;
    const Args &args;
    SpanRecorder spans;          //!< enabled in traced runs
    SpanRecorder noSpans{false}; //!< for the untraced comparisons
    Checks checks;
    std::uint64_t nextId = 0;    //!< one id per simulation/schedule
    std::vector<Metric> metrics; //!< the result's metrics, in order
    std::vector<Metric> extra;   //!< report-only figures

    void
    metric(const char *name, double v, const char *unit,
           std::string note = "")
    {
        metrics.push_back(Metric{name, v, unit, std::move(note)});
    }

    void
    info(const char *name, double v, const char *unit,
         std::string note = "")
    {
        extra.push_back(Metric{name, v, unit, std::move(note)});
    }

    /** Keep starting rounds while one more fits in @p share of the
     *  run's seconds (at least @p min_rounds). */
    bool
    moreRounds(Clock::time_point t0, const std::vector<double> &round_s,
               std::size_t min_rounds, double share) const
    {
        if (round_s.size() < min_rounds)
            return true;
        return secondsSince(t0) + median(round_s) <=
               share * args.seconds;
    }
};

/** Per-layer counts read off the combined statistics of a round. */
void
layerCounts(Ctx &ctx, const StatGroup &s, double events)
{
    double retired = s.get("cpu.retired_instrs");
    double wasted = s.get("cpu.wasted_instrs");
    double squashes = s.get("cpu.squashes");
    ctx.metric("sim.events", events, "count");
    ctx.metric("squashed_instr_pct", pct(wasted, retired + wasted), "%",
               "wasted / (retired + wasted) instructions");
    ctx.metric("signature.false_positive_squash_pct",
               pct(s.get("bulk.squash.false_positive"), squashes), "%",
               "base: all squashes");
    ctx.metric("core.commits", s.get("bulk.commits"), "count");
    ctx.metric("core.arb_requests", s.get("arb.requests"), "count");
    ctx.metric("core.arb_grant_pct",
               pct(s.get("arb.grants"), s.get("arb.requests")), "%");
    ctx.metric("core.arb_latency_p50_cycles", s.get("bulk.arb_latency.p50"),
               "cycles", "median over the inputs");
    ctx.metric("core.arb_latency_p90_cycles", s.get("bulk.arb_latency.p90"),
               "cycles", "median over the inputs");
    ctx.metric("core.squashes", squashes, "count");
    ctx.metric("cpu.retired_instrs", retired, "count");
    ctx.metric("cpu.wasted_instrs", wasted, "count");
    ctx.metric("cpu.spin_instrs", s.get("cpu.spin_instrs"), "count");
    double hits = s.get("mem.l1_hits"), misses = s.get("mem.l1_misses");
    ctx.metric("mem.l1_hit_pct", pct(hits, hits + misses), "%");
    ctx.metric("mem.l1_misses", misses, "count");
    ctx.metric("mem.dir_lookups", s.get("mem.dir_lookups"), "count");
    ctx.metric("mem.dir_commit_service_p90_cycles",
               s.get("mem.dir_commit_service.p90"), "cycles",
               "median over the inputs");
    ctx.metric("mem.bounced_reads", s.get("mem.bounced_reads"), "count");
    ctx.metric("network.messages", s.get("net.messages"), "count");
    ctx.metric("network.bits_total", s.get("net.bits.total"), "bits");
    ctx.metric("network.queueing_cycles", s.get("net.queueing_cycles"),
               "cycles");
    ctx.metric("analysis.chunks", s.get("analysis.chunks"), "count");
    ctx.metric("analysis.graph_edges", s.get("analysis.graph_edges"),
               "count");
    ctx.metric("analysis.checked_accesses",
               s.get("analysis.checked_accesses"), "count");
    ctx.metric("analysis.races", s.get("analysis.races"), "count",
               "the synthetic generator's races: data, not failures");
    ctx.metric("analysis.sc_cycles", s.get("analysis.sc_cycles"), "count");
}

void
signatureMetrics(Ctx &ctx, const std::vector<std::vector<Trace>> &inputs,
                 const MachineConfig &cfg_in)
{
    MachineConfig cfg = cfg_in;
    cfg.resolve();
    Footprints fp;
    for (const auto &traces : inputs) {
        Footprints one = chunkFootprints(traces, cfg.bulk.chunkSize,
                                         cfg.mem.l1.lineBytes);
        fp.insert(fp.end(), one.begin(), one.end());
    }
    SigReplayResult r = replaySignatures(fp, cfg.bulk.sigCfg, 500'000,
                                         ctx.spans, ctx.nextId++,
                                         SpanRecorder::kNone);
    ctx.metric("signature.insert_ns", r.insertNs, "ns",
               std::to_string(r.inserts) + " inserts");
    ctx.metric("signature.contains_ns", r.containsNs, "ns",
               std::to_string(r.containsOps) + " probes");
    ctx.metric("signature.intersect_ns", r.intersectNs, "ns",
               std::to_string(r.intersectOps) + " intersections");
    ctx.metric("signature.alias_pct", r.aliasPct(), "%",
               "base: " + std::to_string(r.disjointPairs) +
                   " exact-disjoint intersections");
}

void
exploreCounts(Ctx &ctx, double schedules, double decisions, double por,
              double fp, double frontier, double fp_us)
{
    ctx.metric("explore.schedules", schedules, "count");
    ctx.metric("explore.decisions", decisions, "count");
    ctx.metric("explore.pruned_por", por, "count");
    ctx.metric("explore.pruned_fingerprint", fp, "count");
    ctx.metric("explore.prune_pct", pct(por + fp, por + fp + schedules),
               "%", "base: pruned + explored branches");
    ctx.metric("explore.frontier_peak", frontier, "count");
    ctx.metric("explore.fingerprint_us", fp_us, "us");
}

// ---------------------------------------------------------------------
// Simulation workloads

struct SimRun
{
    Results res;
    std::uint64_t events = 0;
    double buildS = 0;
    double runS = 0;
};

SimRun
simulate(Ctx &ctx, SpanRecorder &spans, const MachineConfig &cfg,
         const std::vector<Trace> &traces, bool checked)
{
    std::vector<Trace> copy = traces; // benchmark overhead, untimed
    std::uint64_t id = ctx.nextId++;
    SimRun r;
    int sp = spans.begin(checked == ctx.w.checked ? "simulation"
                                                  : "simulation.unchecked",
                         id);
    auto t0 = Clock::now();
    int b = spans.begin("system.build", id, sp);
    System sys(cfg, std::move(copy));
    if (checked)
        sys.enableAnalysis(true, true);
    spans.end(b);
    auto t1 = Clock::now();
    int run = spans.begin("system.run", id, sp);
    r.res = sys.run(kTickLimit);
    spans.end(run);
    auto t2 = Clock::now();
    spans.end(sp);
    r.events = sys.eventQueue().eventsFired();
    r.buildS = secondsBetween(t0, t1);
    r.runS = secondsBetween(t1, t2);
    return r;
}

/** Every simulation's output checks; @p ref is the statistics digest
 *  of the input's first simulation in this configuration (0 = none
 *  yet: this run sets it). */
std::string
simProblems(const Ctx &ctx, const SimRun &r, bool checked,
            std::uint64_t &ref)
{
    const StatGroup &s = r.res.stats;
    if (!r.res.completed)
        return "simulation did not complete within " +
               std::to_string(kTickLimit) + " ticks";
    if (r.res.watchdogVerdict != WatchdogVerdict::None)
        return std::string("watchdog verdict ") +
               watchdogVerdictName(r.res.watchdogVerdict);
    if (s.get("watchdog.rescues") != 0)
        return "the watchdog had to rescue a starved processor";
    if (checked && (!s.has("analysis.sc_cycles") ||
                    s.get("analysis.sc_cycles") != 0))
        return "axiomatic checker found an SC cycle";
    if (isBulk(ctx.w.model)) {
        double attributed = s.get("bulk.squash.true_conflict") +
                            s.get("bulk.squash.false_positive") +
                            s.get("bulk.squash.unattributed");
        if (attributed != s.get("cpu.squashes"))
            return "squash attribution does not add up";
        if (s.get("bulk.arb_latency.samples") != s.get("bulk.commits"))
            return "arbitration latency samples != commits";
    }
    std::uint64_t d = statsDigest(s, r.events);
    if (ref == 0)
        ref = d;
    else if (d != ref)
        return "same-seed simulation gave different statistics";
    return "";
}

struct SimSetup
{
    std::vector<std::vector<Trace>> inputs;
    std::vector<double> setupS, generateS;
};

/** Set-up: generate every input's traces and build its System,
 *  several times over; the first repetition's traces are kept. */
SimSetup
setupSim(Ctx &ctx, const MachineConfig &cfg)
{
    SimSetup out;
    const Workload &w = ctx.w;
    const AppProfile &app = profileByName(w.app);
    for (unsigned rep = 0; rep < kSimSetupReps; ++rep) {
        std::uint64_t id = ctx.nextId++;
        int sp = ctx.spans.begin("setup", id);
        double gen = 0, build = 0;
        for (unsigned k = 0; k < w.inputs; ++k) {
            auto t0 = Clock::now();
            int g = ctx.spans.begin("workload.generate", id, sp);
            std::vector<Trace> traces =
                generateTraces(app, w.procs, w.instrsPerProc,
                               inputSalt(ctx.args.seed, k));
            ctx.spans.end(g);
            gen += secondsSince(t0);
            if (rep == 0)
                out.inputs.push_back(traces); // untimed
            auto t1 = Clock::now();
            int b = ctx.spans.begin("system.build", id, sp);
            System sys(cfg, std::move(traces));
            if (w.checked)
                sys.enableAnalysis(true, true);
            ctx.spans.end(b);
            build += secondsSince(t1);
        }
        ctx.spans.end(sp);
        out.generateS.push_back(gen);
        out.setupS.push_back(gen + build);
    }
    return out;
}

void
runSim(Ctx &ctx)
{
    const Workload &w = ctx.w;
    MachineConfig cfg = machineFor(w);
    SimSetup setup = setupSim(ctx, cfg);
    const auto &inputs = setup.inputs;
    const std::size_t n = inputs.size();

    Digest in;
    std::uint64_t ops = 0;
    for (const auto &traces : inputs) {
        in.u64(tracesDigest(traces));
        for (const Trace &t : traces)
            ops += t.ops.size();
    }
    std::printf("input %zu trace sets x %u procs, %llu ops, digest "
                "%016llx\n",
                n, w.procs, static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(in.value()));

    std::vector<std::uint64_t> ref(n, 0), refUnchecked(n, 0);
    auto judged = [&](SimRun r, std::size_t k, bool checked) {
        ctx.checks.judge(simProblems(ctx, r, checked,
                                     checked == w.checked
                                         ? ref[k]
                                         : refUnchecked[k]));
        return r;
    };
    // Statistics of the first round, one entry per input.
    std::vector<StatGroup> firstStats;
    double firstEvents = 0;
    auto keepFirst = [&](const SimRun &r) {
        firstStats.push_back(r.res.stats);
        firstEvents += static_cast<double>(r.events);
    };
    auto printDigest = [&] {
        Digest d;
        for (const std::uint64_t r : ref)
            d.u64(r);
        std::printf("digest sim-stats %016llx (%zu inputs)\n",
                    static_cast<unsigned long long>(d.value()), n);
    };

    auto t0 = Clock::now();
    if (!ctx.args.trace) {
        // Two rounds at least: the second re-simulates every input
        // and must reproduce its statistics exactly. Each input's host
        // time is the median of its simulations in the run.
        std::vector<double> roundS;
        std::vector<std::vector<double>> runS(n), schedS(n);
        while (ctx.moreRounds(t0, roundS, 2, 1.0)) {
            auto r0 = Clock::now();
            for (std::size_t k = 0; k < n; ++k) {
                SimRun r = judged(
                    simulate(ctx, ctx.noSpans, cfg, inputs[k], w.checked), k,
                    w.checked);
                runS[k].push_back(r.runS);
                schedS[k].push_back(r.buildS + r.runS);
                if (roundS.empty())
                    keepFirst(r);
            }
            roundS.push_back(secondsSince(r0));
        }
        std::vector<double> run(n), sched(n);
        for (std::size_t k = 0; k < n; ++k) {
            run[k] = median(runS[k]);
            sched[k] = median(schedS[k]);
        }
        StatGroup s = combineStats(firstStats);
        std::string reps = "median of " + std::to_string(roundS.size()) +
                           " simulations per input";
        std::string perInput = "n=" + std::to_string(n) + " inputs, " +
                               reps + "; one simulation = one schedule";
        ctx.metric("sim_minstr_per_s",
                   s.get("cpu.retired_instrs") / sum(run) / 1e6, "Minstr/s",
                   reps);
        ctx.metric("schedules_per_s", static_cast<double>(n) / sum(sched),
                   "1/s", perInput);
        ctx.metric("schedule_ms_p50", 1e3 * median(sched), "ms", perInput);
        ctx.metric("schedule_ms_p90", 1e3 * quantile(sched, 0.9), "ms",
                   perInput);
        ctx.metric("setup_s", median(setup.setupS), "s",
                   "median of " + std::to_string(kSimSetupReps) +
                       " set-ups");
        ctx.metric("peak_rss_mb", peakRssMb(), "MB");
        ctx.metric("sim_cycles", s.get("exec_time"), "cycles",
                   "summed over the inputs");
        ctx.metric("net_bytes_per_kinstr",
                   s.get("net.bits.total") / 8.0 /
                       (s.get("cpu.retired_instrs") / 1000.0),
                   "B/kinstr");
        double retired = s.get("cpu.retired_instrs");
        double wasted = s.get("cpu.wasted_instrs");
        ctx.info("squashed_instr_pct", pct(wasted, retired + wasted), "%");
        printDigest();
        return;
    }

    // Traced run: per input, an untraced and a traced simulation
    // alternate so the tracing overhead compares like with like;
    // checked workloads add an unchecked simulation for the analysis
    // attribution.
    std::vector<double> roundS, plainS, tracedS, buildS, runS, nsPerEvent;
    std::vector<double> checkedRunS, uncheckedRunS;
    while (ctx.moreRounds(t0, roundS, 1, 0.6)) {
        auto r0 = Clock::now();
        double checkedRun = 0, uncheckedRun = 0;
        for (std::size_t k = 0; k < n; ++k) {
            SimRun u = judged(
                simulate(ctx, ctx.noSpans, cfg, inputs[k], w.checked), k,
                w.checked);
            plainS.push_back(u.buildS + u.runS);
            SimRun t = judged(
                simulate(ctx, ctx.spans, cfg, inputs[k], w.checked), k,
                w.checked);
            tracedS.push_back(t.buildS + t.runS);
            buildS.push_back(t.buildS);
            runS.push_back(t.runS);
            nsPerEvent.push_back(1e9 * t.runS /
                                 static_cast<double>(t.events));
            if (roundS.empty())
                keepFirst(t);
            if (w.checked) {
                SimRun c = judged(
                    simulate(ctx, ctx.spans, cfg, inputs[k], false), k,
                    false);
                checkedRun += t.runS;
                uncheckedRun += c.runS;
                if (c.res.execTime != t.res.execTime)
                    ctx.checks.fail("the checkers changed simulated time");
            }
        }
        checkedRunS.push_back(checkedRun);
        uncheckedRunS.push_back(uncheckedRun);
        roundS.push_back(secondsSince(r0));
    }
    std::string sims = "n=" + std::to_string(tracedS.size());
    layerCounts(ctx, combineStats(firstStats), firstEvents);
    ctx.metric("sim.ns_per_event", median(nsPerEvent), "ns", sims);
    ctx.metric("workload.generate_s", median(setup.generateS), "s",
               "all inputs");
    ctx.metric("system.build_s", median(buildS), "s", sims);
    ctx.metric("system.run_s", median(runS), "s", sims);
    ctx.metric("analysis.host_s",
               w.checked ? median(checkedRunS) - median(uncheckedRunS) : 0.0,
               "s",
               w.checked ? "checked - unchecked System::run per round, "
                           "medians"
                         : "n/a: no checkers on this workload");
    signatureMetrics(ctx, inputs, cfg);
    exploreCounts(ctx, 0, 0, 0, 0, 0, 0);
    ctx.metric("tracing.overhead_pct",
               100.0 * (median(tracedS) / median(plainS) - 1.0), "%",
               "traced vs untraced simulation, medians, " + sims);
    printDigest();
}

// ---------------------------------------------------------------------
// Exploration workload

std::vector<LitmusTest>
makeLitmus(const Workload &w, std::uint64_t seed)
{
    std::vector<LitmusTest> out;
    std::uint64_t k = 0;
    for (const char *name : kLitmusTests) {
        for (unsigned i = 0; i < w.inputs; ++i) {
            LitmusTest lt;
            auto variant = static_cast<unsigned>(inputSalt(seed, k++) %
                                                 kLitmusVariants);
            litmusByName(name, variant, lt);
            out.push_back(std::move(lt));
        }
    }
    return out;
}

ExploreConfig
exploreConfig(const Workload &w, const LitmusTest &lt)
{
    ExploreConfig ec;
    ec.machine = machineFor(w);
    ec.machine.numProcs = static_cast<unsigned>(lt.traces.size());
    // An always-on delay window: with a controller attached, each
    // delivery latency in it is a choice domain, not a random roll.
    ec.machine.faults = "net.delay=0:" + std::to_string(kExploreDelay);
    ec.traces = lt.traces;
    ec.checkAxiomatic = true;
    ec.checkRace = false;
    ec.por = true;
    ec.fpPrune = true;
    ec.jobs = 1;
    ec.maxSchedules = 1'000'000; // the tree must drain, not hit a budget
    return ec;
}

struct PassResult
{
    double wallS = 0;
    std::uint64_t schedules = 0, decisions = 0, prunedPor = 0,
                  prunedFp = 0, frontierPeak = 0;
    double simCycles = 0;
    std::vector<double> schedS;
    std::vector<std::uint64_t> perTest; //!< schedules per litmus test
    std::uint64_t digest = 0;
    std::vector<std::vector<Schedule>> prefixes; //!< per test, if kept
};

/** One exhaustive exploration of every litmus test. */
PassResult
explorePass(Ctx &ctx, SpanRecorder &spans,
            const std::vector<LitmusTest> &tests, bool keep_prefixes)
{
    PassResult p;
    Digest dig;
    std::uint64_t passId = ctx.nextId++;
    int passSpan = spans.begin("explore.pass", passId);
    auto t0 = Clock::now();
    for (const LitmusTest &lt : tests) {
        std::uint64_t failedBefore = ctx.checks.failed;
        Explorer ex(exploreConfig(ctx.w, lt));
        int sp = spans.begin("explore", passId, passSpan);
        std::vector<Schedule> kept;
        std::uint64_t n = 0;
        auto last = Clock::now();
        ex.onSchedule = [&](std::uint64_t, const Schedule &pfx,
                            const RunOutcome &out) {
            auto now = Clock::now();
            spans.record("explore.schedule", ctx.nextId++, sp, last, now);
            p.schedS.push_back(secondsBetween(last, now));
            last = now;
            ++n;
            ctx.checks.judge(out.verdict == ExploreVerdict::OK
                                 ? std::string()
                                 : std::string(exploreVerdictName(
                                       out.verdict)) +
                                       ": " + out.detail);
            p.simCycles += static_cast<double>(out.execTime);
            dig.u64(static_cast<std::uint64_t>(out.verdict));
            dig.u64(out.execTime);
            dig.u64(out.trace.size());
            dig.u64(out.mismatches);
            if (keep_prefixes)
                kept.push_back(pfx);
        };
        ExploreResult r = ex.explore();
        spans.end(sp);
        if (!r.exhaustive || r.budgetExhausted || r.violations ||
            ctx.checks.failed != failedBefore)
            ctx.checks.fail(lt.name + ": the schedule tree did not drain "
                                      "clean");
        p.schedules += r.schedulesRun;
        p.decisions += r.decisionsTotal;
        p.prunedPor += r.prunedPor;
        p.prunedFp += r.prunedFingerprint;
        p.frontierPeak = std::max(p.frontierPeak, r.frontierPeak);
        p.perTest.push_back(n);
        for (std::uint64_t v : {r.schedulesRun, r.decisionsTotal,
                                r.prunedPor, r.prunedFingerprint,
                                r.frontierPeak})
            dig.u64(v);
        if (keep_prefixes)
            p.prefixes.push_back(std::move(kept));
    }
    p.wallS = secondsSince(t0);
    spans.end(passSpan);
    p.digest = dig.value();
    return p;
}

struct Replay
{
    Results res;
    std::uint64_t events = 0;
    double buildS = 0, runS = 0;
};

/** Replay one schedule outside the Explorer, as Explorer::runOne
 *  runs it, timing every stateFingerprint() call the controller
 *  makes into @p fp_us. */
Replay
replaySchedule(Ctx &ctx, const ExploreConfig &ec, const Schedule &pfx,
               std::vector<double> &fp_us)
{
    SpanRecorder &spans = ctx.spans;
    std::uint64_t id = ctx.nextId++;
    Replay out;
    // The controller must outlive the System (see Explorer::runOne).
    RunController ctrl(pfx, ec.por);
    int sp = spans.begin("schedule.replay", id);
    auto t0 = Clock::now();
    int b = spans.begin("system.build", id, sp);
    System sys(ec.machine, ec.traces);
    spans.end(b);
    auto t1 = Clock::now();
    int run = SpanRecorder::kNone;
    ctrl.setFingerprintFn([&] {
        auto a = Clock::now();
        std::uint64_t f = sys.stateFingerprint();
        auto e = Clock::now();
        spans.record("system.stateFingerprint", id, run, a, e);
        fp_us.push_back(1e6 * secondsBetween(a, e));
        return f;
    });
    sys.setScheduleController(&ctrl);
    sys.enableAnalysis(ec.checkAxiomatic, ec.checkRace);
    run = spans.begin("system.run", id, sp);
    out.res = sys.run(ec.tickLimit);
    spans.end(run);
    auto t2 = Clock::now();
    spans.end(sp);
    out.events = sys.eventQueue().eventsFired();
    out.buildS = secondsBetween(t0, t1);
    out.runS = secondsBetween(t1, t2);
    return out;
}

void
runExplore(Ctx &ctx)
{
    const Workload &w = ctx.w;

    // Set-up: litmus construction, then per test the Explorer and
    // the System every one of its schedules is built from.
    std::vector<double> setupS, generateS;
    std::vector<LitmusTest> tests;
    for (unsigned rep = 0; rep < kExploreSetupReps; ++rep) {
        std::uint64_t id = ctx.nextId++;
        int sp = ctx.spans.begin("setup", id);
        auto t0 = Clock::now();
        int g = ctx.spans.begin("workload.generate", id, sp);
        std::vector<LitmusTest> made = makeLitmus(w, ctx.args.seed);
        ctx.spans.end(g);
        auto t1 = Clock::now();
        for (const LitmusTest &lt : made) {
            int b = ctx.spans.begin("system.build", id, sp);
            ExploreConfig ec = exploreConfig(w, lt);
            System sys(ec.machine, ec.traces);
            Explorer ex(std::move(ec));
            ctx.spans.end(b);
        }
        ctx.spans.end(sp);
        setupS.push_back(secondsSince(t0));
        generateS.push_back(secondsBetween(t0, t1));
        if (rep == 0)
            tests = std::move(made);
    }
    std::vector<std::vector<Trace>> inputs;
    Digest in;
    for (const LitmusTest &lt : tests) {
        std::printf("input %s, %zu traces\n", lt.name.c_str(),
                    lt.traces.size());
        inputs.push_back(lt.traces);
        in.u64(tracesDigest(lt.traces));
    }
    std::printf("input digest %016llx\n",
                static_cast<unsigned long long>(in.value()));

    // Each test's default-order schedule, replayed outside the
    // Explorer, gives the workload's simulated statistics.
    std::vector<double> fpUs, replayBuild, replayRun, nsPerEvent;
    std::vector<StatGroup> rootStats;
    std::vector<double> rootRetired;
    double rootEvents = 0;
    Digest rootDigest;
    auto replayed = [&](const Replay &r) {
        replayBuild.push_back(r.buildS);
        replayRun.push_back(r.runS);
        nsPerEvent.push_back(1e9 * r.runS / static_cast<double>(r.events));
    };
    for (const LitmusTest &lt : tests) {
        Replay r = replaySchedule(ctx, exploreConfig(w, lt), Schedule{},
                                  fpUs);
        const StatGroup &s = r.res.stats;
        ctx.checks.judge(
            !r.res.completed ? "default schedule did not complete"
            : r.res.watchdogVerdict != WatchdogVerdict::None
                ? "default schedule: watchdog verdict"
            : s.get("analysis.sc_cycles") != 0 ? "default schedule: SC cycle"
                                               : "");
        rootStats.push_back(s);
        rootRetired.push_back(s.get("cpu.retired_instrs"));
        rootEvents += static_cast<double>(r.events);
        rootDigest.u64(statsDigest(s, r.events));
        replayed(r);
    }
    StatGroup roots = combineStats(rootStats);

    auto samePass = [&](const PassResult &p, const PassResult &ref) {
        if (p.digest != ref.digest)
            ctx.checks.fail("same-seed exploration enumerated a different "
                            "schedule tree");
    };
    auto printDigest = [&](const PassResult &p) {
        std::printf("digest sim-stats %016llx, explore %016llx\n",
                    static_cast<unsigned long long>(rootDigest.value()),
                    static_cast<unsigned long long>(p.digest));
    };

    auto t0 = Clock::now();
    if (!ctx.args.trace) {
        // Two explorations at least: the second must enumerate the
        // same tree.
        std::vector<PassResult> passes;
        std::vector<double> roundS;
        while (ctx.moreRounds(t0, roundS, 2, 1.0)) {
            passes.push_back(explorePass(ctx, ctx.noSpans, tests, false));
            samePass(passes.back(), passes.front());
            roundS.push_back(passes.back().wallS);
        }
        // Every pass enumerates the same schedules in the same order
        // (checked above), so schedule i's host time is the median of
        // its repetitions, as for the simulation workloads.
        const PassResult &p0 = passes.front();
        std::vector<double> sched(p0.schedS.size());
        for (std::size_t i = 0; i < sched.size(); ++i) {
            std::vector<double> reps;
            for (const PassResult &p : passes)
                if (i < p.schedS.size())
                    reps.push_back(p.schedS[i]);
            sched[i] = median(reps);
        }
        double retired = 0;
        for (std::size_t t = 0; t < tests.size(); ++t) {
            // Every schedule of a test retires the instructions of
            // its default-order schedule.
            retired += static_cast<double>(p0.perTest[t]) * rootRetired[t];
        }
        double wall = sum(sched);
        std::string n = "n=" + std::to_string(sched.size()) +
                        " schedules, median of " +
                        std::to_string(passes.size()) + " repetitions each";
        ctx.metric("sim_minstr_per_s", retired / wall / 1e6, "Minstr/s",
                   "simulated instructions of every schedule");
        ctx.metric("schedules_per_s",
                   static_cast<double>(sched.size()) / wall, "1/s", n);
        ctx.metric("schedule_ms_p50", 1e3 * median(sched), "ms", n);
        ctx.metric("schedule_ms_p90", 1e3 * quantile(sched, 0.9), "ms", n);
        ctx.metric("setup_s", median(setupS), "s",
                   "median of " + std::to_string(kExploreSetupReps) +
                       " set-ups");
        ctx.metric("peak_rss_mb", peakRssMb(), "MB");
        ctx.metric("sim_cycles", p0.simCycles, "cycles",
                   "summed over the " + std::to_string(p0.schedules) +
                       " schedules of one round");
        ctx.metric("net_bytes_per_kinstr",
                   roots.get("net.bits.total") / 8.0 /
                       (roots.get("cpu.retired_instrs") / 1000.0),
                   "B/kinstr", "default-order schedules");
        printDigest(p0);
        return;
    }

    // Traced run: untraced and traced explorations alternate; then
    // the first traced round's schedules are replayed with every
    // state fingerprint timed.
    std::vector<PassResult> plain, traced;
    std::vector<double> roundS;
    while (ctx.moreRounds(t0, roundS, 1, 0.5)) {
        auto r0 = Clock::now();
        plain.push_back(explorePass(ctx, ctx.noSpans, tests, false));
        samePass(plain.back(), plain.front());
        traced.push_back(explorePass(ctx, ctx.spans, tests, traced.empty()));
        samePass(traced.back(), plain.front());
        roundS.push_back(secondsSince(r0));
    }
    // Replay an even share of every test's schedules within 30% of
    // the run's seconds.
    double budget =
        0.3 * ctx.args.seconds / static_cast<double>(tests.size());
    for (std::size_t t = 0; t < tests.size(); ++t) {
        ExploreConfig ec = exploreConfig(w, tests[t]);
        auto tt = Clock::now();
        for (const Schedule &pfx : traced.front().prefixes[t]) {
            if (secondsSince(tt) > budget)
                break;
            replayed(replaySchedule(ctx, ec, pfx, fpUs));
        }
    }

    auto passWall = [](const std::vector<PassResult> &ps) {
        std::vector<double> v;
        for (const PassResult &p : ps)
            v.push_back(p.wallS);
        return median(v);
    };
    // Analysis attribution: each test's machine runs with the
    // axiomatic and race checkers and without them, alternating, for
    // 10% of the run's seconds.
    std::vector<double> checkedS, uncheckedS;
    std::vector<StatGroup> checkedStats;
    auto ta = Clock::now();
    while (checkedS.empty() || secondsSince(ta) < 0.1 * ctx.args.seconds) {
        double c = 0, u = 0;
        for (const LitmusTest &lt : tests) {
            MachineConfig cfg = exploreConfig(w, lt).machine;
            SimRun on = simulate(ctx, ctx.spans, cfg, lt.traces, true);
            SimRun off = simulate(ctx, ctx.spans, cfg, lt.traces, false);
            if (on.res.execTime != off.res.execTime)
                ctx.checks.fail("the checkers changed simulated time");
            c += on.runS;
            u += off.runS;
            if (checkedS.empty())
                checkedStats.push_back(on.res.stats);
        }
        checkedS.push_back(c);
        uncheckedS.push_back(u);
    }
    StatGroup layer = roots;
    StatGroup checkedAll = combineStats(checkedStats);
    for (const auto &[k, v] : checkedAll.entries())
        if (k.rfind("analysis.", 0) == 0)
            layer.set(k, v);

    const PassResult &p0 = plain.front();
    std::string n = "n=" + std::to_string(replayBuild.size()) +
                    " replayed schedules";
    layerCounts(ctx, layer, rootEvents);
    ctx.metric("sim.ns_per_event", median(nsPerEvent), "ns", n);
    ctx.metric("workload.generate_s", median(generateS), "s");
    ctx.metric("system.build_s", median(replayBuild), "s", n);
    ctx.metric("system.run_s", median(replayRun), "s", n);
    ctx.metric("analysis.host_s", median(checkedS) - median(uncheckedS),
               "s",
               "axiomatic+race checked - unchecked System::run per round "
               "of the default schedules, medians of " +
                   std::to_string(checkedS.size()));
    signatureMetrics(ctx, inputs, exploreConfig(w, tests[0]).machine);
    exploreCounts(ctx, static_cast<double>(p0.schedules),
                  static_cast<double>(p0.decisions),
                  static_cast<double>(p0.prunedPor),
                  static_cast<double>(p0.prunedFp),
                  static_cast<double>(p0.frontierPeak), median(fpUs));
    ctx.metric("tracing.overhead_pct",
               100.0 * (passWall(traced) / passWall(plain) - 1.0), "%",
               "traced vs untraced exploration, medians of " +
                   std::to_string(traced.size()));
    ctx.info("fingerprint_calls", static_cast<double>(fpUs.size()),
             "count");
    printDigest(p0);
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--span-out FILE]\nworkloads:",
                 argv0);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 3600))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--span-out") {
            a.spanOut = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return !a.workload.empty();
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args))
        usage(argv[0]);
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (args.workload == cand.name)
            w = &cand;
    if (!w)
        usage(argv[0]);

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w->name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    Ctx ctx(*w, args);
    if (w->kind == Kind::Sim)
        runSim(ctx);
    else
        runExplore(ctx);

    if (args.trace) {
        for (const auto &[name, t] : ctx.spans.totals())
            std::printf("span %-26s n=%-6llu total %.6f s  self %.6f s\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count), t.totalS,
                        t.selfS);
        if (!args.spanOut.empty()) {
            if (ctx.spans.writeChrome(args.spanOut))
                std::printf("spans %zu written to %s\n", ctx.spans.size(),
                            args.spanOut.c_str());
            else
                ctx.checks.fail("cannot write spans to " + args.spanOut);
        }
    }
    std::printf("checks %s: %llu attempted, %llu failed\n",
                ctx.checks.passed() ? "pass" : "FAIL",
                static_cast<unsigned long long>(ctx.checks.attempted),
                static_cast<unsigned long long>(ctx.checks.failed));
    for (const std::string &p : ctx.checks.problems)
        std::printf("check failed: %s\n", p.c_str());
    ctx.info("error_rate",
             ctx.checks.attempted
                 ? static_cast<double>(ctx.checks.failed) /
                       static_cast<double>(ctx.checks.attempted)
                 : 1.0,
             "ratio", "failed / attempted");
    printReport(ctx.metrics);
    printReport(ctx.extra);
    printResult(ctx.checks, ctx.metrics);
    return 0;
}
