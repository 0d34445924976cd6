#include "system/run.hh"

#include <cstdio>
#include <cstring>
#include <iterator>

#include "workload/app_profiles.hh"
#include "workload/generator.hh"
#include "workload/trace_io.hh"

namespace bulksc {

bool
parseDriverOptions(int argc, char **argv, OptionGroup group,
                   SimOptions &opts, int &rc)
{
    const OptionRegistry &reg = OptionRegistry::instance();
    auto usage = [&] {
        std::fprintf(stderr, "usage: %s [options]\n", argv[0]);
        reg.printUsage(stderr, group);
        rc = 1;
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h"))
            return usage();
    }
    std::string err;
    if (!reg.parse(argc - 1, argv + 1, opts, group, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return usage();
    }
    rc = 0;
    if (opts.app == "list") {
        for (const AppProfile &p : allProfiles())
            std::printf("%s\n", p.name.c_str());
        return false;
    }
    if (!opts.cfg.validate(err)) {
        std::fprintf(stderr, "%s: invalid configuration: %s\n", argv[0],
                     err.c_str());
        rc = 1;
        return false;
    }
    if (opts.dumpConfig) {
        reg.dumpConfigJson(stdout, opts);
        return false;
    }
    return true;
}

bool
resolveWorkload(SimOptions &opts, ResolvedWorkload &out,
                std::string &err)
{
    out = ResolvedWorkload{};
    if (!opts.litmus.empty()) {
        LitmusTest lt;
        if (!litmusByName(opts.litmus,
                          static_cast<unsigned>(opts.seedSalt), lt)) {
            err = "unknown litmus test '" + opts.litmus +
                  "' (known: " + litmusNames() + ")";
            return false;
        }
        out.name = "litmus-" + opts.litmus;
        out.traces = std::move(lt.traces);
        out.litmusName = std::move(lt.name);
        out.allowedSC = std::move(lt.allowedSC);
    } else if (!opts.loadTraces.empty()) {
        std::string why;
        if (!loadTraces(opts.loadTraces, out.traces, why)) {
            err = "cannot load trace bundle: " + why;
            return false;
        }
        if (out.traces.empty()) {
            err = "trace bundle '" + opts.loadTraces + "' holds no traces";
            return false;
        }
        out.name = opts.app;
    } else {
        const AppProfile *p = lookupProfile(opts.app);
        if (!p) {
            err = "unknown application profile '" + opts.app + "'";
            return false;
        }
        AppProfile app = *p;
        if (opts.checks.replay)
            app.trackAllValues = true; // replay compares observed values
        out.name = app.name;
        out.traces = generateTraces(app, opts.cfg.numProcs, opts.instrs,
                                    opts.seedSalt);
    }
    opts.cfg.numProcs = static_cast<unsigned>(out.traces.size());
    return true;
}

namespace {

struct VerdictRow
{
    const char *name;
    int exitCode;
};

/** Indexed by ExploreVerdict, in declaration order. */
constexpr VerdictRow kVerdicts[] = {
    {"ok", 0},               // OK
    {"sc-violation", 3},     // ScViolation
    {"race", 4},             // Race
    {"litmus-forbidden", 3}, // LitmusForbidden
    {"deadlock", 12},        // Deadlock
    {"livelock", 10},        // Livelock
    {"starvation", 11},      // Starvation
    {"incomplete", 2},       // Incomplete
};
static_assert(std::size(kVerdicts) ==
              static_cast<std::size_t>(ExploreVerdict::Incomplete) + 1);

} // namespace

const char *
exploreVerdictName(ExploreVerdict v)
{
    return kVerdicts[static_cast<unsigned>(v)].name;
}

int
exitCodeOf(ExploreVerdict v)
{
    return kVerdicts[static_cast<unsigned>(v)].exitCode;
}

bool
litmusForbidden(const Results &res, const LitmusPredicate &allowedSC)
{
    return allowedSC && res.completed && !allowedSC(res.loadResults);
}

Judgement
judgeRun(const AnalysisEngine *checks, const Results &res,
         const LitmusPredicate &allowedSC)
{
    const MemOrderGraph *g = checks ? checks->graph() : nullptr;
    const ScVerifier *rep = checks ? checks->replay() : nullptr;
    const RaceDetector *rd = checks ? checks->races() : nullptr;

    if (g && !g->ok()) {
        return {ExploreVerdict::ScViolation,
                g->violations().empty()
                    ? std::string()
                    : g->describe(g->violations().front())};
    }
    if (rep && !rep->verified())
        return {ExploreVerdict::ScViolation, rep->errors().front()};
    if (litmusForbidden(res, allowedSC)) {
        return {ExploreVerdict::LitmusForbidden,
                "litmus outcome forbidden under SC"};
    }
    if (rd && rd->racesFound() > 0) {
        return {ExploreVerdict::Race,
                rd->reports().empty()
                    ? std::string()
                    : rd->describe(rd->reports().front())};
    }
    switch (res.watchdogVerdict) {
      case WatchdogVerdict::Livelock:
        return {ExploreVerdict::Livelock, res.watchdogReport};
      case WatchdogVerdict::Starvation:
        return {ExploreVerdict::Starvation, res.watchdogReport};
      case WatchdogVerdict::Deadlock:
        return {ExploreVerdict::Deadlock, res.watchdogReport};
      case WatchdogVerdict::None:
        break;
    }
    if (!res.completed) {
        return {ExploreVerdict::Incomplete,
                "tick limit reached before completion"};
    }
    return {};
}

} // namespace bulksc
