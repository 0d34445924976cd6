#include "system/sim_options.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/fault_plane.hh"
#include "sim/stats.hh"

namespace bulksc {

std::string
CheckSet::str() const
{
    std::string s;
    auto add = [&](const char *name) {
        if (!s.empty())
            s += ',';
        s += name;
    };
    if (axiomatic)
        add("axiomatic");
    if (race)
        add("race");
    if (replay)
        add("replay");
    return s;
}

namespace {

bool
parseU64(const std::string &v, std::uint64_t &out)
{
    if (v.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (errno != 0 || end != v.c_str() + v.size())
        return false;
    out = x;
    return true;
}

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "1" || v == "true") {
        out = true;
        return true;
    }
    if (v == "0" || v == "false") {
        out = false;
        return true;
    }
    return false;
}

/** Option builder: binds a name/help to setter+getter lambdas. */
struct Builder
{
    std::vector<OptionDesc> &table;

    void
    flag(const char *name, const char *help, unsigned groups,
         bool in_config, std::function<void(SimOptions &, bool)> set,
         std::function<bool(const SimOptions &)> get)
    {
        OptionDesc d;
        d.name = name;
        d.help = help;
        d.kind = OptionDesc::Kind::Flag;
        d.groups = groups;
        d.inConfig = in_config;
        d.set = [name = d.name, set](SimOptions &o,
                                     const std::string &v,
                                     std::string &err) {
            bool b;
            if (!parseBool(v, b)) {
                err = "--" + name + ": expected a boolean, got '" + v +
                      "'";
                return false;
            }
            set(o, b);
            return true;
        };
        d.get = [get](const SimOptions &o) {
            return std::string(get(o) ? "1" : "0");
        };
        table.push_back(std::move(d));
    }

    template <typename T>
    void
    uint(const char *name, const char *value_name, const char *help,
         unsigned groups, bool in_config, T SimOptions::*field)
    {
        uintSet(name, value_name, help, groups, in_config,
                [field](SimOptions &o, std::uint64_t v) {
                    o.*field = static_cast<T>(v);
                },
                [field](const SimOptions &o) {
                    return static_cast<std::uint64_t>(o.*field);
                });
    }

    void
    uintSet(const char *name, const char *value_name, const char *help,
            unsigned groups, bool in_config,
            std::function<void(SimOptions &, std::uint64_t)> set,
            std::function<std::uint64_t(const SimOptions &)> get)
    {
        OptionDesc d;
        d.name = name;
        d.valueName = value_name;
        d.help = help;
        d.kind = OptionDesc::Kind::UInt;
        d.groups = groups;
        d.inConfig = in_config;
        d.set = [name = d.name, set](SimOptions &o,
                                     const std::string &v,
                                     std::string &err) {
            std::uint64_t x;
            if (!parseU64(v, x)) {
                err = "--" + name + ": expected a non-negative "
                      "integer, got '" + v + "'";
                return false;
            }
            set(o, x);
            return true;
        };
        d.get = [get](const SimOptions &o) {
            return std::to_string(get(o));
        };
        table.push_back(std::move(d));
    }

    void
    str(const char *name, const char *value_name, const char *help,
        unsigned groups, bool in_config, std::string SimOptions::*field)
    {
        strSet(name, value_name, help, groups, in_config,
               [field](SimOptions &o, const std::string &v,
                       std::string &) {
                   o.*field = v;
                   return true;
               },
               [field](const SimOptions &o) { return o.*field; });
    }

    void
    strSet(const char *name, const char *value_name, const char *help,
           unsigned groups, bool in_config,
           std::function<bool(SimOptions &, const std::string &,
                              std::string &)>
               set,
           std::function<std::string(const SimOptions &)> get)
    {
        OptionDesc d;
        d.name = name;
        d.valueName = value_name;
        d.help = help;
        d.kind = OptionDesc::Kind::Str;
        d.groups = groups;
        d.inConfig = in_config;
        d.set = std::move(set);
        d.get = std::move(get);
        table.push_back(std::move(d));
    }
};

constexpr unsigned kSim = static_cast<unsigned>(OptionGroup::Sim);
constexpr unsigned kBatch = static_cast<unsigned>(OptionGroup::Batch);
constexpr unsigned kBench = static_cast<unsigned>(OptionGroup::Bench);
constexpr unsigned kExplore =
    static_cast<unsigned>(OptionGroup::Explore);
constexpr unsigned kAll = kSim | kBatch | kBench | kExplore;

} // namespace

OptionRegistry::OptionRegistry()
{
    Builder b{opts_};

    b.strSet(
        "model", "NAME",
        "consistency model: SC | TSO | RC | SC++ | BSCbase | "
        "BSCdypvt | BSCstpvt | BSCexact",
        kAll, true,
        [](SimOptions &o, const std::string &v, std::string &err) {
            for (Model m :
                 {Model::SC, Model::TSO, Model::RC, Model::SCpp,
                  Model::BSCbase, Model::BSCdypvt, Model::BSCstpvt,
                  Model::BSCexact}) {
                if (v == modelName(m)) {
                    o.cfg.model = m;
                    return true;
                }
            }
            err = "--model: unknown model '" + v +
                  "' (known: SC, TSO, RC, SC++, BSCbase, BSCdypvt, "
                  "BSCstpvt, BSCexact)";
            return false;
        },
        [](const SimOptions &o) {
            return std::string(modelName(o.cfg.model));
        });

    b.str("app", "NAME",
          "workload profile, one of the 13 apps (or \"list\")", kAll,
          true, &SimOptions::app);

    b.str("litmus", "NAME",
          "run a litmus test instead of a profile: sb | mp | iriw | "
          "corr | 2+2w | wrc | isa2 (--seed-salt picks the timing "
          "variant)",
          kSim | kExplore, true, &SimOptions::litmus);

    b.uintSet("procs", "N", "processor count", kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.numProcs = static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.numProcs};
              });

    b.uint("instrs", "N", "instructions per processor", kAll, true,
           &SimOptions::instrs);

    b.uintSet("chunk", "N", "chunk size in instructions", kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.bulk.chunkSize = static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.bulk.chunkSize};
              });

    b.uintSet("sig-bits", "N", "signature size in bits", kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.bulk.sigCfg.totalBits =
                      static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.bulk.sigCfg.totalBits};
              });

    b.uintSet("sig-banks", "N", "signature banks", kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.bulk.sigCfg.numBanks =
                      static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.bulk.sigCfg.numBanks};
              });

    b.uintSet("arbiters", "N", "arbiter modules (1 = central)", kAll,
              true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.numArbiters = static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.numArbiters};
              });

    b.uintSet("dirs", "N", "directory modules", kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.mem.numDirectories = static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.mem.numDirectories};
              });

    b.uintSet("dir-cache", "N",
              "directory-cache entries (0 = full map)", kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.mem.dirCacheEntries = v;
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.mem.dirCacheEntries};
              });

    b.flag("rsig",
           "RSig commit bandwidth optimization (--no-rsig disables)",
           kAll, true,
           [](SimOptions &o, bool v) { o.cfg.bulk.rsigOpt = v; },
           [](const SimOptions &o) { return o.cfg.bulk.rsigOpt; });

    b.flag("warm",
           "functional cache warming before the run (--no-warm skips)",
           kAll, true,
           [](SimOptions &o, bool v) { o.cfg.warmCaches = v; },
           [](const SimOptions &o) { return o.cfg.warmCaches; });

    b.flag("contention", "model destination-link contention", kAll,
           true,
           [](SimOptions &o, bool v) {
               o.cfg.net.modelContention = v;
           },
           [](const SimOptions &o) {
               return o.cfg.net.modelContention;
           });

    b.flag("exact-stats",
           "maintain the signatures' exact mirror sets (set-size and "
           "aliasing statistics, squash attribution; forced on for "
           "BSCexact and multi-module arbiters)",
           kAll, true,
           [](SimOptions &o, bool v) {
               o.cfg.bulk.sigCfg.trackExact = v;
           },
           [](const SimOptions &o) {
               return o.cfg.bulk.sigCfg.trackExact;
           });

    b.uint("seed-salt", "N", "vary the generated traces", kAll, true,
           &SimOptions::seedSalt);

    b.strSet(
        "faults", "SPEC",
        "fault-injection plane, e.g. net.drop=0.01,net.delay=1:200,"
        "arb.grant_loss=0.002 (NAME[/CLASS]=VALUE[@LO:HI], "
        "comma-separated)",
        kAll, true,
        [](SimOptions &o, const std::string &v, std::string &err) {
            std::vector<FaultPoint> pts;
            if (!v.empty() &&
                !FaultPlane::parseSpec(v, pts, err)) {
                err = "--faults: " + err;
                return false;
            }
            // Store the canonical form so --dump-config round-trips
            // byte-identically.
            o.cfg.faults = FaultPlane::canonicalSpec(pts);
            return true;
        },
        [](const SimOptions &o) { return o.cfg.faults; });

    b.uintSet("fault-seed", "N",
              "seed for the fault plane's deterministic decisions",
              kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.faultSeed = v;
              },
              [](const SimOptions &o) { return o.cfg.faultSeed; });

    b.uintSet("max-resend", "N",
              "hardened protocol: give up a request after N "
              "retransmissions",
              kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.resend.maxResend = static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.resend.maxResend};
              });

    b.uintSet("resend-timeout", "N",
              "hardened protocol: base retransmission timeout in "
              "ticks (doubles per attempt)",
              kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.resend.timeout = v;
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.resend.timeout};
              });

    b.flag("watchdog",
           "forward-progress watchdog: detect livelock, starvation, "
           "and deadlock (--no-watchdog disables)",
           kAll, true,
           [](SimOptions &o, bool v) { o.cfg.watchdog.enabled = v; },
           [](const SimOptions &o) { return o.cfg.watchdog.enabled; });

    b.uintSet("watchdog-interval", "N",
              "ticks between watchdog progress checks", kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.watchdog.interval = v;
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.watchdog.interval};
              });

    b.uintSet("watchdog-livelock", "N",
              "livelock: consecutive squashes at the minimum chunk "
              "size before tripping",
              kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.watchdog.livelockSquashes =
                      static_cast<unsigned>(v);
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.watchdog.livelockSquashes};
              });

    b.uintSet("watchdog-starvation", "N",
              "starvation: commit-age gap in ticks before rescuing "
              "(tripping at twice the gap)",
              kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.watchdog.starvationGap = v;
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.watchdog.starvationGap};
              });

    b.uintSet("watchdog-ceiling", "N",
              "absolute tick ceiling reported as a deadlock (0 = "
              "none)",
              kAll, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.cfg.watchdog.tickCeiling = v;
              },
              [](const SimOptions &o) {
                  return std::uint64_t{o.cfg.watchdog.tickCeiling};
              });

    b.flag("watchdog-rescue",
           "graceful degradation: shrink a starved processor's chunk "
           "with pre-arbitration priority before tripping",
           kAll, true,
           [](SimOptions &o, bool v) { o.cfg.watchdog.rescue = v; },
           [](const SimOptions &o) { return o.cfg.watchdog.rescue; });

    b.strSet("watchdog-dump", "FILE",
             "flush the event-trace ring as Chrome JSON here when "
             "the watchdog trips",
             kSim, false,
             [](SimOptions &o, const std::string &v, std::string &) {
                 o.cfg.watchdog.dumpPath = v;
                 return true;
             },
             [](const SimOptions &o) {
                 return o.cfg.watchdog.dumpPath;
             });

    b.strSet(
        "check", "LIST",
        "correctness checkers, comma-separated: axiomatic | race | "
        "replay",
        kSim | kExplore, false,
        [](SimOptions &o, const std::string &v, std::string &err) {
            std::size_t pos = 0;
            while (pos <= v.size()) {
                std::size_t comma = v.find(',', pos);
                if (comma == std::string::npos)
                    comma = v.size();
                std::string name = v.substr(pos, comma - pos);
                pos = comma + 1;
                if (name.empty())
                    continue;
                if (name == "axiomatic") {
                    o.checks.axiomatic = true;
                } else if (name == "race") {
                    o.checks.race = true;
                } else if (name == "replay") {
                    o.checks.replay = true;
                } else {
                    err = "--check: unknown checker '" + name +
                          "' (known: axiomatic, race, replay)";
                    return false;
                }
            }
            return true;
        },
        [](const SimOptions &o) { return o.checks.str(); });

    b.flag("verify", "alias for --check replay", kSim, false,
           [](SimOptions &o, bool v) {
               if (v)
                   o.checks.replay = true;
           },
           [](const SimOptions &o) { return o.checks.replay; });

    b.str("save-traces", "FILE",
          "write the generated trace bundle to FILE", kSim, false,
          &SimOptions::saveTraces);

    b.str("load-traces", "FILE",
          "replay a saved trace bundle instead of generating",
          kSim | kExplore, false, &SimOptions::loadTraces);

    b.flag("stats", "dump every statistic (default: summary)", kSim,
           false, [](SimOptions &o, bool v) { o.dumpAll = v; },
           [](const SimOptions &o) { return o.dumpAll; });

    b.flag("json", "dump every statistic as a JSON object",
           kSim | kExplore, false,
           [](SimOptions &o, bool v) { o.jsonOut = v; },
           [](const SimOptions &o) { return o.jsonOut; });

    b.str("trace-out", "FILE",
          "export chunk-lifecycle events as Chrome trace_event JSON",
          kSim, false, &SimOptions::traceOut);

    b.str("trace-cats", "LIST",
          "event categories to record: chunk,commit,squash,"
          "coherence,all",
          kSim, false, &SimOptions::traceCats);

    // --config is recognized by parse() itself (it must be applied
    // before the other flags); this entry provides usage text and
    // name reservation only.
    b.strSet("config", "FILE",
             "load options from a JSON config file (explicit flags "
             "override it)",
             kAll, false,
             [](SimOptions &, const std::string &, std::string &) {
                 return true;
             },
             [](const SimOptions &) { return std::string(); });

    b.flag("dump-config",
           "print the effective configuration as JSON and exit",
           kSim | kBatch | kExplore, false,
           [](SimOptions &o, bool v) { o.dumpConfig = v; },
           [](const SimOptions &o) { return o.dumpConfig; });

    // --- bulksc_explore: systematic schedule exploration ------------

    b.uintSet("explore-schedules", "N",
              "schedule budget: stop after running N schedules",
              kExplore, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.explore.maxSchedules = v;
              },
              [](const SimOptions &o) { return o.explore.maxSchedules; });

    b.uintSet("explore-depth", "N",
              "branch only on the first N decisions of each run",
              kExplore, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.explore.maxDecisions = v;
              },
              [](const SimOptions &o) { return o.explore.maxDecisions; });

    b.uintSet("explore-ticks", "N", "per-schedule tick budget",
              kExplore, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.explore.tickLimit = v;
              },
              [](const SimOptions &o) { return o.explore.tickLimit; });

    b.uintSet("explore-wall-ms", "N",
              "wall-clock budget in milliseconds (0 = unlimited)",
              kExplore, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.explore.wallMs = v;
              },
              [](const SimOptions &o) { return o.explore.wallMs; });

    b.uintSet("explore-jobs", "N",
              "run up to N schedules concurrently (enumeration order "
              "is identical for any N)",
              kExplore, false,
              [](SimOptions &o, std::uint64_t v) { o.explore.jobs = v; },
              [](const SimOptions &o) { return o.explore.jobs; });

    b.uintSet("explore-delay", "N",
              "explore message delivery delays in [0,N] as choice "
              "points (0 = deliveries keep their nominal latency)",
              kExplore, true,
              [](SimOptions &o, std::uint64_t v) {
                  o.explore.delayChoices = v;
              },
              [](const SimOptions &o) { return o.explore.delayChoices; });

    b.flag("explore-por",
           "signature-based partial-order reduction (--no-explore-por "
           "enumerates naively)",
           kExplore, true,
           [](SimOptions &o, bool v) { o.explore.por = v; },
           [](const SimOptions &o) { return o.explore.por; });

    b.flag("explore-fp-prune",
           "prune schedules that revisit an already-expanded state "
           "fingerprint",
           kExplore, true,
           [](SimOptions &o, bool v) { o.explore.fpPrune = v; },
           [](const SimOptions &o) { return o.explore.fpPrune; });

    b.flag("explore-bfs",
           "breadth-first search order (default: depth-first)",
           kExplore, true,
           [](SimOptions &o, bool v) { o.explore.bfs = v; },
           [](const SimOptions &o) { return o.explore.bfs; });

    b.flag("explore-all",
           "keep exploring after the first violation instead of "
           "stopping",
           kExplore, true,
           [](SimOptions &o, bool v) { o.explore.stopAtFirst = !v; },
           [](const SimOptions &o) { return !o.explore.stopAtFirst; });

    b.flag("explore-minimize",
           "minimize the first counterexample to its shortest "
           "reproducing prefix",
           kExplore, true,
           [](SimOptions &o, bool v) { o.explore.minimize = v; },
           [](const SimOptions &o) { return o.explore.minimize; });

    b.strSet("schedule", "FILE",
             "replay the schedule recorded in FILE (single run, no "
             "search)",
             kExplore, false,
             [](SimOptions &o, const std::string &v, std::string &) {
                 o.explore.schedule = v;
                 return true;
             },
             [](const SimOptions &o) { return o.explore.schedule; });

    b.strSet("schedule-out", "FILE",
             "write the (minimized) counterexample schedule to FILE",
             kExplore, false,
             [](SimOptions &o, const std::string &v, std::string &) {
                 o.explore.scheduleOut = v;
                 return true;
             },
             [](const SimOptions &o) { return o.explore.scheduleOut; });

    b.strSet("results-out", "FILE",
             "stream one JSON object per explored schedule to FILE",
             kExplore, false,
             [](SimOptions &o, const std::string &v, std::string &) {
                 o.explore.resultsOut = v;
                 return true;
             },
             [](const SimOptions &o) { return o.explore.resultsOut; });
}

const OptionRegistry &
OptionRegistry::instance()
{
    static const OptionRegistry reg;
    return reg;
}

const OptionDesc *
OptionRegistry::find(const std::string &name) const
{
    for (const OptionDesc &d : opts_) {
        if (d.name == name)
            return &d;
    }
    return nullptr;
}

bool
OptionRegistry::applyKeyValue(SimOptions &opts, const std::string &key,
                              const std::string &value,
                              std::string &err) const
{
    const OptionDesc *d = find(key);
    if (!d) {
        err = "unknown option '" + key + "'";
        return false;
    }
    return d->set(opts, value, err);
}

bool
OptionRegistry::parse(int argc, const char *const *argv,
                      SimOptions &opts, OptionGroup group,
                      std::string &err) const
{
    const unsigned gbit = static_cast<unsigned>(group);

    // Split every token into (name, value?, have_value).
    struct Tok
    {
        std::string name;
        std::string value;
        bool haveValue;
    };
    std::vector<Tok> toks;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a.size() < 3 || a.compare(0, 2, "--") != 0) {
            err = "unexpected argument '" + a + "'";
            return false;
        }
        std::size_t eq = a.find('=');
        Tok t;
        t.haveValue = eq != std::string::npos;
        t.name = a.substr(2, t.haveValue ? eq - 2 : std::string::npos);
        if (t.haveValue)
            t.value = a.substr(eq + 1);

        const OptionDesc *d = find(t.name);
        bool negated = false;
        if (!d && t.name.compare(0, 3, "no-") == 0) {
            d = find(t.name.substr(3));
            negated = d && d->kind == OptionDesc::Kind::Flag;
            if (!negated)
                d = nullptr;
        }
        if (!d) {
            err = "unknown option '--" + t.name + "'";
            return false;
        }
        if (!(d->groups & gbit)) {
            err = "option '--" + t.name +
                  "' does not apply to this tool";
            return false;
        }
        if (d->kind == OptionDesc::Kind::Flag) {
            if (t.haveValue) {
                err = "--" + t.name + " takes no value";
                return false;
            }
            t.name = d->name;
            t.value = negated ? "0" : "1";
            t.haveValue = true;
        } else if (!t.haveValue) {
            if (i + 1 >= argc) {
                err = "--" + t.name + " requires a value";
                return false;
            }
            t.value = argv[++i];
            t.haveValue = true;
        }
        toks.push_back(std::move(t));
    }

    // Config file first: explicit flags override it no matter where
    // --config sits on the command line.
    for (const Tok &t : toks) {
        if (t.name == "config" &&
            !loadConfigFile(t.value, opts, err)) {
            return false;
        }
    }
    for (const Tok &t : toks) {
        if (t.name == "config")
            continue;
        const OptionDesc *d = find(t.name);
        if (!d->set(opts, t.value, err))
            return false;
    }
    return true;
}

void
OptionRegistry::printUsage(std::FILE *out, OptionGroup group) const
{
    const unsigned gbit = static_cast<unsigned>(group);
    const SimOptions dflt;
    std::fprintf(out, "options:\n");
    for (const OptionDesc &d : opts_) {
        if (!(d.groups & gbit))
            continue;
        std::string lhs = "--" + d.name;
        if (d.kind != OptionDesc::Kind::Flag)
            lhs += " " + d.valueName;
        std::string help = d.help;
        if (d.kind == OptionDesc::Kind::Flag) {
            if (d.get(dflt) == "1")
                help += " (default on)";
        } else {
            std::string v = d.get(dflt);
            if (!v.empty())
                help += " (default " + v + ")";
        }
        std::fprintf(out, "  %-22s %s\n", lhs.c_str(), help.c_str());
    }
}

bool
OptionRegistry::loadConfigFile(const std::string &path,
                               SimOptions &opts,
                               std::string &err) const
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open config file '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::vector<std::pair<std::string, std::string>> kv;
    if (!parseFlatJson(ss.str(), kv, err)) {
        err = path + ": " + err;
        return false;
    }
    for (const auto &[k, v] : kv) {
        const OptionDesc *d = find(k);
        if (!d) {
            err = path + ": unknown option '" + k + "'";
            return false;
        }
        if (!d->inConfig) {
            err = path + ": option '" + k +
                  "' cannot be set from a config file";
            return false;
        }
        if (!d->set(opts, v, err)) {
            err = path + ": " + err;
            return false;
        }
    }
    return true;
}

void
OptionRegistry::dumpConfigJson(std::FILE *out,
                               const SimOptions &opts) const
{
    std::fprintf(out, "{\n");
    bool first = true;
    for (const OptionDesc &d : opts_) {
        if (!d.inConfig)
            continue;
        std::string v = d.get(opts);
        std::fprintf(out, "%s  \"%s\": ", first ? "" : ",\n",
                     d.name.c_str());
        switch (d.kind) {
          case OptionDesc::Kind::Flag:
            std::fprintf(out, "%s", v == "1" ? "true" : "false");
            break;
          case OptionDesc::Kind::UInt:
            std::fprintf(out, "%s", v.c_str());
            break;
          case OptionDesc::Kind::Str:
            std::fprintf(out, "\"%s\"", jsonEscape(v).c_str());
            break;
        }
        first = false;
    }
    std::fprintf(out, "\n}\n");
}

// --- flat JSON ----------------------------------------------------------

namespace {

struct JsonCursor
{
    const std::string &s;
    std::size_t pos = 0;

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
    }

    bool done() const { return pos >= s.size(); }

    char peek() const { return pos < s.size() ? s[pos] : '\0'; }
};

bool
parseJsonString(JsonCursor &c, std::string &out, std::string &err)
{
    if (c.peek() != '"') {
        err = "expected '\"' at offset " + std::to_string(c.pos);
        return false;
    }
    ++c.pos;
    out.clear();
    while (!c.done() && c.peek() != '"') {
        char ch = c.s[c.pos++];
        if (ch == '\\') {
            if (c.done()) {
                err = "unterminated escape";
                return false;
            }
            char esc = c.s[c.pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              default:
                err = std::string("unsupported escape '\\") + esc +
                      "'";
                return false;
            }
        } else {
            out += ch;
        }
    }
    if (c.done()) {
        err = "unterminated string";
        return false;
    }
    ++c.pos; // closing quote
    return true;
}

} // namespace

bool
parseFlatJson(const std::string &text,
              std::vector<std::pair<std::string, std::string>> &kv,
              std::string &err)
{
    JsonCursor c{text};
    c.skipWs();
    if (c.peek() != '{') {
        err = "config must be a JSON object";
        return false;
    }
    ++c.pos;
    c.skipWs();
    if (c.peek() == '}')
        return true;
    while (true) {
        c.skipWs();
        std::string key;
        if (!parseJsonString(c, key, err))
            return false;
        c.skipWs();
        if (c.peek() != ':') {
            err = "expected ':' after key '" + key + "'";
            return false;
        }
        ++c.pos;
        c.skipWs();
        std::string val;
        char ch = c.peek();
        if (ch == '"') {
            if (!parseJsonString(c, val, err))
                return false;
        } else if (ch == '{' || ch == '[') {
            err = "key '" + key +
                  "': nested objects/arrays are not supported "
                  "(configs are flat)";
            return false;
        } else {
            std::size_t start = c.pos;
            while (!c.done() && c.peek() != ',' && c.peek() != '}' &&
                   !std::isspace(
                       static_cast<unsigned char>(c.peek()))) {
                ++c.pos;
            }
            val = text.substr(start, c.pos - start);
            if (val == "true") {
                val = "1";
            } else if (val == "false") {
                val = "0";
            } else if (val.empty()) {
                err = "key '" + key + "': missing value";
                return false;
            }
        }
        kv.emplace_back(key, val);
        c.skipWs();
        if (c.peek() == ',') {
            ++c.pos;
            continue;
        }
        if (c.peek() == '}') {
            ++c.pos;
            c.skipWs();
            if (!c.done()) {
                err = "trailing content after the config object";
                return false;
            }
            return true;
        }
        err = "expected ',' or '}' at offset " + std::to_string(c.pos);
        return false;
    }
}

} // namespace bulksc
