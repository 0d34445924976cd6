/**
 * @file
 * Command-line simulator driver: run any workload under any model
 * with configurable machine parameters and dump the full statistics.
 *
 *   bulksc_sim [options]
 *
 * Every flag comes from the shared option registry (--help lists
 * them); the same names are the keys of --config JSON files and
 * bulksc_batch sweep axes. Highlights:
 *
 *   --config FILE     load options from a JSON config file (explicit
 *                     flags override the file, wherever they appear)
 *   --dump-config     print the effective configuration as JSON and
 *                     exit — the output round-trips through --config
 *   --check LIST      correctness checkers (axiomatic, race, replay);
 *                     exit codes and their precedence come from the
 *                     run pipeline (system/run.hh, docs/analysis.md)
 *   --trace-out F     chunk-lifecycle events as Chrome trace_event
 *                     JSON (chrome://tracing or ui.perfetto.dev);
 *                     "-" prints them as one text line per event on
 *                     stderr instead
 *   --trace-cats L    which event categories to record (default all)
 */

#include <cstdio>
#include <iostream>
#include <sstream>

#include "sim/event_trace.hh"
#include "system/run.hh"
#include "workload/trace_io.hh"

using namespace bulksc;

int
main(int argc, char **argv)
{
    SimOptions opts;
    int rc;
    if (!parseDriverOptions(argc, argv, OptionGroup::Sim, opts, rc))
        return rc;

    ResolvedWorkload work;
    std::string err;
    if (!resolveWorkload(opts, work, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }
    if (!opts.saveTraces.empty() &&
        !saveTraces(opts.saveTraces, work.traces, err)) {
        std::fprintf(stderr, "%s: cannot save trace bundle: %s\n",
                     argv[0], err.c_str());
        return 1;
    }

    const MachineConfig &cfg = opts.cfg;
    System sys(cfg, std::move(work.traces));
    if (!opts.traceOut.empty()) {
        std::uint32_t cats = 0;
        parseTraceCategories(opts.traceCats, cats, err); // parser-checked
        sys.enableTrace(cats);
    }
    sys.enableAnalysis(opts.checks.axiomatic, opts.checks.race,
                       opts.checks.replay);
    Results res = sys.run();

    const AnalysisEngine *eng = sys.analysis();
    const ScVerifier *rep = eng ? eng->replay() : nullptr;
    bool litmus_forbidden = litmusForbidden(res, work.allowedSC);
    ExploreVerdict verdict =
        judgeRun(eng, res, work.allowedSC).verdict;
    rc = exitCodeOf(verdict);

    if (res.watchdogVerdict != WatchdogVerdict::None)
        std::fputs(res.watchdogReport.c_str(), stderr);

    if (!opts.traceOut.empty()) {
        const EventTrace &et = *sys.trace();
        if (opts.traceOut == "-") {
            et.writeText(std::cerr);
        } else if (!et.exportChromeTrace(opts.traceOut)) {
            std::fprintf(stderr, "error: cannot write trace to %s\n",
                         opts.traceOut.c_str());
            return 1;
        }
        if (!opts.jsonOut) {
            std::printf("trace: %llu events (%llu dropped) -> %s\n",
                        static_cast<unsigned long long>(et.recorded()),
                        static_cast<unsigned long long>(et.dropped()),
                        opts.traceOut.c_str());
        }
    }

    if (opts.jsonOut) {
        std::printf("{\n  \"model\": \"%s\",\n  \"app\": \"%s\","
                    "\n  \"procs\": %u,\n  \"completed\": %s",
                    modelName(cfg.model),
                    jsonEscape(work.name).c_str(), cfg.numProcs,
                    res.completed ? "true" : "false");
        std::printf(",\n  \"watchdog\": \"%s\"",
                    watchdogVerdictName(res.watchdogVerdict));
        if (work.allowedSC) {
            std::printf(",\n  \"litmus_sc_ok\": %s",
                        litmus_forbidden ? "false" : "true");
        }
        std::ostringstream stats;
        res.stats.dumpJsonMembers(stats, ",\n  ", ",\n  ");
        std::fputs(stats.str().c_str(), stdout);
        if (eng && eng->graph()) {
            const MemOrderGraph &g = *eng->graph();
            std::printf(",\n  \"sc_violations\": [");
            bool first_v = true;
            for (const auto &viol : g.violations()) {
                std::printf("%s\n    {\"tick\": %llu, \"cycle\": "
                            "\"%s\", \"edges\": [",
                            first_v ? "" : ",",
                            static_cast<unsigned long long>(viol.tick),
                            jsonEscape(g.describe(viol)).c_str());
                first_v = false;
                bool first_e = true;
                for (const auto &e : viol.edges) {
                    const auto &f = g.node(e.from);
                    const auto &t = g.node(e.to);
                    std::printf("%s\n      {\"from\": \"cpu%u#%llu\", "
                                "\"to\": \"cpu%u#%llu\", \"kind\": "
                                "\"%s\", \"addr\": \"0x%llx\"}",
                                first_e ? "" : ",", f.proc,
                                static_cast<unsigned long long>(f.seq),
                                t.proc,
                                static_cast<unsigned long long>(t.seq),
                                MemOrderGraph::edgeKindName(e.kind),
                                static_cast<unsigned long long>(
                                    e.addr));
                    first_e = false;
                }
                std::printf("\n    ]}");
            }
            std::printf("\n  ]");
        }
        if (eng && eng->races()) {
            const RaceDetector &rd = *eng->races();
            std::printf(",\n  \"race_reports\": [");
            bool first_r = true;
            for (const auto &r : rd.reports()) {
                std::printf("%s\n    {\"addr\": \"0x%llx\", "
                            "\"first\": \"cpu%u#%llu %s\", "
                            "\"second\": \"cpu%u#%llu %s\"}",
                            first_r ? "" : ",",
                            static_cast<unsigned long long>(r.addr),
                            r.priorProc,
                            static_cast<unsigned long long>(
                                r.priorSeq),
                            r.priorIsWrite ? "write" : "read", r.proc,
                            static_cast<unsigned long long>(r.seq),
                            r.isWrite ? "write" : "read");
                first_r = false;
            }
            std::printf("\n  ]");
        }
        std::printf("\n}\n");
        return rc;
    }

    std::printf("model=%s app=%s procs=%u instrs/proc=%llu\n",
                modelName(cfg.model), work.name.c_str(), cfg.numProcs,
                static_cast<unsigned long long>(opts.instrs));
    std::printf("completed=%s exec_time=%llu cycles\n",
                res.completed ? "yes" : "NO",
                static_cast<unsigned long long>(res.execTime));
    if (res.watchdogVerdict != WatchdogVerdict::None) {
        std::printf("watchdog: %s\n",
                    watchdogVerdictName(res.watchdogVerdict));
    }
    if (work.allowedSC) {
        std::printf("litmus %s: outcome %s under SC\n",
                    work.litmusName.c_str(),
                    litmus_forbidden ? "FORBIDDEN" : "allowed");
    }
    if (rep) {
        std::printf("sc-replay: %s (%llu chunks, %llu reads "
                    "checked)\n",
                    rep->verified() ? "PASS" : "FAIL",
                    static_cast<unsigned long long>(
                        rep->chunksChecked()),
                    static_cast<unsigned long long>(
                        rep->readsChecked()));
        for (const std::string &e : rep->errors())
            std::printf("  %s\n", e.c_str());
    }
    if (eng && eng->graph()) {
        const MemOrderGraph &g = *eng->graph();
        std::printf("sc-axiomatic: %s (%zu chunks, %zu edges, "
                    "%llu cycles)\n",
                    g.ok() ? "PASS" : "FAIL", g.numNodes(),
                    g.numEdges(),
                    static_cast<unsigned long long>(
                        g.cyclesDetected()));
        for (const auto &viol : g.violations())
            std::printf("  cycle @%llu: %s\n",
                        static_cast<unsigned long long>(viol.tick),
                        g.describe(viol).c_str());
    }
    if (eng && eng->races()) {
        const RaceDetector &rd = *eng->races();
        std::printf("races: %llu racy pairs on %zu addresses "
                    "(%llu accesses checked, %llu sync ops)\n",
                    static_cast<unsigned long long>(rd.racesFound()),
                    rd.racyAddrs(),
                    static_cast<unsigned long long>(
                        rd.checkedAccesses()),
                    static_cast<unsigned long long>(rd.syncOps()));
        for (const auto &r : rd.reports())
            std::printf("  %s\n", rd.describe(r).c_str());
    }
    if (verdict == ExploreVerdict::ScViolation ||
        verdict == ExploreVerdict::LitmusForbidden ||
        verdict == ExploreVerdict::Race)
        return rc;

    if (opts.dumpAll) {
        std::ostringstream os;
        res.stats.dump(os);
        std::fputs(os.str().c_str(), stdout);
        return rc;
    }

    std::printf("retired=%.0f wasted=%.0f (%.2f%% squashed) "
                "squashes=%.0f\n",
                res.stats.get("cpu.retired_instrs"),
                res.stats.get("cpu.wasted_instrs"),
                res.stats.get("cpu.squashed_instr_pct"),
                res.stats.get("cpu.squashes"));
    if (res.stats.get("model_is_bulk") > 0) {
        std::printf("chunks: commits=%.0f emptyW=%.1f%% rset=%.1f "
                    "wset=%.2f wpriv=%.1f\n",
                    res.stats.get("bulk.commits"),
                    res.stats.get("bulk.empty_w_pct"),
                    res.stats.get("bulk.avg_read_set"),
                    res.stats.get("bulk.avg_write_set"),
                    res.stats.get("bulk.avg_priv_write_set"));
        std::printf("arbiter: requests=%.0f denials=%.0f "
                    "pendingW=%.2f nonEmpty=%.1f%%\n",
                    res.stats.get("arb.requests"),
                    res.stats.get("arb.denials"),
                    res.stats.get("arb.avg_pending_w"),
                    res.stats.get("arb.non_empty_pct"));
    }
    std::printf("traffic: total=%.0f bits (RdWr=%.0f RdSig=%.0f "
                "WrSig=%.0f Inv=%.0f Other=%.0f)\n",
                res.stats.get("net.bits.total"),
                res.stats.get("net.bits.RdWr"),
                res.stats.get("net.bits.RdSig"),
                res.stats.get("net.bits.WrSig"),
                res.stats.get("net.bits.Inv"),
                res.stats.get("net.bits.Other"));
    return rc;
}
