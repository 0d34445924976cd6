/**
 * @file
 * The run pipeline every driver shares — bulksc_sim, bulksc_explore
 * and the sweep runner: the driver front end, the workload resolver
 * (what runs), System::enableAnalysis over SimOptions::checks (what
 * checks it) and the judge with its verdict table (what the outcome
 * means). Verdict precedence and exit codes are documented in
 * docs/analysis.md.
 */

#ifndef BULKSC_SYSTEM_RUN_HH
#define BULKSC_SYSTEM_RUN_HH

#include <string>
#include <vector>

#include "analysis/analysis_engine.hh"
#include "system/sim_options.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace bulksc {

/**
 * The simulator drivers' front end: parse @p argv against @p group's
 * options (--help, -h and errors print the usage), handle `--app
 * list` and --dump-config, and validate the machine.
 * False when the driver should exit now, with exit code @p rc.
 */
bool parseDriverOptions(int argc, char **argv, OptionGroup group,
                        SimOptions &opts, int &rc);

/** A workload ready to simulate. */
struct ResolvedWorkload
{
    std::string name;          //!< display name ("ocean", "litmus-sb")
    std::vector<Trace> traces; //!< one per processor

    /** Litmus tests only: the test's full name ("store-buffering-v0")
     *  and its SC-outcome predicate; empty otherwise. */
    std::string litmusName;
    LitmusPredicate allowedSC;
};

/**
 * Resolve the workload @p opts selects: a litmus test, a saved trace
 * bundle or a generated profile (which tracks every value when the
 * replay check is selected). @p opts.cfg.numProcs becomes the trace
 * count, so a litmus test's or a bundle's trace count wins over
 * --procs. False with @p err on an unknown name or unreadable bundle.
 */
bool resolveWorkload(SimOptions &opts, ResolvedWorkload &out,
                     std::string &err);

/** What a run concluded: one simulation, one explored schedule or a
 *  whole exploration (the name keeps the explorer's spelling). */
enum class ExploreVerdict
{
    OK,              //!< completed, all oracles clean
    ScViolation,     //!< memory-order cycle or replay mismatch
    Race,            //!< happens-before data race
    LitmusForbidden, //!< litmus outcome forbidden under SC
    Deadlock,        //!< watchdog: wedged
    Livelock,        //!< watchdog: work without progress
    Starvation,      //!< watchdog: one processor starved
    Incomplete,      //!< hit the tick limit with no other verdict
};

/** The verdict's printable name ("ok", "sc-violation", ...). */
const char *exploreVerdictName(ExploreVerdict v);

/** The verdict's process exit code. */
int exitCodeOf(ExploreVerdict v);

/** A verdict plus a one-line description of what caused it. */
struct Judgement
{
    ExploreVerdict verdict = ExploreVerdict::OK;
    std::string detail;
};

/** True iff a litmus predicate is set, the run completed, and its
 *  load results are forbidden under SC. */
bool litmusForbidden(const Results &res, const LitmusPredicate &allowedSC);

/**
 * The judge: the highest-precedence verdict a run earned from its
 * checker plane @p checks (System::analysis(), may be null), its
 * results and the litmus predicate (may be empty). SC class (cycle,
 * replay mismatch, forbidden litmus outcome) > race > watchdog >
 * incomplete.
 */
Judgement judgeRun(const AnalysisEngine *checks, const Results &res,
                   const LitmusPredicate &allowedSC);

} // namespace bulksc

#endif // BULKSC_SYSTEM_RUN_HH
