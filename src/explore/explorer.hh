/**
 * @file
 * Systematic schedule exploration (stateless model checking) for the
 * BulkSC machine.
 *
 * Each *schedule* is one complete simulation of a fresh System driven
 * by a RunController: a choice prefix is forced, every decision
 * beyond it takes the default, and the full decision trace is
 * recorded. The explorer enumerates the schedule tree by branching:
 * for every decision a finished run made after its forced prefix, and
 * for every POR-allowed alternative at that decision, a new prefix is
 * queued. Search order is depth-first (stack) or breadth-first
 * (queue); with jobs > 1, up to that many frontier entries run
 * concurrently as a wave whose results are expanded in deterministic
 * pop order, so the enumeration is reproducible at any parallelism.
 *
 * Pruning:
 *  - POR: alternatives that commute with every candidate ahead of
 *    them are never branched on (see RunController).
 *  - Fingerprint: an alternative taken from a machine state whose
 *    digest + choice was already expanded elsewhere is skipped. State
 *    digests exclude timing, so this deliberately identifies runs
 *    that differ only in when things happened; it is approximate
 *    (hash collisions) and can be disabled.
 *
 * Every run is judged by the run pipeline's judge (system/run.hh)
 * over the configured checkers, the litmus SC-outcome predicate and
 * the forward-progress watchdog. The first violating schedule is
 * minimized by a linear search for the shortest forced prefix that
 * still reproduces the verdict; the reported counterexample is that
 * run's complete recorded trace, which replays byte-identically.
 */

#ifndef BULKSC_EXPLORE_EXPLORER_HH
#define BULKSC_EXPLORE_EXPLORER_HH

#include <functional>
#include <string>
#include <vector>

#include "explore/run_controller.hh"
#include "explore/schedule.hh"
#include "system/machine_config.hh"
#include "system/run.hh"

namespace bulksc {

/** Everything one exploration is configured by: the search settings
 *  plus the machine, workload and checkers every schedule runs. */
struct ExploreConfig : ExploreSettings
{
    MachineConfig machine;

    /** The workload every schedule simulates. */
    std::vector<Trace> traces;

    /** Litmus SC-outcome predicate (empty for none). */
    LitmusPredicate allowedSC;

    bool checkAxiomatic = true;
    bool checkRace = false;
    bool checkReplay = false;
};

/**
 * The exploration bulksc_explore runs for @p opts: the resolved
 * workload, the --check selection (the axiomatic checker alone
 * without it), the --explore-delay window, budgets and switches.
 * False with @p err when the workload does not resolve.
 */
bool configureExploration(SimOptions &opts, ExploreConfig &ec,
                          std::string &err);

/** Outcome of one schedule. */
struct RunOutcome
{
    ExploreVerdict verdict = ExploreVerdict::OK;
    Tick execTime = 0;
    std::string detail; //!< one-line description of the violation
    std::vector<DecisionRecord> trace;
    std::uint64_t mismatches = 0; //!< forced choices that didn't fit
};

/** Aggregate result of an exploration. */
struct ExploreResult
{
    std::uint64_t schedulesRun = 0;
    std::uint64_t decisionsTotal = 0;
    std::uint64_t prunedPor = 0;         //!< alternatives POR skipped
    std::uint64_t prunedFingerprint = 0; //!< revisits skipped
    std::uint64_t frontierPeak = 0;
    std::uint64_t violations = 0;
    bool budgetExhausted = false;
    bool exhaustive = false; //!< the schedule tree was drained

    bool found = false; //!< a counterexample was found
    ExploreVerdict verdict = ExploreVerdict::OK;
    std::string detail;

    /** Full recorded trace of the minimized violating run (replays
     *  byte-identically). */
    Schedule counterexample;

    /** Length of the shortest forced prefix that reproduces the
     *  violation. */
    std::size_t minimizedPrefixLen = 0;
    std::uint64_t minimizeRuns = 0;

    double wallMs = 0;
};

/** The search driver. */
class Explorer
{
  public:
    explicit Explorer(ExploreConfig cfg);

    /**
     * Run one schedule: force @p prefix, default beyond it, judge
     * with every oracle. Deterministic in (config, prefix). The
     * run's full Results land in @p full when given.
     */
    RunOutcome runOne(const Schedule &prefix,
                      Results *full = nullptr) const;

    /** Enumerate schedules until a violation, exhaustion, or a
     *  budget limit. */
    ExploreResult explore();

    /**
     * Per-schedule hook (JSONL streaming): invoked in deterministic
     * enumeration order with the 0-based schedule index. Minimization
     * replays are not reported.
     */
    std::function<void(std::uint64_t, const Schedule &,
                       const RunOutcome &)>
        onSchedule;

  private:
    void minimizeCounterexample(const Schedule &full,
                                ExploreVerdict target,
                                ExploreResult &r) const;

    ExploreConfig ecfg;
};

} // namespace bulksc

#endif // BULKSC_EXPLORE_EXPLORER_HH
