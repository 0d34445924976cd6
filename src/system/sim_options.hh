/**
 * @file
 * The unified simulator option registry: every tool and bench builds
 * its command line, usage text, and JSON config round-trip from one
 * table of option descriptors bound into a SimOptions struct.
 *
 * An option has a canonical name ("sig-bits"), which is simultaneously
 *  - the CLI flag  --sig-bits N  (also --sig-bits=N),
 *  - the JSON key  "sig-bits": N  in --config / --dump-config files,
 *  - the sweep-axis name in bulksc_batch grids.
 *
 * Boolean options additionally accept a --no-<name> negation, which is
 * how the historical spellings --no-rsig / --no-warm keep working.
 *
 * Options are tagged with the tools they apply to (OptionGroup); each
 * tool parses with its own group so e.g. --litmus is rejected by the
 * batch runner with a proper message instead of being silently eaten.
 */

#ifndef BULKSC_SYSTEM_SIM_OPTIONS_HH
#define BULKSC_SYSTEM_SIM_OPTIONS_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "system/machine_config.hh"

namespace bulksc {

/** Correctness checkers selected with --check. */
struct CheckSet
{
    bool axiomatic = false; //!< SC as acyclicity of po∪rf∪co∪fr
    bool race = false;      //!< happens-before data races
    bool replay = false;    //!< serial-replay value check

    bool any() const { return axiomatic || race || replay; }

    /** Canonical comma-separated form ("" when none). */
    std::string str() const;
};

/** The schedule-search settings of one exploration: SimOptions binds
 *  the --explore-* options into them and ExploreConfig inherits them. */
struct ExploreSettings
{
    std::uint64_t maxSchedules = 1000;   //!< schedule budget
    std::uint64_t maxDecisions = 64;     //!< branching depth cap
    std::uint64_t tickLimit = 5'000'000; //!< per-run tick budget
    std::uint64_t wallLimitMs = 0;       //!< wall-clock budget (0 = off)
    std::uint64_t jobs = 1;              //!< parallel wave width
    bool por = true;         //!< signature-based partial-order reduction
    bool fpPrune = true;     //!< fingerprint revisit pruning
    bool bfs = false;        //!< breadth-first instead of depth-first
    bool stopAtFirst = true; //!< stop at the first violation
    bool minimize = true;    //!< minimize the counterexample
};

/**
 * Everything a simulator invocation is configured by: the machine
 * itself plus the workload selection and the driver-level switches.
 * Defaults here are the single source of truth — usage text and
 * --dump-config both read them.
 */
struct SimOptions
{
    /** Tools run with the forward-progress watchdog armed; library
     *  embedders constructing MachineConfig directly keep it off. */
    SimOptions() { cfg.watchdog.enabled = true; }

    MachineConfig cfg;

    std::string app = "ocean";   //!< workload profile name
    std::string litmus;          //!< litmus test name ("" = profile)
    std::uint64_t instrs = 100'000; //!< instructions per processor
    std::uint64_t seedSalt = 0;     //!< trace-generation variant

    CheckSet checks;

    std::string saveTraces; //!< write generated trace bundle here
    std::string loadTraces; //!< replay a saved trace bundle instead

    bool dumpAll = false; //!< --stats: dump every statistic
    bool jsonOut = false; //!< --json: stats as a JSON object

    std::string traceOut;          //!< trace output path ("-" = text)
    std::string traceCats = "all"; //!< event categories (validated)

    bool dumpConfig = false; //!< print effective config JSON and exit

    /** bulksc_explore settings (OptionGroup::Explore): the search
     *  settings plus the driver's own. */
    struct ExploreOpts : ExploreSettings
    {
        /** Install a net.delay=0:N window on every message, turning
         *  each delivery latency into an explored choice (0 = off). */
        std::uint64_t delayChoices = 0;
        std::string schedule;    //!< replay this schedule file only
        std::string scheduleOut; //!< write the counterexample here
        std::string resultsOut;  //!< per-schedule JSONL stream
    } explore;
};

/** Which tool an option belongs to (bitmask values). */
enum class OptionGroup : unsigned
{
    Sim = 1,     //!< bulksc_sim
    Batch = 2,   //!< bulksc_batch
    Bench = 4,   //!< bench/ microbenchmarks
    Explore = 8, //!< bulksc_explore
};

/** One entry of the option table. */
struct OptionDesc
{
    enum class Kind
    {
        Flag, //!< boolean; accepts --name and --no-name
        UInt, //!< unsigned integer value
        Str,  //!< string value
    };

    std::string name;      //!< canonical name (CLI flag, JSON key)
    std::string valueName; //!< metavariable for usage ("N", "NAME")
    std::string help;      //!< one-line description
    Kind kind;
    unsigned groups;   //!< OptionGroup bitmask
    bool inConfig;     //!< participates in --config / --dump-config

    /** Parse @p value into @p opts; false + @p err on bad input.
     *  Flags receive "1" / "0". */
    std::function<bool(SimOptions &, const std::string &value,
                       std::string &err)>
        set;

    /** Current value of @p opts as a string (flags: "1" / "0"). */
    std::function<std::string(const SimOptions &)> get;
};

/**
 * The option table plus the operations every tool shares: CLI parsing,
 * usage text, config-file round-trip, and key=value application (the
 * sweep runner's interface to grid axes).
 */
class OptionRegistry
{
  public:
    static const OptionRegistry &instance();

    /**
     * Parse @p argc strings (no program name) into @p opts.
     *
     * A `--config FILE` anywhere on the line is applied first, so
     * explicit flags always override file values regardless of their
     * relative order. Unknown flags, flags of another tool, missing
     * and malformed values all fail with an actionable @p err.
     */
    bool parse(int argc, const char *const *argv, SimOptions &opts,
               OptionGroup group, std::string &err) const;

    /** Print the option summary for @p group (one line each). */
    void printUsage(std::FILE *out, OptionGroup group) const;

    /**
     * Apply one canonical key=value pair (config file entry or sweep
     * axis). Flags accept 0/1/true/false. Fails on unknown keys.
     */
    bool applyKeyValue(SimOptions &opts, const std::string &key,
                       const std::string &value,
                       std::string &err) const;

    /** Load a flat JSON config file into @p opts. */
    bool loadConfigFile(const std::string &path, SimOptions &opts,
                        std::string &err) const;

    /** Emit the effective config of @p opts as flat JSON (all
     *  config-persistable options, canonical order). */
    void dumpConfigJson(std::FILE *out, const SimOptions &opts) const;

    /** Descriptor for @p name, or null. */
    const OptionDesc *find(const std::string &name) const;

    const std::vector<OptionDesc> &options() const { return opts_; }

  private:
    OptionRegistry();

    std::vector<OptionDesc> opts_;
};

/**
 * Parse a flat JSON object of string/number/boolean values into
 * key->value strings (booleans become "1"/"0"). The whole grammar a
 * BulkSC config file needs — nested objects and arrays are rejected.
 */
bool parseFlatJson(const std::string &text,
                   std::vector<std::pair<std::string, std::string>> &kv,
                   std::string &err);

} // namespace bulksc

#endif // BULKSC_SYSTEM_SIM_OPTIONS_HH
