/**
 * @file
 * Parameter-sweep runner: executes one fully-isolated simulator
 * instance per grid point on a pool of worker threads and streams one
 * JSONL record per point, in point order, independent of worker count.
 *
 * Isolation is structural: a point's System owns its EventQueue,
 * MemorySystem, processors, and statistics, so workers share nothing
 * but the read-only option registry and workload profiles.
 *
 * Determinism: a point's inputs are a function of its settings alone.
 * It simulates with the base (or swept) seed-salt and fault-seed, so
 * two points with the same settings emit the same record in any grid,
 * at any index, for any -j — and points that differ only in the model
 * compare on the same traces.
 */

#ifndef BULKSC_SYSTEM_SWEEP_RUNNER_HH
#define BULKSC_SYSTEM_SWEEP_RUNNER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "system/sim_options.hh"

namespace bulksc {

/** One sweep dimension: an option name and the values it takes. */
struct SweepAxis
{
    std::string name;                //!< registry option name
    std::vector<std::string> values; //!< one grid column per value
};

/**
 * Cross-product sweep over a base configuration.
 *
 * The grid is the cross product of the axes in declaration order, the
 * last axis varying fastest (row-major).
 */
class SweepRunner
{
  public:
    /**
     * @param base Options every point starts from.
     * @param axes Sweep dimensions; empty means a single point.
     */
    SweepRunner(SimOptions base, std::vector<SweepAxis> axes);

    /** Total grid points. */
    std::size_t numPoints() const { return nPoints; }

    /**
     * Validate the whole grid without simulating: axis names must be
     * distinct config-persistable registry options, every point's
     * configuration must pass MachineConfig::validate(), and app names
     * must exist.
     * On failure @p err names the point and the offending option.
     */
    bool validateGrid(std::string &err) const;

    /**
     * Run every point on @p workers threads, writing one JSON record
     * per line to @p out in point order (streamed: a record is written
     * as soon as it and all its predecessors are done).
     *
     * @param progress When true, reports completed points on stderr.
     * @return the number of failed points (their records carry an
     *         "error" field instead of statistics).
     */
    std::size_t run(unsigned workers, std::FILE *out,
                    bool progress = false);

    /** The option settings of grid point @p idx (axis name, value). */
    std::vector<std::pair<std::string, std::string>>
    pointSettings(std::size_t idx) const;

    /**
     * The options point @p idx simulates with: base + axis settings.
     * False + @p err if a setting does not apply cleanly.
     */
    bool pointOptions(std::size_t idx, SimOptions &out,
                      std::string &err) const;

  private:
    std::string runPoint(std::size_t idx, bool &ok) const;

    SimOptions base;
    std::vector<SweepAxis> axes;
    std::size_t nPoints;
};

} // namespace bulksc

#endif // BULKSC_SYSTEM_SWEEP_RUNNER_HH
