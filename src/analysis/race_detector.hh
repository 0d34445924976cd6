/**
 * @file
 * Vector-clock happens-before data-race detection over committed
 * chunk logs (Djit+-style, per-variable read/write clocks).
 *
 * Happens-before is generated by program order and by the workload's
 * synchronization accesses, which the generator places in a dedicated
 * address range (locks, lock-protected critical sections' guard
 * words, barrier count/generation words). A load of a sync variable
 * acquires: the reader's clock joins the variable's clock. A store to
 * a sync variable releases: the variable's clock joins the writer's,
 * and the writer's own component then ticks — so a *failed*
 * test-and-set read of the lock word does not spuriously order two
 * critical sections through the loser's clock.
 *
 * Ordinary (data) accesses are checked: an access races iff it is not
 * happens-before-ordered with some prior conflicting access to the
 * same address. Racy pairs are reported with chunk provenance (which
 * processor, which chunk on each side).
 *
 * Logs are consumed at chunk commit in commit order, which is exactly
 * the order sync values flow between processors (cross-processor
 * reads observe committed state only), so every reads-from join sees
 * the releasing store's clock already in place.
 *
 * Note the race check is a *program* property: chunk atomicity makes
 * the execution SC, but two conflicting accesses with no intervening
 * synchronization are still a data race — BulkSC hides them, it does
 * not fix them.
 */

#ifndef BULKSC_ANALYSIS_RACE_DETECTOR_HH
#define BULKSC_ANALYSIS_RACE_DETECTOR_HH

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/access_log.hh"
#include "analysis/vector_clock.hh"

namespace bulksc {

class EventTrace;

class RaceDetector
{
  public:
    struct Config
    {
        unsigned numProcs = 0;

        /** Sync-variable address range [syncLo, syncHi): accesses
         *  here create happens-before edges instead of being
         *  race-checked. */
        Addr syncLo = 0;
        Addr syncHi = 0;

        /** Maximum racy pairs kept for reporting (all are counted). */
        unsigned reportCap = 32;
    };

    /** One racy pair: prior access vs the access that flagged it. */
    struct Report
    {
        Addr addr;
        Tick tick; //!< commit tick of the flagging chunk
        ProcId priorProc;
        std::uint64_t priorSeq; //!< chunk of the prior access
        bool priorIsWrite;
        ProcId proc;
        std::uint64_t seq; //!< chunk of the flagging access
        bool isWrite;
    };

    explicit RaceDetector(const Config &cfg);

    /** Observe one committed chunk (in commit-grant order). */
    void chunkCommitted(Tick now, ProcId p, std::uint64_t seq,
                        const std::vector<LoggedAccess> &log);

    /** Racy access pairs flagged (one per access, first witness). */
    std::uint64_t racesFound() const { return nRaces; }

    /** Distinct data addresses involved in some race. */
    std::size_t racyAddrs() const { return racyAddrSet.size(); }

    std::uint64_t syncOps() const { return nSyncOps; }
    std::uint64_t checkedAccesses() const { return nChecked; }

    const std::vector<Report> &reports() const { return reps; }

    std::string describe(const Report &r) const;

    /** Record races into @p t (non-owning; null: none). */
    void setTrace(EventTrace *t) { sink = t; }

  private:
    /** Last access by each processor: clock component + chunk. */
    struct Epoch
    {
        std::uint64_t clk = 0;
        std::uint64_t seq = 0;
    };

    struct VarState
    {
        std::vector<Epoch> w; //!< per-proc last write
        std::vector<Epoch> r; //!< per-proc last read
    };

    bool isSync(Addr a) const { return a >= syncLo && a < syncHi; }

    void check(Tick now, ProcId p, std::uint64_t seq,
               const LoggedAccess &a);

    EventTrace *traceSink() const { return sink; }

    const unsigned np;
    const Addr syncLo, syncHi;
    const unsigned reportCap;

    std::vector<VectorClock> clocks; //!< per-processor clocks

    std::unordered_map<Addr, VectorClock> syncVc;
    std::unordered_map<Addr, VarState> vars;

    std::uint64_t nRaces = 0;
    std::uint64_t nSyncOps = 0;
    std::uint64_t nChecked = 0;
    std::unordered_set<Addr> racyAddrSet;
    std::vector<Report> reps;
    EventTrace *sink = nullptr;
};

} // namespace bulksc

#endif // BULKSC_ANALYSIS_RACE_DETECTOR_HH
