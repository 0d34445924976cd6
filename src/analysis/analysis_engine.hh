/**
 * @file
 * The analysis engine: the one commit-order observer a BulkProcessor
 * reports to. It fans committed chunk logs out to the configured
 * checkers — axiomatic SC via the memory-order graph, happens-before
 * races via vector clocks, and the serial-replay reference oracle
 * (ScVerifier) — and keeps the writer-tag directory the processors'
 * load instrumentation queries.
 *
 * With the axiomatic checker or the race detector selected, a
 * BulkProcessor logs *every* access (a replay-only engine gets just
 * the value-tracked ones) and binds each load's WriterRef at the
 * instant its value binds: from the youngest live chunk's store to
 * the address if one exists, else from committedWriter() — which the
 * engine keeps in lockstep with the committed value state, because
 * both are updated atomically at commit grant in the single-threaded
 * event simulation.
 *
 * Violations and races are also emitted into the structured event
 * trace (TraceCat::Analysis), so they land on the Perfetto timeline
 * next to the commits that caused them.
 */

#ifndef BULKSC_ANALYSIS_ANALYSIS_ENGINE_HH
#define BULKSC_ANALYSIS_ANALYSIS_ENGINE_HH

#include <memory>

#include "analysis/mem_order_graph.hh"
#include "analysis/race_detector.hh"
#include "analysis/sc_verifier.hh"
#include "sim/stats.hh"

namespace bulksc {

struct AnalysisConfig
{
    bool axiomatic = true;
    bool race = false;
    bool replay = false;
    unsigned numProcs = 0;

    /** Sync-variable address range for happens-before edges (the
     *  workload layout's lock/barrier region). */
    Addr syncLo = 0;
    Addr syncHi = 0;

    unsigned violationCap = 8;
    unsigned raceReportCap = 32;
};

class AnalysisEngine
{
  public:
    explicit AnalysisEngine(const AnalysisConfig &cfg) : cfg_(cfg)
    {
        if (cfg.axiomatic)
            graph_ = std::make_unique<MemOrderGraph>(cfg.violationCap);
        if (cfg.race) {
            races_ = std::make_unique<RaceDetector>(RaceDetector::Config{
                cfg.numProcs, cfg.syncLo, cfg.syncHi,
                cfg.raceReportCap});
        }
        if (cfg.replay)
            replay_ = std::make_unique<ScVerifier>();
    }

    /** Log every access with its writer tag, not just the
     *  value-tracked ones replay reads. */
    bool logsAllAccesses() const { return cfg_.axiomatic || cfg_.race; }

    /** Load instrumentation: the committed writer of @p a (initial
     *  memory when the axiomatic checker is off or nothing committed
     *  yet — tags are only consumed by the axiomatic checker). */
    WriterRef
    committedWriter(Addr a) const
    {
        return graph_ ? graph_->committedWriter(a) : WriterRef{};
    }

    /** One chunk committed; must be called in commit-grant order. */
    void
    chunkCommitted(Tick now, ProcId p, std::uint64_t seq,
                   const std::vector<LoggedAccess> &log)
    {
        ++nChunks;
        if (replay_)
            replay_->chunkCommitted(p, log);
        if (graph_)
            graph_->chunkCommitted(now, p, seq, log);
        if (races_)
            races_->chunkCommitted(now, p, seq, log);
    }

    /** Point the checkers at the run's event sink (non-owning). */
    void
    setTrace(EventTrace *t)
    {
        if (graph_)
            graph_->setTrace(t);
        if (races_)
            races_->setTrace(t);
    }

    const AnalysisConfig &config() const { return cfg_; }

    /** Null unless the axiomatic check is enabled. */
    const MemOrderGraph *graph() const { return graph_.get(); }

    /** Null unless the race check is enabled. */
    const RaceDetector *races() const { return races_.get(); }

    /** Null unless the replay check is enabled. */
    const ScVerifier *replay() const { return replay_.get(); }

    /** True iff no po ∪ rf ∪ co ∪ fr cycle was found (vacuously true
     *  with the axiomatic check off). */
    bool scOk() const { return !graph_ || graph_->ok(); }

    std::uint64_t scCycles() const
    {
        return graph_ ? graph_->cyclesDetected() : 0;
    }

    std::uint64_t raceCount() const
    {
        return races_ ? races_->racesFound() : 0;
    }

    std::uint64_t chunksObserved() const { return nChunks; }

    void dumpStats(StatGroup &sg) const;

  private:
    AnalysisConfig cfg_;
    std::unique_ptr<MemOrderGraph> graph_;
    std::unique_ptr<RaceDetector> races_;
    std::unique_ptr<ScVerifier> replay_;
    std::uint64_t nChunks = 0;
};

} // namespace bulksc

#endif // BULKSC_ANALYSIS_ANALYSIS_ENGINE_HH
