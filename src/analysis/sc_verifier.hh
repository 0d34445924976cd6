/**
 * @file
 * An end-to-end sequential-consistency conformance checker.
 *
 * BulkSC's correctness argument (Section 3.1) is that an execution is
 * SC if chunks appear to execute atomically and in isolation, commit
 * in a single total order, and each processor's chunks commit in
 * program order. This checker verifies the *appearance* directly:
 * every committed chunk reports its ordered access log (each load with
 * the value it actually observed during speculative execution, each
 * store with the value it wrote), and the verifier replays the logs
 * serially in commit order against a reference memory image. Every
 * observed load value must equal the reference value at that point of
 * the serial replay — i.e. the real, speculative, out-of-order,
 * squash-and-retry execution must be indistinguishable from the serial
 * one.
 *
 * Replaying in commit-grant order is sound even though commits
 * overlap: the arbiter only lets chunks commit concurrently when the
 * incoming (R, W) pair is disjoint from every committing W (superset
 * check, so the exact sets are disjoint too), making concurrent
 * commits commutative in the replay.
 *
 * Value tracking: the checker no longer requires the workload
 * generator's trackAllValues mode. Accesses without a meaningful
 * value (LoggedAccess::hasValue == false, logged when the engine also
 * runs the axiomatic checker or the race detector) participate in the replay
 * structurally — an untracked store poisons the reference cell to
 * "unknown", and loads of unknown cells are counted but not
 * compared. Structural SC over those accesses is covered by the
 * axiomatic checker (src/analysis/mem_order_graph.hh), which works
 * from writer tags instead of values; cross-checking the two on the
 * tracked subset is how the restriction was lifted.
 *
 * Remaining limitation: on partially-tracked workloads the *replay*
 * checker's value comparison only discriminates between writes that
 * wrote different tracked values to the same address. Two stores of
 * the same value to one address are indistinguishable to the replay
 * (classic ABA), which is exactly why trackAllValues writes unique
 * values — enable it when the strongest value-level check is wanted,
 * or rely on the axiomatic checker, which is immune to ABA because
 * it never infers writers from values.
 */

#ifndef BULKSC_ANALYSIS_SC_VERIFIER_HH
#define BULKSC_ANALYSIS_SC_VERIFIER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/access_log.hh"
#include "sim/types.hh"

namespace bulksc {

/**
 * Serial-replay SC checker for chunked executions.
 */
class ScVerifier
{
  public:
    /**
     * A chunk committed (commit permission granted). Must be invoked
     * in commit-grant order — which is how the AnalysisEngine calls it.
     *
     * @param p Committing processor.
     * @param log The chunk's accesses in program order.
     */
    void chunkCommitted(ProcId p, const std::vector<LoggedAccess> &log);

    /** @return true iff every replayed load matched. */
    bool verified() const { return errorLog.empty(); }

    std::uint64_t chunksChecked() const { return nChunks; }
    std::uint64_t readsChecked() const { return nReads; }
    std::uint64_t writesApplied() const { return nWrites; }

    /** Tracked loads hitting a cell last written by an untracked
     *  store (compared structurally only, see the header comment). */
    std::uint64_t unknownValueReads() const { return nUnknownReads; }

    /** Untracked loads (no value to compare at all). */
    std::uint64_t skippedReads() const { return nSkippedReads; }

    /** Human-readable descriptions of any mismatches (capped). */
    const std::vector<std::string> &errors() const { return errorLog; }

  private:
    /** One reference-memory cell; a cell last written by an untracked
     *  store holds no usable value. */
    struct Cell
    {
        std::uint64_t value = 0;
        bool known = true;
    };

    std::unordered_map<Addr, Cell> state;
    std::uint64_t nChunks = 0;
    std::uint64_t nReads = 0;
    std::uint64_t nWrites = 0;
    std::uint64_t nUnknownReads = 0;
    std::uint64_t nSkippedReads = 0;
    std::vector<std::string> errorLog;
};

} // namespace bulksc

#endif // BULKSC_ANALYSIS_SC_VERIFIER_HH
