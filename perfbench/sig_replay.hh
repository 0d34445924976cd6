/**
 * @file
 * Signature-layer replay: cuts a workload's traces into per-chunk
 * read/write footprints and drives them through the public Signature
 * API, timing insert, contains and intersect from outside.
 *
 * Chunks are cut at the model's chunk size in dynamic instructions,
 * the way a BulkSC processor cuts them when nothing squashes. Chunks
 * with the same index on different processors stand in for chunks
 * that run concurrently: each processor's W signature is intersected
 * with every other processor's R and W signatures (commit
 * disambiguation), and each processor's W signature is probed with
 * the next processor's read lines (single-address membership).
 */

#ifndef BULKSC_PERFBENCH_SIG_REPLAY_HH
#define BULKSC_PERFBENCH_SIG_REPLAY_HH

#include <cstdint>
#include <vector>

#include "cpu/op.hh"
#include "signature/signature.hh"
#include "spans.hh"

namespace perfbench {

/** The line addresses one chunk reads and writes, in access order. */
struct ChunkFootprint
{
    std::vector<bulksc::LineAddr> reads;
    std::vector<bulksc::LineAddr> writes;
};

/** footprints[proc][chunk]. */
using Footprints = std::vector<std::vector<ChunkFootprint>>;

Footprints chunkFootprints(const std::vector<bulksc::Trace> &traces,
                           unsigned chunk_instrs, unsigned line_bytes);

/** Host cost and aliasing of one replay. */
struct SigReplayResult
{
    double insertNs = 0;    //!< host ns per Signature::insert
    double containsNs = 0;  //!< host ns per Signature::contains
    double intersectNs = 0; //!< host ns per Signature::intersects
    std::uint64_t inserts = 0;
    std::uint64_t containsOps = 0;
    std::uint64_t intersectOps = 0;
    /** Intersections whose exact address sets are disjoint. */
    std::uint64_t disjointPairs = 0;
    /** ... of which the Bloom signatures still intersect. */
    std::uint64_t aliasedPairs = 0;

    /** Aliased share of the exact-disjoint intersections, in %. */
    double
    aliasPct() const
    {
        return disjointPairs ? 100.0 * static_cast<double>(aliasedPairs) /
                                   static_cast<double>(disjointPairs)
                             : 0.0;
    }
};

/**
 * Replay @p fp through signatures built from @p cfg. The footprints
 * are replayed whole, repeated until at least @p min_inserts inserts
 * were timed, so tiny workloads still time many operations.
 */
SigReplayResult replaySignatures(const Footprints &fp,
                                 const bulksc::SignatureConfig &cfg,
                                 std::uint64_t min_inserts,
                                 SpanRecorder &spans, std::uint64_t id,
                                 int parent);

} // namespace perfbench

#endif // BULKSC_PERFBENCH_SIG_REPLAY_HH
