/**
 * @file
 * Axiomatic SC checking over committed chunks: build the memory-order
 * graph po ∪ rf ∪ co ∪ fr and keep it acyclic.
 *
 * BulkSC's correctness claim (paper Section 3.1) is that the chunked,
 * overlapped execution is indistinguishable from some serial order of
 * chunks. Axiomatically (Qadeer-style, and RealityCheck's graph
 * formulation of microarchitectural MCM checks), that holds iff the
 * union of
 *
 *  - po: per-processor chunk commit order (chunks commit in program
 *        order, so this is program order at chunk granularity),
 *  - rf: writer chunk -> reader chunk, for each load, from the store
 *        that actually supplied its value (ground-truth writer tags
 *        recorded at value-bind time — no value inference, so any
 *        workload can be checked),
 *  - co: per-address write serialization, witnessed by commit-grant
 *        order (the order the machine *claims*),
 *  - fr: reader -> co-successor of the store it read (the load
 *        observed a value that the later store overwrote, so the
 *        reader must serialize before that store),
 *
 * is acyclic over committed chunks. Edges are fed to the incremental
 * cycle detector as each chunk commits; in a correct execution every
 * edge points forward in commit order (the fast O(1) path), and the
 * first edge that would close a cycle is the SC violation — reported
 * with a minimal cycle and per-edge processor/chunk/address
 * attribution, and *not* inserted, so checking continues.
 *
 * Granularity: rf/co/fr are tracked at byte-address granularity (what
 * the value model uses), which is finer than the machine's line-level
 * disambiguation — so the check is sound and strictly more precise
 * than the hardware needs to be.
 *
 * The per-address write history is kept in full: truncating it could
 * mis-resolve a very stale read to a newer co-successor and fabricate
 * or miss edges. Memory therefore grows with distinct committed writes
 * (fine for simulation-scale runs; see docs/analysis.md).
 */

#ifndef BULKSC_ANALYSIS_MEM_ORDER_GRAPH_HH
#define BULKSC_ANALYSIS_MEM_ORDER_GRAPH_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/access_log.hh"
#include "analysis/cycle_detector.hh"

namespace bulksc {

class EventTrace;

class MemOrderGraph
{
  public:
    using NodeId = CycleDetector::NodeId;

    enum class EdgeKind : std::uint8_t { Po, Rf, Co, Fr };

    /** A committed chunk (one graph node). */
    struct NodeInfo
    {
        ProcId proc;
        std::uint64_t seq;
        Tick commitTick;
    };

    /** One edge of a reported violating cycle. */
    struct CycleEdge
    {
        NodeId from;
        NodeId to;
        EdgeKind kind;
        Addr addr; //!< witness address (0 for po)
    };

    /** A minimal po ∪ rf ∪ co ∪ fr cycle. */
    struct Violation
    {
        Tick tick; //!< commit tick at which the cycle closed
        std::vector<CycleEdge> edges;
    };

    explicit MemOrderGraph(unsigned violation_cap = 8)
        : violationCap(violation_cap)
    {}

    /**
     * Observe one committed chunk. Must be called in commit-grant
     * order (the order BulkProcessor::onGranted fires in).
     */
    void chunkCommitted(Tick now, ProcId p, std::uint64_t seq,
                        const std::vector<LoggedAccess> &log);

    /** The last committed store to @p a (initial memory if none). */
    WriterRef
    committedWriter(Addr a) const
    {
        auto it = hist.find(a);
        if (it == hist.end() || it->second.empty())
            return {};
        return it->second.back().writer;
    }

    bool ok() const { return nCycles == 0; }

    std::uint64_t cyclesDetected() const { return nCycles; }

    /** The first violationCap violations, each a minimal cycle. */
    const std::vector<Violation> &violations() const { return viols; }

    const NodeInfo &node(NodeId n) const { return nodes.at(n); }

    std::size_t numNodes() const { return nodes.size(); }
    std::size_t numEdges() const { return det.numEdges(); }
    std::uint64_t edgeCount(EdgeKind k) const
    {
        return kindCounts[static_cast<unsigned>(k)];
    }

    /** Loads whose writer tag matched no known store (should be 0;
     *  counted instead of asserted so a checker bug cannot kill a
     *  run). */
    std::uint64_t unmatchedReads() const { return nUnmatched; }

    /** "cpu1#12 -fr(0xb0000040)-> cpu0#9 -co(0xb0000040)-> cpu1#12" */
    std::string describe(const Violation &v) const;

    static const char *edgeKindName(EdgeKind k);

    /** Record violations into @p t (non-owning; null: none). */
    void setTrace(EventTrace *t) { sink = t; }

  private:
    struct HistEntry
    {
        WriterRef writer;
        NodeId node;
    };

    struct EdgeInfo
    {
        EdgeKind kind;
        Addr addr;
    };

    void addEdge(Tick now, NodeId u, NodeId v, EdgeKind kind,
                 Addr addr);

    EventTrace *traceSink() const { return sink; }

    static std::uint64_t
    key(NodeId u, NodeId v)
    {
        return (std::uint64_t{u} << 32) | v;
    }

    CycleDetector det;
    std::vector<NodeInfo> nodes;
    std::unordered_map<ProcId, NodeId> lastNode; //!< po predecessor

    /** Per-address committed write history, in co (commit) order. */
    std::unordered_map<Addr, std::vector<HistEntry>> hist;

    /** Readers of the current (latest) version of each address; they
     *  get fr edges to the next committed write. */
    std::unordered_map<Addr, std::vector<NodeId>> readers;

    /** Kind/address attribution of inserted edges (first wins). */
    std::unordered_map<std::uint64_t, EdgeInfo> edgeInfo;

    std::uint64_t kindCounts[4] = {0, 0, 0, 0};
    std::uint64_t nCycles = 0;
    std::uint64_t nUnmatched = 0;
    unsigned violationCap;
    std::vector<Violation> viols;
    EventTrace *sink = nullptr;
};

} // namespace bulksc

#endif // BULKSC_ANALYSIS_MEM_ORDER_GRAPH_HH
