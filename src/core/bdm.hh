/**
 * @file
 * Per-processor Bulk Disambiguation Module state: the chunk descriptor
 * (R / W / Wpriv signature set, speculative values, execution
 * bookkeeping) and the Private Buffer of the dynamically-private data
 * optimization (Section 5.2).
 *
 * The BDM is deliberately decoupled from the cache: the tag/data arrays
 * never learn what is speculative. All speculation bookkeeping lives
 * here, and interacts with the cache only through victim filters and
 * bulk operations.
 */

#ifndef BULKSC_CORE_BDM_HH
#define BULKSC_CORE_BDM_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/access_log.hh"
#include "signature/signature.hh"
#include "sim/types.hh"

namespace bulksc {

/**
 * The Private Buffer: holds the pre-update version of dirty
 * non-speculative lines whose writes were diverted to Wpriv. ~24
 * entries, not on any critical path (Section 5.2). Only membership is
 * modelled; data contents live in the simulator's value store.
 */
class PrivateBuffer
{
  public:
    explicit PrivateBuffer(unsigned capacity = 24) : cap(capacity) {}

    bool full() const { return lines.size() >= cap; }

    bool contains(LineAddr l) const { return lines.count(l) != 0; }

    /** @return false if the buffer is full (caller must fall back to
     *  writeback + W insertion). */
    bool
    insert(LineAddr l)
    {
        if (lines.count(l))
            return true;
        if (full())
            return false;
        lines.insert(l);
        if (lines.size() > highWater)
            highWater = static_cast<unsigned>(lines.size());
        return true;
    }

    void erase(LineAddr l) { lines.erase(l); }

    void clear() { lines.clear(); }

    std::size_t size() const { return lines.size(); }

    unsigned highWatermark() const { return highWater; }

    const std::unordered_set<LineAddr> &entries() const { return lines; }

  private:
    unsigned cap;
    unsigned highWater = 0;
    std::unordered_set<LineAddr> lines;
};

/**
 * The distinct lines that live chunks hold speculatively (in W or
 * Wpriv), grouped by L1 set: the state behind the way-overflow rule of
 * Section 4.1.2. Each (chunk, W or Wpriv) membership of a line is one
 * reference, so a line written by two live chunks, or in both W and
 * Wpriv, occupies one way until its last reference is released.
 */
class SpecWays
{
  public:
    /** @param num_sets The L1 set count, a power of two. */
    explicit SpecWays(std::uint64_t num_sets)
        : sets(num_sets), setMask(num_sets - 1)
    {}

    /** True iff @p a and @p b map to the same L1 set. */
    bool
    sameSet(LineAddr a, LineAddr b) const
    {
        return ((a ^ b) & setMask) == 0;
    }

    /** One more chunk set holds @p l. */
    void
    add(LineAddr l)
    {
        auto &set = sets[l & setMask];
        for (Entry &e : set) {
            if (e.line == l) {
                ++e.refs;
                return;
            }
        }
        set.push_back({l, 1});
    }

    /** One chunk set fewer holds @p l. */
    void
    release(LineAddr l)
    {
        auto &set = sets[l & setMask];
        for (Entry &e : set) {
            if (e.line == l) {
                if (--e.refs == 0) {
                    e = set.back();
                    set.pop_back();
                }
                return;
            }
        }
    }

    /** True iff some live chunk holds @p l speculatively. */
    bool
    holds(LineAddr l) const
    {
        for (const Entry &e : sets[l & setMask]) {
            if (e.line == l)
                return true;
        }
        return false;
    }

    /** Distinct speculative lines in @p l's L1 set. */
    std::size_t
    linesInSet(LineAddr l) const
    {
        return sets[l & setMask].size();
    }

  private:
    struct Entry
    {
        LineAddr line;
        unsigned refs;
    };

    std::vector<std::vector<Entry>> sets;
    std::uint64_t setMask;
};

/**
 * One in-flight chunk: a dynamically-built group of consecutive
 * instructions executing speculatively with its own signature set and
 * checkpoint (Section 4.1).
 */
struct Chunk
{
    Chunk(std::uint64_t seq_, std::size_t start_pos, unsigned target,
          const SignatureConfig &cfg)
        : seq(seq_), startPos(start_pos), targetSize(target), r(cfg),
          w(cfg), wpriv(cfg)
    {}

    /** Monotonic chunk id (the hardware's Chunk ID bits). */
    std::uint64_t seq;

    /** Trace position of the checkpoint (rollback target). */
    std::size_t startPos;

    /** Instructions after which the chunk ends (shrinks on squash). */
    unsigned targetSize;

    /** Instructions executed so far (including spin iterations). */
    std::uint64_t execInstrs = 0;

    /** The spin-loop share of execInstrs: retired at commit, wasted by
     *  a squash. */
    std::uint64_t spinInstrs = 0;

    Signature r;     //!< read signature
    Signature w;     //!< write signature (consistency-visible)
    Signature wpriv; //!< private-write signature (Section 5)

    /**
     * Exact speculative write lines of this chunk, the model of the
     * per-line chunk-id bits the BDM keeps in the L1. Unlike the
     * signatures' optional exact mirror (stats metadata), these sets
     * are functional state: L1 way-overflow checks, squash discard,
     * and directory selection at commit read them, so they are
     * maintained in every mode. Writes only — loads stay mirror-free.
     */
    std::unordered_set<LineAddr> wLines;
    std::unordered_set<LineAddr> wprivLines;

    /** Speculative values written by this chunk (tracked addrs). */
    std::unordered_map<Addr, std::uint64_t> specValues;

    /** Program-ordered access log for the analysis engine's
     *  checkers (only filled when the engine is attached). */
    std::vector<LoggedAccess> accessLog;

    /** This chunk's latest store to each address, as an index into
     *  accessLog — the per-chunk half of the load instrumentation's
     *  writer-tag lookup (analysis mode only). Dies with the chunk on
     *  squash, so tags never reference discarded work. */
    std::unordered_map<Addr, std::uint32_t> specWriters;

    /** Lines whose old version this chunk parked in the Private
     *  Buffer. */
    std::vector<LineAddr> privBufLines;

    /** Store lines not yet present in the L1 (commit must wait). */
    std::unordered_set<LineAddr> outstandingStoreLines;

    /** Forwarding-log entries not yet drained into R (the window of
     *  vulnerability of Section 3.2.1). */
    unsigned pendingFwd = 0;

    /** Loads issued for this chunk and not yet completed. */
    unsigned inflightLoads = 0;

    /** The chunk has reached its boundary (size/overflow/trace end). */
    bool endReached = false;

    /** Transaction nesting depth at the checkpoint (restored on
     *  squash so re-execution re-enters transactions correctly). */
    unsigned txnDepthAtStart = 0;

    /** A permission-to-commit request is outstanding. */
    bool arbitrating = false;

    /** Tick of the first commit request (arbitration-latency stat;
     *  kTickNever until the chunk first arbitrates). */
    Tick firstArbTick = kTickNever;

    bool
    readyToArbitrate() const
    {
        return endReached && !arbitrating && inflightLoads == 0 &&
               outstandingStoreLines.empty() && pendingFwd == 0;
    }
};

} // namespace bulksc

#endif // BULKSC_CORE_BDM_HH
