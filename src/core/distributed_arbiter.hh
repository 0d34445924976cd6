/**
 * @file
 * The distributed arbiter of Section 4.2.3: the arbiter is split into
 * multiple modules, each managing an address range (interleaved by
 * line, matching the directory modules). A chunk that accessed a
 * single range arbitrates with that module alone; a chunk spanning
 * ranges goes through the Global Arbiter (G-arbiter), which forwards
 * the signatures to the involved modules, collects their votes, and
 * combines them. The G-arbiter also caches the W signatures of its own
 * in-flight transactions to deny colliding requests early.
 */

#ifndef BULKSC_CORE_DISTRIBUTED_ARBITER_HH
#define BULKSC_CORE_DISTRIBUTED_ARBITER_HH

#include <map>
#include <utility>
#include <vector>

#include "core/arbiter.hh"

namespace bulksc {

/**
 * Distributed arbiter: per-range modules plus a G-arbiter. Only range
 * routing, the module W lists and the G-arbiter's vote fan-out live
 * here; the decision cache, lossy request/reply edges,
 * pre-arbitration and W-residency accounting are ArbiterCore's. The R
 * signature travels with the request and the RSig round trip is
 * charged analytically (2x its network latency).
 */
class DistributedArbiter : public ArbiterCore
{
  public:
    /**
     * @param first_node Network node of module 0; module i lives at
     *        first_node + i and the G-arbiter at first_node + count.
     * @param count Number of arbiter modules (address ranges).
     */
    DistributedArbiter(EventQueue &eq, Network &net, NodeId first_node,
                       unsigned count, Tick processing, bool rsig_opt);

    void requestCommit(ProcId p, std::uint64_t txn, std::uint64_t seq,
                       SigPtr w) override;

    void commitDone(const Signature &w) override;

    std::uint64_t fingerprint() const override;

    /** Commits that involved a single arbiter module. */
    std::uint64_t singleRangeCommits() const { return nSingle; }

    /** Commits that required the G-arbiter. */
    std::uint64_t multiRangeCommits() const { return nMulti; }

  private:
    /** A multi-range request at the G-arbiter, from the fan-out to the
     *  combined decision (Figure 8(b)). */
    struct VoteRecord
    {
        SigPtr w;
        SigPtr r;
        unsigned pending = 0; //!< module votes still to come
        bool ok = true;
        bool wasOwner = false;
        std::vector<unsigned> reserved; //!< modules that listed W
    };

    using VoteKey = std::pair<ProcId, std::uint64_t>; //!< (proc, txn)

    unsigned rangeOf(LineAddr line) const;

    /** Ranges touched by a signature's (exact) line set. */
    std::vector<unsigned> rangesOf(const Signature &s) const;

    /** The sorted ranges a request involves (W's and R's; range 0 if
     *  none); W's own ranges go to @p w_ranges. */
    std::vector<unsigned> routeOf(const Signature &w, const SigPtr &r,
                                  std::vector<unsigned> &w_ranges) const;

    /** Module @p m votes on the G-arbiter's record (p, txn). */
    void moduleVote(VoteKey key, unsigned m, bool w_here);

    NodeId firstNode;
    NodeId gNode; //!< the G-arbiter
    Tick processing;
    bool rsigOpt;

    /** The W list of each module. */
    std::vector<std::vector<SigPtr>> moduleW;
    std::vector<SigPtr> gList;
    std::map<VoteKey, VoteRecord> votes;

    std::uint64_t nSingle = 0;
    std::uint64_t nMulti = 0;
};

} // namespace bulksc

#endif // BULKSC_CORE_DISTRIBUTED_ARBITER_HH
