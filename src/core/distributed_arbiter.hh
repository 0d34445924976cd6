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

#include <memory>
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

    void requestCommit(ProcId p, std::uint64_t txn,
                       std::shared_ptr<Signature> w,
                       RProvider r_provider, Reply reply) override;

    void commitDone(const std::shared_ptr<Signature> &w) override;

    std::uint64_t fingerprint() const override;

    /** Commits that involved a single arbiter module. */
    std::uint64_t singleRangeCommits() const { return nSingle; }

    /** Commits that required the G-arbiter. */
    std::uint64_t multiRangeCommits() const { return nMulti; }

  private:
    struct Module
    {
        std::vector<std::shared_ptr<Signature>> wList;
    };

    unsigned rangeOf(LineAddr line) const;

    /** Ranges touched by a signature's (exact) line set. */
    std::vector<unsigned> rangesOf(const Signature &s) const;

    bool moduleCollides(unsigned m, const Signature &s) const;

    void removeFrom(std::vector<std::shared_ptr<Signature>> &list,
                    const std::shared_ptr<Signature> &w);

    NodeId firstNode;
    Tick processing;
    bool rsigOpt;

    std::vector<Module> modules;
    std::vector<std::shared_ptr<Signature>> gList;

    std::uint64_t nSingle = 0;
    std::uint64_t nMulti = 0;
};

} // namespace bulksc

#endif // BULKSC_CORE_DISTRIBUTED_ARBITER_HH
