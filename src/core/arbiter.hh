/**
 * @file
 * The commit arbiter (Section 4.2): a simple state machine enforcing
 * the minimum serialization requirements of chunk commit.
 *
 * The arbiter stores the W signatures of all currently-committing
 * chunks. A permission-to-commit request is granted iff every stored W
 * has an empty intersection with the incoming (R, W) pair; the granted
 * W (if non-empty) joins the list until the commit's acknowledgements
 * arrive (commitDone).
 *
 * The RSig commit-bandwidth optimization (Section 4.2.2) is modelled
 * faithfully: requests carry only W; when the arbiter's list is
 * non-empty it fetches R from the processor with an extra round trip.
 *
 * Pre-arbitration (Section 3.3) provides the forward-progress
 * guarantee: a repeatedly squashed processor reserves the arbiter,
 * which then rejects commit requests from all other processors until
 * the reserving processor's next commit request is processed.
 */

#ifndef BULKSC_CORE_ARBITER_HH
#define BULKSC_CORE_ARBITER_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "network/network.hh"
#include "signature/signature.hh"
#include "sim/event_queue.hh"
#include "sim/fault_plane.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bulksc {

/** Aggregate arbiter statistics (Table 4 columns). */
struct ArbiterStats
{
    std::uint64_t requests = 0;
    std::uint64_t grants = 0;
    std::uint64_t denials = 0;
    std::uint64_t emptyWCommits = 0; //!< grants whose W was empty
    std::uint64_t rsigRequired = 0;  //!< requests needing the R sig
    std::uint64_t preArbitrations = 0;
    std::uint64_t abortedGrants = 0; //!< grants to already-squashed chunks

    /** Colliding requests granted anyway by the fault-injection knob
     *  (negative testing of the SC checkers; 0 in normal operation). */
    std::uint64_t faultInjectedGrants = 0;

    /** Duplicate or retransmitted requests absorbed by the dedup
     *  cache (decided ones get their cached decision re-sent). */
    std::uint64_t dupRequests = 0;

    /** Requests lost to fault injection before reaching the arbiter. */
    std::uint64_t lostRequests = 0;

    /** Decision replies lost to fault injection. */
    std::uint64_t lostReplies = 0;

    /** Time integral of the W-list size (for avg pending W sigs). */
    double pendingIntegral = 0.0;

    /** Ticks during which the W list was non-empty. */
    Tick nonEmptyTicks = 0;

    /** W-list residency of each committed W (grant to commitDone). */
    Histogram occupancy;

    double
    avgPendingW(Tick total) const
    {
        return total ? pendingIntegral / static_cast<double>(total) : 0;
    }

    double
    nonEmptyFrac(Tick total) const
    {
        return total ? static_cast<double>(nonEmptyTicks) /
                           static_cast<double>(total)
                     : 0;
    }
};

/** Supplies a chunk's R signature on demand (RSig optimization). */
using RProvider = std::function<std::shared_ptr<Signature>()>;

/** Interface shared by the central and distributed arbiters. */
class ArbiterIface
{
  public:
    virtual ~ArbiterIface() = default;

    /**
     * Request permission to commit.
     *
     * @param p Requesting processor.
     * @param txn Per-processor transaction number. Retransmissions of
     *        the same request reuse the number so the arbiter can
     *        deduplicate them idempotently: a duplicate of a decided
     *        transaction re-sends the cached decision instead of
     *        deciding twice.
     * @param w The chunk's W signature (kept by the arbiter on grant).
     * @param r_provider Called if the R signature is needed.
     * @param reply Receives the decision at the processor (may be
     *        invoked more than once under reply duplication; callers
     *        must ignore repeats).
     */
    virtual void requestCommit(ProcId p, std::uint64_t txn,
                               std::shared_ptr<Signature> w,
                               RProvider r_provider,
                               std::function<void(bool)> reply) = 0;

    /** All directories acknowledged the commit of @p w: drop it. */
    virtual void commitDone(const std::shared_ptr<Signature> &w) = 0;

    /** Reserve the arbiter for @p p (forward-progress measure). */
    virtual void preArbitrate(ProcId p,
                              std::function<void()> granted) = 0;

    virtual const ArbiterStats &stats() const = 0;

    /** Digest of the arbiter's protocol state (W list, decision
     *  cache, pre-arbitration) for explorer revisit pruning. */
    virtual std::uint64_t fingerprint() const { return 0; }
};

/**
 * The commit-protocol machinery both arbiters share. The central and
 * distributed arbiters apply one decision rule (grant iff the incoming
 * R/W signatures miss every W in flight) and differ only in where the
 * W lists live; everything around that rule lives here once:
 *
 *  - the per-processor decision cache that makes retransmitted
 *    requests idempotent;
 *  - the request and decision-reply edges, with request loss, grant
 *    loss and duplication injected by Network::sendLossy();
 *  - the pre-arbitration owner and queue (Section 3.3), activated
 *    once no accepted non-empty W is in flight;
 *  - W-residency accounting: the pending-W integral, non-empty ticks
 *    and the occupancy histogram of ArbiterStats.
 */
class ArbiterCore : public SimObject, public ArbiterIface
{
  public:
    void preArbitrate(ProcId p, std::function<void()> granted) override;

    const ArbiterStats &stats() const override { return stats_; }

    /** Accepted non-empty W signatures in flight. */
    std::size_t pendingW() const { return wInsertTick.size(); }

  protected:
    using Reply = std::function<void(bool)>;

    /**
     * @param base Network node of arbiter module 0; trace tracks are
     *        numbered from it.
     * @param home Node that answers duplicates and grants
     *        pre-arbitration.
     */
    ArbiterCore(EventQueue &eq, const std::string &name, Network &net,
                NodeId base, NodeId home);

    /**
     * Send processor @p p's commit request to arbiter node @p to. The
     * request can be lost (arb.req_loss) or duplicated (net.dup); a
     * lost request is never duplicated.
     */
    template <typename F>
    void
    sendRequest(ProcId p, NodeId to, unsigned bits, std::uint64_t txn,
                const F &deliver, const MsgFootprint &fp)
    {
        if (net.sendLossy(p, to, TrafficClass::WrSig, bits,
                          FaultKind::ArbReqLoss, false, deliver, fp)) {
            requestLost(to, txn);
        }
    }

    /**
     * Idempotence filter at request delivery. @return true iff the
     * message is a duplicate and was fully handled here: swallowed
     * while its decision is still in flight, or answered from the
     * decision cache (never decided twice: a granted W is already
     * listed and would collide with itself).
     */
    bool dedupRequest(ProcId p, std::uint64_t txn, const Reply &reply,
                      const std::shared_ptr<Signature> &w);

    /**
     * Count and trace the decision for @p p's current transaction,
     * cache it, and send the reply from node @p from. @p w is the
     * decided chunk's W signature; it rides along as the reply's
     * footprint so the schedule explorer can commute replies to
     * different processors.
     */
    void conclude(ProcId p, bool ok, const Reply &reply, NodeId from,
                  std::shared_ptr<Signature> w);

    /** Pre-arbitration reserves the arbiter for someone other than
     *  @p p, whose request must be denied. */
    bool
    preArbBlocks(ProcId p) const
    {
        return preArbOwner != kNoOwner && preArbOwner != p;
    }

    bool preArbOwnedBy(ProcId p) const { return preArbOwner == p; }

    /** The owner's request was processed: lift the reservation. */
    void releasePreArb() { preArbOwner = kNoOwner; }

    /** Hand the arbiter to the next queued pre-arbitration request if
     *  no accepted non-empty W is in flight. */
    void tryActivatePreArb();

    /** A granted non-empty W entered the arbiter. */
    void wAccepted(const std::shared_ptr<Signature> &w);

    /** @p w (accepted earlier or not) left the arbiter. */
    void wReleased(const std::shared_ptr<Signature> &w);

    /** Fold the shared protocol state (decision cache and
     *  pre-arbitration) into the arbiter's list digest @p h. */
    std::uint64_t fingerprintCore(std::uint64_t h) const;

    Network &net;
    ArbiterStats stats_;

  private:
    static constexpr ProcId kNoOwner = ~ProcId{0};

    void requestLost(NodeId to, std::uint64_t txn);

    void sendReply(ProcId p, bool ok, const Reply &reply, NodeId from,
                   std::shared_ptr<Signature> w, std::uint64_t txn);

    void touchStats();

    NodeId base;
    NodeId home;

    /** Decision cache: the latest transaction seen per processor. */
    struct TxnRecord
    {
        std::uint64_t txn = ~std::uint64_t{0};
        bool decided = false;
        bool ok = false;
    };
    std::unordered_map<ProcId, TxnRecord> txns;

    ProcId preArbOwner = kNoOwner;
    std::deque<std::pair<ProcId, std::function<void()>>> preArbQueue;

    /** Tick each accepted non-empty W entered the arbiter. */
    std::unordered_map<const Signature *, Tick> wInsertTick;
    Tick lastTouch = 0;
};

/**
 * The single (or combined-with-directory) arbiter of Section 4.2.1:
 * one W list, the RSig fetch round trip, and a cap on simultaneously
 * committing chunks.
 */
class Arbiter : public ArbiterCore
{
  public:
    /**
     * @param node Network node id of the arbiter.
     * @param processing Signature-check latency (the paper's 30-cycle
     *        commit arbitration latency minus the network hops).
     * @param rsig_opt Enable the RSig bandwidth optimization.
     * @param max_commits Maximum simultaneously-committing chunks.
     */
    Arbiter(EventQueue &eq, Network &net, NodeId node, Tick processing,
            bool rsig_opt, unsigned max_commits = 8);

    /**
     * Attach the fault plane for arb.skip_collision, which grants
     * every Nth colliding request, deliberately breaking chunk
     * disambiguation so the analysis subsystem has SC violations to
     * catch. Message loss and duplication come from the network.
     */
    void setFaultPlane(FaultPlane *fp) { faults = fp; }

    void requestCommit(ProcId p, std::uint64_t txn,
                       std::shared_ptr<Signature> w,
                       RProvider r_provider, Reply reply) override;

    void commitDone(const std::shared_ptr<Signature> &w) override;

    std::uint64_t fingerprint() const override;

  private:
    void decide(ProcId p, const std::shared_ptr<Signature> &w,
                std::shared_ptr<Signature> r, RProvider r_provider,
                Reply reply);

    /** True iff some listed W intersects @p s. */
    bool collides(const Signature &s) const;

    NodeId node;
    Tick processing;
    bool rsigOpt;
    unsigned maxCommits;
    FaultPlane *faults = nullptr;

    std::vector<std::shared_ptr<Signature>> wList;
};

} // namespace bulksc

#endif // BULKSC_CORE_ARBITER_HH
