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
     *  cache (decided ones get their cached decision re-sent; copies
     *  older than the cache's window are denied). */
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

/**
 * What an arbiter needs from a committing processor: where decisions,
 * R-signature fetches and pre-arbitration grants land. A processor
 * registers itself with ArbiterCore::setClient, as it registers its
 * CacheListener with MemorySystem::setListener.
 */
class ArbiterClient
{
  public:
    virtual ~ArbiterClient() = default;

    /** The decision for transaction @p txn arrived. A duplicated reply
     *  (net.dup, or one per retransmission of a decided transaction)
     *  arrives again; only the first may act. */
    virtual void arbReply(std::uint64_t txn, bool ok) = 0;

    /** A snapshot of chunk @p seq's R signature (the RSig fetch of
     *  Section 4.2.2), or null if the chunk was squashed. */
    virtual SigPtr chunkR(std::uint64_t seq) = 0;

    /** This processor now holds the pre-arbitration reservation. */
    virtual void preArbGranted() = 0;
};

/**
 * The commit protocol both arbiters share. The central and distributed
 * arbiters apply one decision rule (grant iff the incoming R/W
 * signatures miss every W in flight) and differ only in where the W
 * lists live; everything around that rule lives here once:
 *
 *  - the per-processor decision cache that makes retransmitted
 *    requests idempotent;
 *  - the request and decision-reply edges, with request loss, grant
 *    loss and duplication injected by Network::sendLossy();
 *  - the pre-arbitration owner and queue (Section 3.3), activated
 *    once no accepted non-empty W is in flight;
 *  - W-residency accounting: the pending-W integral, non-empty ticks
 *    and the occupancy histogram of ArbiterStats.
 *
 * Every in-flight step is a message naming its (processor, txn); the
 * events carry only ids, scalars and immutable signatures.
 */
class ArbiterCore : public SimObject
{
  public:
    /** Register @p c as processor @p p's client. */
    void setClient(ProcId p, ArbiterClient *c);

    /**
     * Request permission to commit chunk @p seq of processor @p p.
     *
     * @param txn Per-processor transaction number, from 1 up.
     *        Retransmissions of the same request reuse the number so
     *        the arbiter can deduplicate them idempotently: a duplicate
     *        of a decided transaction re-sends the cached decision
     *        instead of deciding twice.
     * @param w The chunk's W signature (kept by the arbiter on grant
     *        until commitDone names it).
     *
     * The decision arrives at the client's arbReply(txn, ok); the R
     * signature, when needed, comes from its chunkR(seq).
     */
    virtual void requestCommit(ProcId p, std::uint64_t txn,
                               std::uint64_t seq, SigPtr w) = 0;

    /** All directories acknowledged the commit of @p w: drop it. */
    virtual void commitDone(const Signature &w) = 0;

    /** Reserve the arbiter for @p p (forward-progress measure); the
     *  client's preArbGranted() fires when the reservation is p's. */
    void preArbitrate(ProcId p);

    const ArbiterStats &stats() const { return stats_; }

    /** Accepted non-empty W signatures in flight. */
    std::size_t pendingW() const { return wInsertTick.size(); }

    /** Digest of the arbiter's protocol state (W lists, decision
     *  cache, pre-arbitration) for explorer revisit pruning. */
    virtual std::uint64_t fingerprint() const = 0;

  protected:
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
    bool dedupRequest(ProcId p, std::uint64_t txn, const SigPtr &w);

    /**
     * Count and trace the decision on @p p's transaction @p txn,
     * cache it, and send the reply from node @p from. @p w is the
     * decided chunk's W signature; it rides along as the reply's
     * footprint so the schedule explorer can commute replies to
     * different processors.
     */
    void conclude(ProcId p, std::uint64_t txn, bool ok, NodeId from,
                  SigPtr w);

    /** Processor @p p's client (the R fetch of the central arbiter). */
    ArbiterClient &client(ProcId p) const { return *clients.at(p); }

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
    void wAccepted(const Signature &w);

    /** @p w (accepted earlier or not) left the arbiter. */
    void wReleased(const Signature &w);

    /** Fold the shared protocol state (decision cache and
     *  pre-arbitration) into the arbiter's list digest @p h. */
    std::uint64_t fingerprintCore(std::uint64_t h) const;

    Network &net;
    ArbiterStats stats_;

  private:
    static constexpr ProcId kNoOwner = ~ProcId{0};

    void requestLost(NodeId to, std::uint64_t txn);

    void sendReply(ProcId p, std::uint64_t txn, bool ok, NodeId from,
                   SigPtr w);

    void touchStats();

    NodeId base;
    NodeId home;

    std::vector<ArbiterClient *> clients;

    /** Transactions a processor's decision cache remembers: a copy of
     *  one of its last kTxnWindow ids gets the cached decision, a copy
     *  of an older id is denied. */
    static constexpr std::uint64_t kTxnWindow = 64;

    struct TxnRecord
    {
        std::uint64_t txn = 0; //!< 0 = empty (ids start at 1)
        bool decided = false;
        bool ok = false;
    };

    /** One processor's decision cache: txn lives in slot
     *  txn % kTxnWindow while it is inside the window. The slots are
     *  allocated at the processor's first request, so building a
     *  System stays cheap. */
    struct TxnWindow
    {
        std::uint64_t newest = 0;
        std::vector<TxnRecord> slots;
    };
    std::vector<TxnWindow> txns; //!< by processor

    ProcId preArbOwner = kNoOwner;
    std::deque<ProcId> preArbQueue;

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

    void requestCommit(ProcId p, std::uint64_t txn, std::uint64_t seq,
                       SigPtr w) override;

    void commitDone(const Signature &w) override;

    std::uint64_t fingerprint() const override;

  private:
    /** Decide @p p's transaction @p txn after the processing delay;
     *  a null @p r under a non-empty list fetches R first. */
    void decide(ProcId p, std::uint64_t txn, std::uint64_t seq, SigPtr w,
                SigPtr r);

    NodeId node;
    Tick processing;
    bool rsigOpt;
    unsigned maxCommits;
    FaultPlane *faults = nullptr;

    std::vector<SigPtr> wList;
};

} // namespace bulksc

#endif // BULKSC_CORE_ARBITER_HH
