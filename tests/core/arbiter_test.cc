/**
 * @file
 * Unit tests for the commit arbiter: grant/deny rules, W-list
 * lifetime, the RSig optimization, pre-arbitration, and statistics.
 * The decision-cache and accounting tests run against both the
 * central and the distributed arbiter, which share that machinery.
 */

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/arbiter.hh"
#include "core/distributed_arbiter.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

/**
 * A processor as an arbiter sees it: records the replies and
 * pre-arbitration grants it receives, and serves R signatures for the
 * chunks it knows (a chunk it does not know was squashed).
 */
struct FakeClient : public ArbiterClient
{
    std::vector<std::pair<std::uint64_t, bool>> replies; //!< (txn, ok)
    std::unordered_map<std::uint64_t, SigPtr> rOf;       //!< by seq
    unsigned preArbGrants = 0;

    std::function<void(std::uint64_t, bool)> onReply; //!< optional

    void
    arbReply(std::uint64_t txn, bool ok) override
    {
        replies.emplace_back(txn, ok);
        if (onReply)
            onReply(txn, ok);
    }

    SigPtr
    chunkR(std::uint64_t seq) override
    {
        auto it = rOf.find(seq);
        return it == rOf.end() ? nullptr : it->second;
    }

    void preArbGranted() override { ++preArbGrants; }

    /** Replies received for @p txn. */
    unsigned
    count(std::uint64_t txn) const
    {
        unsigned n = 0;
        for (const auto &r : replies)
            n += r.first == txn;
        return n;
    }

    /** The latest reply for @p txn (false if none). */
    bool
    granted(std::uint64_t txn) const
    {
        bool ok = false;
        for (const auto &r : replies) {
            if (r.first == txn)
                ok = r.second;
        }
        return ok;
    }
};

constexpr ProcId kProcs = 4;

SigPtr
sig(std::initializer_list<LineAddr> lines)
{
    auto s = std::make_shared<Signature>();
    for (LineAddr l : lines)
        s->insert(l);
    return s;
}

struct Harness
{
    Harness(bool rsig = true, unsigned max_commits = 8)
        : net(eq, NetworkConfig{}),
          arb(eq, net, 9, /*processing=*/5, rsig, max_commits)
    {
        for (ProcId p = 0; p < kProcs; ++p)
            arb.setClient(p, &clients[p]);
    }

    /** Send @p p's next request (its chunk's R is @p r; null = the
     *  chunk is squashed) without running; @return its txn. */
    std::uint64_t
    send(ProcId p, SigPtr r, SigPtr w)
    {
        std::uint64_t t = ++txn;
        if (r)
            clients[p].rOf[t] = std::move(r);
        arb.requestCommit(p, t, /*seq=*/t, std::move(w));
        return t;
    }

    /** Request and run to completion; returns the decision. */
    bool
    request(ProcId p, SigPtr r, SigPtr w)
    {
        std::uint64_t t = send(p, std::move(r), std::move(w));
        eq.run();
        EXPECT_GE(clients[p].count(t), 1u); // replied
        return clients[p].granted(t);
    }

    EventQueue eq;
    Network net;
    Arbiter arb;
    FakeClient clients[kProcs];
    std::uint64_t txn = 0; //!< fresh transaction id per request
};

TEST(Arbiter, GrantsWhenListEmpty)
{
    Harness h;
    EXPECT_TRUE(h.request(0, sig({}), sig({1, 2})));
    EXPECT_EQ(h.arb.stats().grants, 1u);
    EXPECT_EQ(h.arb.pendingW(), 1u);
}

TEST(Arbiter, EmptyWNotAddedToList)
{
    Harness h;
    EXPECT_TRUE(h.request(0, sig({}), sig({})));
    EXPECT_EQ(h.arb.pendingW(), 0u);
    EXPECT_EQ(h.arb.stats().emptyWCommits, 1u);
}

TEST(Arbiter, DeniesOnWWCollision)
{
    Harness h;
    ASSERT_TRUE(h.request(0, sig({}), sig({100})));
    EXPECT_FALSE(h.request(1, sig({50}), sig({100})));
    EXPECT_EQ(h.arb.stats().denials, 1u);
}

TEST(Arbiter, DeniesOnRWCollision)
{
    // The corner case of Figure 4(b): a chunk whose R overlaps a
    // committing W must be denied.
    Harness h;
    ASSERT_TRUE(h.request(0, sig({}), sig({100})));
    EXPECT_FALSE(h.request(1, sig({100}), sig({200})));
}

TEST(Arbiter, GrantsDisjointConcurrentCommits)
{
    Harness h;
    EXPECT_TRUE(h.request(0, sig({}), sig({100})));
    EXPECT_TRUE(h.request(1, sig({300}), sig({200})));
    EXPECT_EQ(h.arb.pendingW(), 2u);
}

TEST(Arbiter, CommitDoneReleasesW)
{
    Harness h;
    auto w = sig({100});
    ASSERT_TRUE(h.request(0, sig({}), w));
    EXPECT_FALSE(h.request(1, sig({100}), sig({})));
    h.arb.commitDone(*w);
    EXPECT_EQ(h.arb.pendingW(), 0u);
    EXPECT_TRUE(h.request(1, sig({100}), sig({})));
}

TEST(Arbiter, MaxSimultaneousCommitsEnforced)
{
    Harness h(true, 2);
    EXPECT_TRUE(h.request(0, sig({}), sig({1 * 1000})));
    EXPECT_TRUE(h.request(1, sig({}), sig({2 * 1000})));
    EXPECT_FALSE(h.request(2, sig({}), sig({3 * 1000})));
}

TEST(Arbiter, RsigOnlyRequestedWhenListNonEmpty)
{
    Harness h;
    ASSERT_TRUE(h.request(0, sig({}), sig({})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);

    ASSERT_TRUE(h.request(1, sig({}), sig({100})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);

    // List now non-empty: the next request needs its R signature.
    ASSERT_TRUE(h.request(2, sig({500}), sig({600})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 1u);
}

TEST(Arbiter, RsigOffSendsRUpfront)
{
    Harness h(false);
    ASSERT_TRUE(h.request(0, sig({10}), sig({20})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);
    EXPECT_GT(h.net.bitsSent(TrafficClass::RdSig), 0u);
}

TEST(Arbiter, RsigOptimizationSavesRTraffic)
{
    Harness with(true), without(false);
    // Single commit with an empty arbiter list.
    with.request(0, sig({1, 2, 3}), sig({10}));
    without.request(0, sig({1, 2, 3}), sig({10}));
    EXPECT_EQ(with.net.bitsSent(TrafficClass::RdSig), 0u);
    EXPECT_GT(without.net.bitsSent(TrafficClass::RdSig), 0u);
}

TEST(Arbiter, SquashedChunkDeniedViaNullR)
{
    Harness h;
    ASSERT_TRUE(h.request(0, sig({}), sig({100})));
    // Second requester's chunk vanished before R could be supplied.
    EXPECT_FALSE(h.request(1, nullptr, sig({200})));
}

TEST(Arbiter, PreArbitrationBlocksOthers)
{
    Harness h;
    h.arb.preArbitrate(2);
    h.eq.run();
    ASSERT_EQ(h.clients[2].preArbGrants, 1u);

    // Others are denied while the reservation holds...
    EXPECT_FALSE(h.request(0, sig({}), sig({1})));
    // ...the owner's request is processed and releases the arbiter...
    EXPECT_TRUE(h.request(2, sig({}), sig({})));
    // ...after which normal operation resumes.
    EXPECT_TRUE(h.request(0, sig({}), sig({1})));
    EXPECT_EQ(h.arb.stats().preArbitrations, 1u);
}

TEST(Arbiter, RacingRequestsCheckedAtomically)
{
    // Regression test: two requests in flight simultaneously, where
    // the second's R collides with the first's W. A non-atomic
    // implementation that decided "no R needed" at arrival (while the
    // list was still empty) would grant both — an SC hole (this is
    // exactly how the store-buffering litmus can break).
    Harness h;
    std::uint64_t a = h.send(0, sig({300}), sig({100}));
    std::uint64_t b = h.send(1, sig({100}), sig({200})); // R hits A's W
    h.eq.run();
    EXPECT_TRUE(h.clients[0].granted(a));
    EXPECT_FALSE(h.clients[1].granted(b));
}

TEST(Arbiter, RacingDisjointRequestsBothGranted)
{
    Harness h;
    std::uint64_t a = h.send(0, sig({101}), sig({100}));
    std::uint64_t b = h.send(1, sig({201}), sig({200}));
    h.eq.run();
    EXPECT_TRUE(h.clients[0].granted(a));
    EXPECT_TRUE(h.clients[1].granted(b));
}

/** Which ArbiterCore implementation a shared-core test drives. */
enum class ArbKind
{
    Central,
    Distributed,
};

void
PrintTo(ArbKind k, std::ostream *os)
{
    *os << (k == ArbKind::Central ? "Central" : "Distributed");
}

class SharedCore : public ::testing::TestWithParam<ArbKind>
{
  protected:
    SharedCore() : net(eq, NetworkConfig{})
    {
        if (GetParam() == ArbKind::Central) {
            arb = std::make_unique<Arbiter>(eq, net, 9, /*processing=*/5,
                                            /*rsig=*/true);
        } else {
            arb = std::make_unique<DistributedArbiter>(
                eq, net, 16, /*modules=*/4, /*processing=*/5,
                /*rsig=*/true);
        }
        for (ProcId p = 0; p < kProcs; ++p) {
            arb->setClient(p, &clients[p]);
            clients[p].rOf[0] = sig({});
        }
    }

    /** Send @p p's request @p txn (of chunk 0, whose R is empty). */
    void
    send(ProcId p, std::uint64_t txn, SigPtr w)
    {
        arb->requestCommit(p, txn, /*seq=*/0, std::move(w));
    }

    EventQueue eq;
    Network net;
    std::unique_ptr<ArbiterCore> arb;
    FakeClient clients[kProcs];
};

TEST_P(SharedCore, DuplicateRequestAnsweredFromDecisionCache)
{
    // A retransmitted request (same proc, same txn) must be answered
    // from the cached decision, never re-decided: a granted W is
    // already in the list and would collide with itself.
    auto w = sig({100});
    send(0, 1, w);
    eq.run();
    ASSERT_TRUE(clients[0].granted(1));
    ASSERT_EQ(arb->pendingW(), 1u);

    send(0, 1, w);
    eq.run();
    EXPECT_EQ(clients[0].count(1), 2u);
    EXPECT_TRUE(clients[0].granted(1)); // cached grant, not a collision
    EXPECT_EQ(arb->stats().dupRequests, 1u);
    EXPECT_EQ(arb->pendingW(), 1u); // W not inserted twice
    EXPECT_EQ(arb->stats().grants, 1u);
}

TEST_P(SharedCore, DuplicateOfDenialResendsDenial)
{
    send(0, 1, sig({100}));
    eq.run();
    ASSERT_TRUE(clients[0].granted(1));
    auto deny_w = sig({100});
    send(1, 5, deny_w);
    eq.run();
    ASSERT_EQ(clients[1].count(5), 1u);
    ASSERT_FALSE(clients[1].granted(5));
    // Retransmission of the denied txn: cached denial comes back.
    send(1, 5, deny_w);
    eq.run();
    EXPECT_EQ(clients[1].count(5), 2u);
    EXPECT_FALSE(clients[1].granted(5));
    EXPECT_EQ(arb->stats().denials, 1u); // decided exactly once
}

TEST_P(SharedCore, DuplicateInFlightIsDecidedOnce)
{
    // Both copies of a duplicated request are on the wire together
    // (net.dup): the second is swallowed at delivery while the first
    // is being decided, so exactly one decision and one reply result.
    auto w = sig({100});
    send(0, 1, w);
    send(0, 1, w);
    eq.run();
    EXPECT_TRUE(clients[0].granted(1));
    EXPECT_EQ(clients[0].count(1), 1u);
    EXPECT_EQ(arb->stats().requests, 1u);
    EXPECT_EQ(arb->stats().grants, 1u);
    EXPECT_EQ(arb->stats().dupRequests, 1u);
    EXPECT_EQ(arb->pendingW(), 1u);
}

TEST_P(SharedCore, TimeWeightedStats)
{
    auto w = sig({100});
    send(0, 1, w);
    eq.run();
    ASSERT_TRUE(clients[0].granted(1));
    // Advance time with the W pending.
    eq.schedule(eq.now() + 1000, [] {});
    eq.run();
    arb->commitDone(*w);
    EXPECT_EQ(arb->pendingW(), 0u);
    const ArbiterStats &s = arb->stats();
    Tick total = eq.now();
    EXPECT_GT(s.avgPendingW(total), 0.0);
    EXPECT_GT(s.nonEmptyFrac(total), 0.0);
    EXPECT_LE(s.nonEmptyFrac(total), 1.0);
    EXPECT_EQ(s.occupancy.samples(), 1u);
    EXPECT_GE(s.occupancy.max(), 1000.0);
}

TEST_P(SharedCore, PreArbitrationWaitsForDrain)
{
    auto w = sig({100});
    send(0, 1, w);
    eq.run();
    ASSERT_TRUE(clients[0].granted(1));
    arb->preArbitrate(1);
    eq.run();
    EXPECT_EQ(clients[1].preArbGrants, 0u); // a commit is in flight
    arb->commitDone(*w);
    eq.run();
    EXPECT_EQ(clients[1].preArbGrants, 1u);
}

TEST_P(SharedCore, DelayedDuplicatePastNextRequestIsNotRedecided)
{
    // A copy of txn 1 that the network held back arrives after txn 2
    // was decided and both commits completed. Deciding it again would
    // grant it (the list is empty) and list a W nobody releases.
    auto w1 = sig({100});
    auto w2 = sig({200});
    send(0, 1, w1);
    eq.run();
    ASSERT_TRUE(clients[0].granted(1));
    arb->commitDone(*w1);
    send(0, 2, w2);
    eq.run();
    ASSERT_TRUE(clients[0].granted(2));
    arb->commitDone(*w2);

    send(0, 1, w1);
    eq.run();
    EXPECT_EQ(clients[0].count(1), 2u);
    EXPECT_TRUE(clients[0].granted(1)); // the cached decision
    EXPECT_EQ(arb->stats().requests, 2u);
    EXPECT_EQ(arb->stats().grants, 2u);
    EXPECT_EQ(arb->stats().dupRequests, 1u);
    EXPECT_EQ(arb->pendingW(), 0u);
}

TEST_P(SharedCore, ReorderedFirstCopiesAreDecided)
{
    // Txn 2 overtakes txn 1 (a delayed, not duplicated, request):
    // both are first copies inside the window and are decided.
    send(0, 2, sig({200}));
    eq.run();
    send(0, 1, sig({100}));
    eq.run();
    EXPECT_TRUE(clients[0].granted(1));
    EXPECT_TRUE(clients[0].granted(2));
    EXPECT_EQ(arb->stats().requests, 2u);
    EXPECT_EQ(arb->stats().dupRequests, 0u);
}

TEST_P(SharedCore, CopyOlderThanTheWindowIsDenied)
{
    // Empty-W grants list nothing, so any number can be in flight.
    constexpr std::uint64_t kTxns = 100;
    for (std::uint64_t t = 1; t <= kTxns; ++t)
        send(0, t, sig({}));
    eq.run();
    ASSERT_TRUE(clients[0].granted(1));
    send(0, 1, sig({}));
    eq.run();
    EXPECT_EQ(clients[0].count(1), 2u);
    EXPECT_FALSE(clients[0].granted(1));
    EXPECT_EQ(arb->stats().requests, kTxns);
    EXPECT_EQ(arb->stats().grants, kTxns);
}

TEST_P(SharedCore, SeededDelayedDuplicatesAreDecidedOnce)
{
    // Each processor commits a run of transactions one at a time, and
    // one request per processor is duplicated, its copy delivered
    // only after the processor's next request. Every transaction is
    // decided exactly once and every granted W is released.
    constexpr unsigned kTxnsPerProc = 8;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        EventQueue q;
        Network n(q, NetworkConfig{});
        std::unique_ptr<ArbiterCore> a;
        if (GetParam() == ArbKind::Central)
            a = std::make_unique<Arbiter>(q, n, 9, 5, true);
        else
            a = std::make_unique<DistributedArbiter>(q, n, 16, 4, 5, true);
        FakeClient fc[kProcs];
        Rng rng(seed);
        std::vector<SigPtr> ws[kProcs];
        unsigned dups = 0;
        for (ProcId p = 0; p < kProcs; ++p) {
            a->setClient(p, &fc[p]);
            fc[p].rOf[0] = sig({});
            std::uint64_t dup_txn = 1 + rng.below(kTxnsPerProc - 1);
            for (std::uint64_t t = 1; t <= kTxnsPerProc; ++t) {
                // Lines from a small pool (some collide) in ranges
                // 0 and 1 (single- and multi-range requests).
                SigPtr w = sig({rng.below(6) * 512, rng.below(6) * 512});
                ws[p].push_back(w);
                Tick at = t * 400 + rng.below(50);
                q.schedule(at, [&a, p, t, w] {
                    a->requestCommit(p, t, 0, w);
                });
                if (t == dup_txn) {
                    ++dups;
                    q.schedule(at + 400 + rng.below(300), [&a, p, t, w] {
                        a->requestCommit(p, t, 0, w);
                    });
                }
            }
        }
        // A granted W's commit completes a while after the grant.
        for (ProcId p = 0; p < kProcs; ++p) {
            fc[p].onReply = [&, p](std::uint64_t t, bool ok) {
                if (ok && fc[p].count(t) == 1) {
                    SigPtr w = ws[p][t - 1];
                    q.scheduleAfter(20 + rng.below(100),
                                    [&a, w] { a->commitDone(*w); });
                }
            };
        }
        q.run();
        const ArbiterStats &st = a->stats();
        EXPECT_EQ(st.requests, kProcs * kTxnsPerProc) << "seed " << seed;
        EXPECT_EQ(st.grants + st.denials, st.requests) << "seed " << seed;
        EXPECT_EQ(st.dupRequests, dups) << "seed " << seed;
        EXPECT_EQ(a->pendingW(), 0u) << "seed " << seed;
        for (ProcId p = 0; p < kProcs; ++p) {
            for (std::uint64_t t = 1; t <= kTxnsPerProc; ++t)
                EXPECT_GE(fc[p].count(t), 1u) << "seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Arbiters, SharedCore,
    ::testing::Values(ArbKind::Central, ArbKind::Distributed),
    ::testing::PrintToStringParamName());

} // namespace
} // namespace bulksc
