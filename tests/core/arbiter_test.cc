/**
 * @file
 * Unit tests for the commit arbiter: grant/deny rules, W-list
 * lifetime, the RSig optimization, pre-arbitration, and statistics.
 * The decision-cache and accounting tests run against both the
 * central and the distributed arbiter, which share that machinery.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "core/arbiter.hh"
#include "core/distributed_arbiter.hh"

namespace bulksc {
namespace {

struct Harness
{
    Harness(bool rsig = true, unsigned max_commits = 8)
        : net(eq, NetworkConfig{}),
          arb(eq, net, 9, /*processing=*/5, rsig, max_commits)
    {}

    std::shared_ptr<Signature>
    sig(std::initializer_list<LineAddr> lines)
    {
        auto s = std::make_shared<Signature>();
        for (LineAddr l : lines)
            s->insert(l);
        return s;
    }

    /** Request and run to completion; returns the decision. */
    bool
    request(ProcId p, std::shared_ptr<Signature> r,
            std::shared_ptr<Signature> w)
    {
        bool granted = false;
        bool replied = false;
        arb.requestCommit(
            p, ++txn, std::move(w), [r] { return r; },
            [&](bool ok) {
                granted = ok;
                replied = true;
            });
        eq.run();
        EXPECT_TRUE(replied);
        return granted;
    }

    EventQueue eq;
    Network net;
    Arbiter arb;
    std::uint64_t txn = 0; //!< fresh transaction id per request
};

TEST(Arbiter, GrantsWhenListEmpty)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({1, 2})));
    EXPECT_EQ(h.arb.stats().grants, 1u);
    EXPECT_EQ(h.arb.pendingW(), 1u);
}

TEST(Arbiter, EmptyWNotAddedToList)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({})));
    EXPECT_EQ(h.arb.pendingW(), 0u);
    EXPECT_EQ(h.arb.stats().emptyWCommits, 1u);
}

TEST(Arbiter, DeniesOnWWCollision)
{
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    EXPECT_FALSE(h.request(1, h.sig({50}), h.sig({100})));
    EXPECT_EQ(h.arb.stats().denials, 1u);
}

TEST(Arbiter, DeniesOnRWCollision)
{
    // The corner case of Figure 4(b): a chunk whose R overlaps a
    // committing W must be denied.
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    EXPECT_FALSE(h.request(1, h.sig({100}), h.sig({200})));
}

TEST(Arbiter, GrantsDisjointConcurrentCommits)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    EXPECT_TRUE(h.request(1, h.sig({300}), h.sig({200})));
    EXPECT_EQ(h.arb.pendingW(), 2u);
}

TEST(Arbiter, CommitDoneReleasesW)
{
    Harness h;
    auto w = h.sig({100});
    ASSERT_TRUE(h.request(0, h.sig({}), w));
    EXPECT_FALSE(h.request(1, h.sig({100}), h.sig({})));
    h.arb.commitDone(w);
    EXPECT_EQ(h.arb.pendingW(), 0u);
    EXPECT_TRUE(h.request(1, h.sig({100}), h.sig({})));
}

TEST(Arbiter, MaxSimultaneousCommitsEnforced)
{
    Harness h(true, 2);
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({1 * 1000})));
    EXPECT_TRUE(h.request(1, h.sig({}), h.sig({2 * 1000})));
    EXPECT_FALSE(h.request(2, h.sig({}), h.sig({3 * 1000})));
}

TEST(Arbiter, RsigOnlyRequestedWhenListNonEmpty)
{
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);

    ASSERT_TRUE(h.request(1, h.sig({}), h.sig({100})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);

    // List now non-empty: the next request needs its R signature.
    ASSERT_TRUE(h.request(2, h.sig({500}), h.sig({600})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 1u);
}

TEST(Arbiter, RsigOffSendsRUpfront)
{
    Harness h(false);
    ASSERT_TRUE(h.request(0, h.sig({10}), h.sig({20})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);
    EXPECT_GT(h.net.bitsSent(TrafficClass::RdSig), 0u);
}

TEST(Arbiter, RsigOptimizationSavesRTraffic)
{
    Harness with(true), without(false);
    // Single commit with an empty arbiter list.
    with.request(0, with.sig({1, 2, 3}), with.sig({10}));
    without.request(0, without.sig({1, 2, 3}), without.sig({10}));
    EXPECT_EQ(with.net.bitsSent(TrafficClass::RdSig), 0u);
    EXPECT_GT(without.net.bitsSent(TrafficClass::RdSig), 0u);
}

TEST(Arbiter, SquashedChunkDeniedViaNullR)
{
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    // Second requester's chunk vanished before R could be supplied.
    bool granted = true;
    h.arb.requestCommit(
        1, ++h.txn, h.sig({200}),
        [] { return std::shared_ptr<Signature>(); },
        [&](bool ok) { granted = ok; });
    h.eq.run();
    EXPECT_FALSE(granted);
}

TEST(Arbiter, PreArbitrationBlocksOthers)
{
    Harness h;
    bool owner_granted = false;
    h.arb.preArbitrate(2, [&] { owner_granted = true; });
    h.eq.run();
    ASSERT_TRUE(owner_granted);

    // Others are denied while the reservation holds...
    EXPECT_FALSE(h.request(0, h.sig({}), h.sig({1})));
    // ...the owner's request is processed and releases the arbiter...
    EXPECT_TRUE(h.request(2, h.sig({}), h.sig({})));
    // ...after which normal operation resumes.
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({1})));
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
    bool a_granted = false, b_granted = false;
    auto wa = h.sig({100});
    auto wb = h.sig({200});
    auto rb = h.sig({100}); // collides with A's W
    h.arb.requestCommit(
        0, ++h.txn, wa, [&] { return h.sig({300}); },
        [&](bool ok) { a_granted = ok; });
    h.arb.requestCommit(
        1, ++h.txn, wb, [rb] { return rb; },
        [&](bool ok) { b_granted = ok; });
    h.eq.run();
    EXPECT_TRUE(a_granted);
    EXPECT_FALSE(b_granted);
}

TEST(Arbiter, RacingDisjointRequestsBothGranted)
{
    Harness h;
    bool a = false, b = false;
    h.arb.requestCommit(
        0, ++h.txn, h.sig({100}), [&] { return h.sig({101}); },
        [&](bool ok) { a = ok; });
    h.arb.requestCommit(
        1, ++h.txn, h.sig({200}), [&] { return h.sig({201}); },
        [&](bool ok) { b = ok; });
    h.eq.run();
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
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
    }

    std::shared_ptr<Signature>
    sig(std::initializer_list<LineAddr> lines)
    {
        auto s = std::make_shared<Signature>();
        for (LineAddr l : lines)
            s->insert(l);
        return s;
    }

    /** Send @p p's request @p txn; the reply lands in @p granted. */
    void
    send(ProcId p, std::uint64_t txn, std::shared_ptr<Signature> w,
         bool &granted, unsigned *replies = nullptr)
    {
        arb->requestCommit(
            p, txn, std::move(w), [this] { return sig({}); },
            [&granted, replies](bool ok) {
                granted = ok;
                if (replies)
                    ++*replies;
            });
    }

    EventQueue eq;
    Network net;
    std::unique_ptr<ArbiterCore> arb;
};

TEST_P(SharedCore, DuplicateRequestAnsweredFromDecisionCache)
{
    // A retransmitted request (same proc, same txn) must be answered
    // from the cached decision, never re-decided: a granted W is
    // already in the list and would collide with itself.
    auto w = sig({100});
    bool granted = false;
    send(0, 1, w, granted);
    eq.run();
    ASSERT_TRUE(granted);
    ASSERT_EQ(arb->pendingW(), 1u);

    bool re_granted = false;
    send(0, 1, w, re_granted);
    eq.run();
    EXPECT_TRUE(re_granted); // cached grant, not a self-collision
    EXPECT_EQ(arb->stats().dupRequests, 1u);
    EXPECT_EQ(arb->pendingW(), 1u); // W not inserted twice
    EXPECT_EQ(arb->stats().grants, 1u);
}

TEST_P(SharedCore, DuplicateOfDenialResendsDenial)
{
    bool first = false;
    send(0, 1, sig({100}), first);
    eq.run();
    ASSERT_TRUE(first);
    auto deny_w = sig({100});
    bool granted = true;
    send(1, 5, deny_w, granted);
    eq.run();
    ASSERT_FALSE(granted);
    // Retransmission of the denied txn: cached denial comes back.
    bool re_granted = true;
    unsigned replies = 0;
    send(1, 5, deny_w, re_granted, &replies);
    eq.run();
    EXPECT_EQ(replies, 1u);
    EXPECT_FALSE(re_granted);
    EXPECT_EQ(arb->stats().denials, 1u); // decided exactly once
}

TEST_P(SharedCore, DuplicateInFlightIsDecidedOnce)
{
    // Both copies of a duplicated request are on the wire together
    // (net.dup): the second is swallowed at delivery while the first
    // is being decided, so exactly one decision and one reply result.
    auto w = sig({100});
    bool granted = false;
    unsigned replies = 0;
    send(0, 1, w, granted, &replies);
    send(0, 1, w, granted, &replies);
    eq.run();
    EXPECT_TRUE(granted);
    EXPECT_EQ(replies, 1u);
    EXPECT_EQ(arb->stats().requests, 1u);
    EXPECT_EQ(arb->stats().grants, 1u);
    EXPECT_EQ(arb->stats().dupRequests, 1u);
    EXPECT_EQ(arb->pendingW(), 1u);
}

TEST_P(SharedCore, TimeWeightedStats)
{
    auto w = sig({100});
    bool granted = false;
    send(0, 1, w, granted);
    eq.run();
    ASSERT_TRUE(granted);
    // Advance time with the W pending.
    eq.schedule(eq.now() + 1000, [] {});
    eq.run();
    arb->commitDone(w);
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
    bool granted = false;
    send(0, 1, w, granted);
    eq.run();
    ASSERT_TRUE(granted);
    bool owner_granted = false;
    arb->preArbitrate(1, [&] { owner_granted = true; });
    eq.run();
    EXPECT_FALSE(owner_granted); // a commit is still in flight
    arb->commitDone(w);
    eq.run();
    EXPECT_TRUE(owner_granted);
}

INSTANTIATE_TEST_SUITE_P(
    Arbiters, SharedCore,
    ::testing::Values(ArbKind::Central, ArbKind::Distributed),
    ::testing::PrintToStringParamName());

} // namespace
} // namespace bulksc
