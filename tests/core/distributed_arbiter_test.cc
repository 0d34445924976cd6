/**
 * @file
 * Unit tests for the distributed arbiter with G-arbiter coordination
 * (Section 4.2.3).
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/distributed_arbiter.hh"

namespace bulksc {
namespace {

/** Records one processor's replies; serves its chunks' R. */
struct FakeClient : public ArbiterClient
{
    std::unordered_map<std::uint64_t, bool> decision; //!< by txn
    std::unordered_map<std::uint64_t, SigPtr> rOf;    //!< by seq
    unsigned preArbGrants = 0;

    void
    arbReply(std::uint64_t txn, bool ok) override
    {
        decision[txn] = ok;
    }

    SigPtr
    chunkR(std::uint64_t seq) override
    {
        auto it = rOf.find(seq);
        return it == rOf.end() ? nullptr : it->second;
    }

    void preArbGranted() override { ++preArbGrants; }
};

constexpr ProcId kProcs = 4;

struct Harness
{
    explicit Harness(unsigned modules = 4)
        : net(eq, NetworkConfig{}),
          arb(eq, net, 16, modules, /*processing=*/5, /*rsig=*/true)
    {
        for (ProcId p = 0; p < kProcs; ++p)
            arb.setClient(p, &clients[p]);
    }

    SigPtr
    sig(std::initializer_list<LineAddr> lines)
    {
        auto s = std::make_shared<Signature>();
        for (LineAddr l : lines)
            s->insert(l);
        return s;
    }

    bool
    request(ProcId p, SigPtr r, SigPtr w)
    {
        std::uint64_t t = ++txn;
        clients[p].rOf[t] = std::move(r);
        arb.requestCommit(p, t, /*seq=*/t, std::move(w));
        eq.run();
        auto it = clients[p].decision.find(t);
        return it != clients[p].decision.end() && it->second;
    }

    EventQueue eq;
    Network net;
    DistributedArbiter arb;
    FakeClient clients[kProcs];
    std::uint64_t txn = 0; //!< fresh transaction id per request
};

TEST(DistributedArbiter, SingleRangeCommitUsesOneModule)
{
    Harness h;
    // Lines 0, 4, 8 share the first 32 KB granule (range 0).
    EXPECT_TRUE(h.request(0, h.sig({4}), h.sig({0, 8})));
    EXPECT_EQ(h.arb.singleRangeCommits(), 1u);
    EXPECT_EQ(h.arb.multiRangeCommits(), 0u);
}

TEST(DistributedArbiter, MultiRangeCommitGoesThroughGArbiter)
{
    Harness h;
    EXPECT_TRUE(h.request(
        0, h.sig({}), h.sig({0, 1 * 1024, 2 * 1024})));
    EXPECT_EQ(h.arb.multiRangeCommits(), 1u);
}

TEST(DistributedArbiter, CollisionDetectedWithinRange)
{
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    EXPECT_FALSE(h.request(1, h.sig({100}), h.sig({})));
}

TEST(DistributedArbiter, DisjointRangesCommitConcurrently)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({0})));
    EXPECT_TRUE(h.request(1, h.sig({}), h.sig({1 * 1024})));
    EXPECT_TRUE(h.request(2, h.sig({}), h.sig({2 * 1024})));
}

TEST(DistributedArbiter, MultiRangeCollisionDenied)
{
    Harness h;
    auto w = h.sig({0, 1 * 1024});
    ASSERT_TRUE(h.request(0, h.sig({}), w)); // holds ranges 0 and 1
    // New multi-range chunk overlapping range 1's W must be denied.
    EXPECT_FALSE(h.request(1, h.sig({1 * 1024}),
                           h.sig({2 * 1024, 3 * 1024})));
    // After the first commit completes, it is granted.
    h.arb.commitDone(*w);
    EXPECT_TRUE(h.request(1, h.sig({1 * 1024}),
                          h.sig({2 * 1024, 3 * 1024})));
}

TEST(DistributedArbiter, FailedMultiRangeReleasesReservations)
{
    Harness h;
    auto w0 = h.sig({0});
    ASSERT_TRUE(h.request(0, h.sig({}), w0)); // range 0 busy
    // Multi-range request touching ranges 0 (collides) and 1: denied,
    // and its tentative reservation in range 1 must be released.
    EXPECT_FALSE(h.request(1, h.sig({}), h.sig({0, 1 * 1024})));
    EXPECT_TRUE(h.request(2, h.sig({1 * 1024}), h.sig({5 * 1024})));
}

TEST(DistributedArbiter, CommitDoneReleasesAllRanges)
{
    Harness h;
    auto w = h.sig({0, 1 * 1024, 2 * 1024, 3 * 1024});
    ASSERT_TRUE(h.request(0, h.sig({}), w));
    EXPECT_FALSE(h.request(1, h.sig({2 * 1024}), h.sig({})));
    h.arb.commitDone(*w);
    EXPECT_TRUE(h.request(1, h.sig({2 * 1024}), h.sig({})));
}

TEST(DistributedArbiter, EmptySignaturesGrantImmediately)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({})));
    EXPECT_EQ(h.arb.stats().emptyWCommits, 1u);
}

TEST(DistributedArbiter, PreArbitrationAcrossModules)
{
    Harness h;
    h.arb.preArbitrate(3);
    h.eq.run();
    ASSERT_EQ(h.clients[3].preArbGrants, 1u);
    EXPECT_FALSE(h.request(0, h.sig({}), h.sig({0})));
    EXPECT_TRUE(h.request(3, h.sig({}), h.sig({0})));
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({1})));
}

TEST(DistributedArbiter, MultiRangeGeneratesMoreMessages)
{
    // Figure 8: the G-arbiter path has more messages/latency than the
    // single-arbiter path.
    Harness a, b;
    a.request(0, a.sig({}), a.sig({0, 4}));          // single range
    b.request(0, b.sig({}), b.sig({0, 1 * 1024}));   // two ranges
    EXPECT_GT(b.net.messages(), a.net.messages());
}

} // namespace
} // namespace bulksc
