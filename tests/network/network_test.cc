/**
 * @file
 * Unit tests for the interconnect model: latency, delivery, and the
 * per-class traffic accounting behind Figure 11, and the lossy send
 * the protocol layers use for fault-injected messages.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "network/network.hh"

namespace bulksc {
namespace {

TEST(Network, DeliversAfterLatency)
{
    EventQueue eq;
    NetworkConfig cfg;
    cfg.hopLatency = 3;
    cfg.linkBitsPerCycle = 128;
    Network net(eq, cfg);

    Tick delivered = 0;
    net.send(0, 1, TrafficClass::DataRdWr, 64,
             [&] { delivered = eq.now(); });
    eq.run();
    // 64 payload + 64 header = 128 bits = 1 cycle + 3 hop cycles.
    EXPECT_EQ(delivered, 4u);
}

TEST(Network, SerializationDelayGrowsWithSize)
{
    EventQueue eq;
    Network net(eq, NetworkConfig{});
    EXPECT_LT(net.latencyFor(8), net.latencyFor(2048));
}

TEST(Network, AccountsTrafficByClass)
{
    EventQueue eq;
    Network net(eq, NetworkConfig{});
    net.send(0, 1, TrafficClass::WrSig, 300, [] {});
    net.send(1, 0, TrafficClass::WrSig, 300, [] {});
    net.send(0, 1, TrafficClass::Inval, 16, [] {});
    eq.run();
    EXPECT_EQ(net.bitsSent(TrafficClass::WrSig), 2u * (300 + 64));
    EXPECT_EQ(net.bitsSent(TrafficClass::Inval), 16u + 64);
    EXPECT_EQ(net.bitsSent(TrafficClass::RdSig), 0u);
    EXPECT_EQ(net.totalBits(),
              net.bitsSent(TrafficClass::WrSig) +
                  net.bitsSent(TrafficClass::Inval));
    EXPECT_EQ(net.messages(), 3u);
}

TEST(Network, ResetStatsClears)
{
    EventQueue eq;
    Network net(eq, NetworkConfig{});
    net.send(0, 1, TrafficClass::Other, 8, [] {});
    eq.run();
    EXPECT_GT(net.totalBits(), 0u);
    net.resetStats();
    EXPECT_EQ(net.totalBits(), 0u);
    EXPECT_EQ(net.messages(), 0u);
}

TEST(Network, SameTickMessagesPreserveSendOrder)
{
    EventQueue eq;
    Network net(eq, NetworkConfig{});
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        net.send(0, 1, TrafficClass::Other, 8,
                 [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Network, ContentionSerializesSameDestination)
{
    EventQueue eq;
    NetworkConfig cfg;
    cfg.modelContention = true;
    cfg.hopLatency = 3;
    cfg.linkBitsPerCycle = 128;
    Network net(eq, cfg);

    std::vector<Tick> arrivals;
    // Three 192-bit (128+64 header -> wait, 192+64=256 bits = 2 cyc)
    // messages to the same node: they serialize 2 cycles apart.
    for (int i = 0; i < 3; ++i)
        net.send(0, 7, TrafficClass::DataRdWr, 192,
                 [&] { arrivals.push_back(eq.now()); });
    // One message to a different node is unaffected.
    Tick other = 0;
    net.send(0, 8, TrafficClass::DataRdWr, 192,
             [&] { other = eq.now(); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], 5u);
    EXPECT_EQ(arrivals[1], 7u);
    EXPECT_EQ(arrivals[2], 9u);
    EXPECT_EQ(other, 5u);
    EXPECT_EQ(net.queueingCycles(), 2u + 4u);
}

TEST(Network, ContentionOffDeliversConcurrently)
{
    EventQueue eq;
    Network net(eq, NetworkConfig{});
    std::vector<Tick> arrivals;
    for (int i = 0; i < 3; ++i)
        net.send(0, 7, TrafficClass::DataRdWr, 192,
                 [&] { arrivals.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(arrivals[0], arrivals[2]);
    EXPECT_EQ(net.queueingCycles(), 0u);
}

TEST(TrafficClassNames, AreStable)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::DataRdWr), "RdWr");
    EXPECT_STREQ(trafficClassName(TrafficClass::RdSig), "RdSig");
    EXPECT_STREQ(trafficClassName(TrafficClass::WrSig), "WrSig");
    EXPECT_STREQ(trafficClassName(TrafficClass::Inval), "Inv");
    EXPECT_STREQ(trafficClassName(TrafficClass::Other), "Other");
}

/** A network whose fault plane is armed with @p spec. */
struct LossyNet
{
    explicit LossyNet(const std::string &spec) : net(eq, NetworkConfig{})
    {
        std::vector<FaultPoint> pts;
        std::string err;
        EXPECT_TRUE(FaultPlane::parseSpec(spec, pts, err)) << err;
        faults.configure(std::move(pts), 1);
        net.setFaultPlane(&faults);
    }

    /** Send once over the lossy edge; @return copies delivered. */
    unsigned
    send(bool dup_lost, bool &lost)
    {
        unsigned delivered = 0;
        lost = net.sendLossy(0, 1, TrafficClass::WrSig, 64,
                             FaultKind::ArbReqLoss, dup_lost,
                             [&delivered] { ++delivered; });
        eq.run();
        return delivered;
    }

    EventQueue eq;
    FaultPlane faults;
    Network net;
};

TEST(NetworkLossySend, LostMessageStillUsesTheWire)
{
    LossyNet h("arb.req_loss=1");
    bool lost = false;
    EXPECT_EQ(h.send(false, lost), 0u);
    EXPECT_TRUE(lost);
    EXPECT_EQ(h.net.messages(), 1u);
    EXPECT_GT(h.net.bitsSent(TrafficClass::WrSig), 0u);
}

TEST(NetworkLossySend, DuplicationDeliversTwice)
{
    LossyNet h("net.dup=1");
    bool lost = true;
    EXPECT_EQ(h.send(false, lost), 2u);
    EXPECT_FALSE(lost);
    EXPECT_EQ(h.net.messages(), 2u);
}

TEST(NetworkLossySend, LostCopyDuplicatedOnlyWhenAsked)
{
    LossyNet quiet("arb.req_loss=1,net.dup=1");
    bool lost = false;
    EXPECT_EQ(quiet.send(false, lost), 0u);
    EXPECT_EQ(quiet.net.messages(), 1u);
    EXPECT_EQ(quiet.faults.injectedCount(FaultKind::NetDup), 0u);

    LossyNet echo("arb.req_loss=1,net.dup=1");
    EXPECT_EQ(echo.send(true, lost), 1u); // the duplicate survives
    EXPECT_TRUE(lost);
    EXPECT_EQ(echo.net.messages(), 2u);
}

TEST(NetworkLossySend, WithoutFaultPlaneIsAPlainSend)
{
    EventQueue eq;
    Network net(eq, NetworkConfig{});
    unsigned delivered = 0;
    EXPECT_FALSE(net.sendLossy(0, 1, TrafficClass::Other, 8,
                               FaultKind::ArbGrantLoss, true,
                               [&delivered] { ++delivered; }));
    eq.run();
    EXPECT_EQ(delivered, 1u);
}

} // namespace
} // namespace bulksc
