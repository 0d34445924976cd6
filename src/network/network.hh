/**
 * @file
 * A generic interconnection network model.
 *
 * The paper's architecture (Figure 5) connects cores, directories, and
 * the arbiter through a "generic interconnection network". This model
 * charges each message a per-hop latency plus a serialization delay
 * proportional to its size, and accounts traffic by category so the
 * bandwidth breakdown of Figure 11 (Rd/Wr, RdSig, WrSig, Inv, Other)
 * falls out of the stats.
 */

#ifndef BULKSC_NETWORK_NETWORK_HH
#define BULKSC_NETWORK_NETWORK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/fault_plane.hh"
#include "sim/schedule_controller.hh"
#include "sim/types.hh"

namespace bulksc {

/** Traffic categories reported in the paper's Figure 11. */
enum class TrafficClass : unsigned
{
    DataRdWr, //!< Demand/prefetch requests and data responses
    RdSig,    //!< R signature transfers
    WrSig,    //!< W signature transfers
    Inval,    //!< Invalidations and their acknowledgements
    Other,    //!< Commit protocol control, writeback control, etc.
    NumClasses
};

/** @return a short printable name for a traffic class. */
const char *trafficClassName(TrafficClass c);

/** Network configuration. */
struct NetworkConfig
{
    /** Fixed per-message latency, cycles (router+wire). */
    Tick hopLatency = 3;

    /** Link width in bits per cycle (serialization). */
    unsigned linkBitsPerCycle = 128;

    /**
     * Model contention at the destination link: messages to the same
     * node serialize through its input port, so bursts (e.g. an
     * invalidation fan-in of acks, or commit storms at the arbiter)
     * queue instead of teleporting. Off by default — the paper's
     * evaluation uses unloaded latencies (Table 2 note).
     */
    bool modelContention = false;
};

/**
 * Address/signature footprint a message carries, for the schedule
 * controller's independence oracle. Default-constructed = unknown
 * footprint (conservatively dependent on everything).
 */
struct MsgFootprint
{
    bool hasLine = false;
    LineAddr line = 0;
    std::shared_ptr<const Signature> rsig;
    std::shared_ptr<const Signature> wsig;
};

/**
 * The interconnect. Messages are delivered by invoking a callback after
 * the modelled latency; bytes are accounted per traffic class.
 */
class Network : public SimObject
{
  public:
    Network(EventQueue &eq, const NetworkConfig &cfg);

    /**
     * Send a message.
     *
     * @param src Source node (stats only).
     * @param dst Destination node (stats only).
     * @param cls Traffic class for bandwidth accounting.
     * @param bits Payload size in bits (header added internally).
     * @param deliver Invoked at the delivery tick.
     * @param fp What the message carries (explorer independence
     *        oracle); only examined when a controller is attached.
     */
    void send(NodeId src, NodeId dst, TrafficClass cls, unsigned bits,
              EventQueue::Callback deliver,
              const MsgFootprint &fp = MsgFootprint{});

    /**
     * Send a protocol message over a link that can lose or duplicate
     * it. Rolls @p loss (generic net.drop points apply too): a lost
     * message still occupies the wire but delivers nothing. Then rolls
     * net.dup, which sends a second copy of @p deliver. A lost
     * message is only duplicated when @p dup_lost is set.
     *
     * @return true iff the primary copy was lost.
     */
    template <typename F>
    bool
    sendLossy(NodeId src, NodeId dst, TrafficClass cls, unsigned bits,
              FaultKind loss, bool dup_lost, const F &deliver,
              const MsgFootprint &fp = MsgFootprint{})
    {
        int c = static_cast<int>(cls);
        bool lost = faults && faults->dropMessage(loss, curTick(), c);
        if (lost)
            send(src, dst, cls, bits, [] {}, fp);
        else
            send(src, dst, cls, bits, deliver, fp);
        if ((!lost || dup_lost) && faults &&
            faults->duplicateMessage(curTick(), c)) {
            send(src, dst, cls, bits, deliver, fp);
        }
        return lost;
    }

    /**
     * Attach the fault plane. net.delay is applied to every message
     * (uniform extra latency, scoped by traffic class and tick
     * window); loss and duplication only to those the protocol layers
     * send through sendLossy(), since they own the retransmission
     * machinery.
     */
    void setFaultPlane(FaultPlane *fp) { faults = fp; }

    /**
     * Attach the schedule controller: every delivery is registered
     * with its footprint and scheduled tagged, and active net.delay
     * windows become controller delay choices instead of seeded rolls.
     */
    void setScheduleController(ScheduleController *c) { ctrl = c; }

    /** Latency a message of @p bits would experience. */
    Tick
    latencyFor(unsigned bits) const
    {
        unsigned total = bits + headerBits;
        return cfg.hopLatency +
               (total + cfg.linkBitsPerCycle - 1) / cfg.linkBitsPerCycle;
    }

    /** Total traffic of class @p c, in bits (including headers). */
    std::uint64_t bitsSent(TrafficClass c) const;

    /** Total traffic across all classes, in bits. */
    std::uint64_t totalBits() const;

    /** Total messages sent. */
    std::uint64_t messages() const { return msgCount; }

    /** Total cycles messages spent queued behind busy links
     *  (non-zero only with modelContention). */
    std::uint64_t queueingCycles() const { return queuedCycles; }

    void resetStats();

  private:
    static constexpr unsigned headerBits = 64;

    NetworkConfig cfg;
    FaultPlane *faults = nullptr;
    ScheduleController *ctrl = nullptr;
    std::array<std::uint64_t,
               static_cast<unsigned>(TrafficClass::NumClasses)>
        classBits{};
    std::uint64_t msgCount = 0;

    /** Per-destination input-link busy horizon (contention model). */
    std::unordered_map<NodeId, Tick> linkBusyUntil;
    std::uint64_t queuedCycles = 0;
};

} // namespace bulksc

#endif // BULKSC_NETWORK_NETWORK_HH
