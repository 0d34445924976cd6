/**
 * @file
 * Deterministic, seeded fault-injection plane.
 *
 * A FaultPlane holds a set of fault points parsed from a compact spec
 * string (the --faults option):
 *
 *   net.drop=0.01,net.dup=0.005,net.delay=1:200,arb.grant_loss=0.002
 *
 * Each item is NAME[/CLASS]=VALUE[@LO:HI] where
 *
 *  - NAME selects the fault kind (see FaultKind);
 *  - /CLASS restricts the point to one traffic class (RdWr, RdSig,
 *    WrSig, Inv, Other); omitted means "any class";
 *  - VALUE is a probability in [0,1] for rate-based kinds, an integer
 *    period for arb.skip_collision=everyN, or MIN:MAX (optionally
 *    P:MIN:MAX) extra delay ticks for net.delay;
 *  - @LO:HI limits the point to a tick window (inclusive LO, exclusive
 *    HI; HI may be omitted for "until the end").
 *
 * Every decision is a pure function of (seed, kind, per-kind decision
 * counter) through the splitmix64 finalizer, so a given configuration
 * produces the same fault schedule on every run — including across
 * bulksc_batch worker counts, because each sweep point owns its plane
 * and takes its seed from its settings (the base or swept
 * fault-seed), never from its index in the grid.
 *
 * The plane only *decides*; the protocol layers (network, arbiters,
 * directory commit service) own the mechanics of dropping, duplicating
 * or delaying their messages and of surviving the result.
 */

#ifndef BULKSC_SIM_FAULT_PLANE_HH
#define BULKSC_SIM_FAULT_PLANE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bulksc {

class StatGroup;

/** The fault kinds the plane can inject. */
enum class FaultKind : unsigned
{
    NetDrop,          //!< drop any message (rate)
    NetDup,           //!< duplicate any message (rate)
    NetDelay,         //!< add uniform extra latency (p + min:max ticks)
    ArbReqLoss,       //!< lose a commit-permission request (rate)
    ArbGrantLoss,     //!< lose an arbiter grant/deny reply (rate)
    ArbSkipCollision, //!< grant every Nth colliding request (period)
    DirNack,          //!< directory refuses a commit W delivery (rate)
    DirCommitLoss,    //!< lose a directory commit-service msg (rate)
    NumKinds
};

/** Canonical spec name of @p k ("net.drop", ...). */
const char *faultKindName(FaultKind k);

/**
 * Number of traffic classes the /CLASS scope understands. Kept in
 * lockstep with network.hh's TrafficClass (static_assert'd there);
 * fault_plane sits below the network layer and cannot include it.
 */
constexpr unsigned kFaultNumTrafficClasses = 5;

/** Scope value meaning "applies to every traffic class". */
constexpr int kFaultAnyClass = -1;

/**
 * Timeout/resend policy of the hardened protocol, shared by the
 * processors' commit requests and the directory commit service. It is
 * armed only when FaultPlane::requiresHardening() holds.
 */
struct ResendConfig
{
    /** Resend attempts before giving up on a message. The sender
     *  stalls and the watchdog reports the deadlock. */
    unsigned maxResend = 8;

    /** Base timeout; doubles per attempt (see resendBackoff). */
    Tick timeout = 256;

    /** Ceiling for the exponential backoff. */
    Tick timeoutCap = 8192;
};

/** One configured fault point. */
struct FaultPoint
{
    FaultKind kind = FaultKind::NumKinds;
    double rate = 0.0;     //!< probability for rate-based kinds
    std::uint64_t everyN = 0; //!< period for arb.skip_collision
    Tick delayMin = 0;     //!< net.delay: minimum extra ticks
    Tick delayMax = 0;     //!< net.delay: maximum extra ticks
    int cls = kFaultAnyClass; //!< traffic-class scope (-1 = any)
    Tick tickLo = 0;          //!< active window start (inclusive)
    Tick tickHi = kTickNever; //!< active window end (exclusive)
};

/**
 * The seeded fault plane. One instance per System (and per sweep
 * point); decisions are deterministic in (seed, query order).
 */
class FaultPlane
{
  public:
    /**
     * Parse a --faults spec string into fault points.
     * @return false and set @p err on grammar or range errors.
     */
    static bool parseSpec(const std::string &spec,
                          std::vector<FaultPoint> &out,
                          std::string &err);

    /** Re-emit @p points in canonical spec form (parse round-trips). */
    static std::string canonicalSpec(
        const std::vector<FaultPoint> &points);

    /** Arm the plane with @p points and the decision seed. */
    void configure(std::vector<FaultPoint> points, std::uint64_t seed);

    /** True iff any fault point is configured. */
    bool active() const { return !points_.empty(); }

    /**
     * True iff the configured points include a kind that loses or
     * duplicates protocol messages — i.e. one that requires the
     * timeout/resend hardening to be armed for liveness.
     */
    bool requiresHardening() const;

    /** True iff a point of @p kind exists (any scope). */
    bool has(FaultKind kind) const;

    /**
     * Should a message of kind @p kind (ArbReqLoss, ArbGrantLoss,
     * DirNack, DirCommitLoss — or NetDrop for plain traffic) be lost?
     * Generic net.drop points also apply to the protocol-specific
     * kinds, scoped by @p cls.
     */
    bool dropMessage(FaultKind kind, Tick now, int cls);

    /** Should this message be duplicated (net.dup)? */
    bool duplicateMessage(Tick now, int cls);

    /** Extra delivery delay for a message sent at @p now (net.delay). */
    Tick extraDelay(Tick now, int cls);

    /**
     * Does a net.delay window apply to a message of class @p cls sent
     * at @p now? If so, @p lo / @p hi receive the first matching
     * point's delay bounds. Pure query — no counters advance; the
     * schedule explorer uses the bounds as a choice domain instead of
     * rolling extraDelay()'s seeded dice.
     */
    bool delayWindow(Tick now, int cls, Tick &lo, Tick &hi) const;

    /** arb.skip_collision: grant this colliding request anyway? */
    bool skipCollision();

    /** Decisions that came up "inject" for @p kind so far. */
    std::uint64_t injectedCount(FaultKind kind) const
    {
        return injected_[static_cast<unsigned>(kind)];
    }

    /** Dump per-kind opportunity/injection counters (if active). */
    void dumpStats(StatGroup &sg, const std::string &prefix) const;

  private:
    bool roll(const FaultPoint &pt, FaultKind counterKind);
    bool windowed(const FaultPoint &pt, Tick now, int cls) const;

    std::vector<FaultPoint> points_;
    std::uint64_t seed_ = 0;

    static constexpr unsigned kNK =
        static_cast<unsigned>(FaultKind::NumKinds);
    std::array<std::uint64_t, kNK> counters_{};
    std::array<std::uint64_t, kNK> opportunities_{};
    std::array<std::uint64_t, kNK> injected_{};
};

} // namespace bulksc

#endif // BULKSC_SIM_FAULT_PLANE_HH
