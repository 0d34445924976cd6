#include "core/arbiter.hh"

#include <algorithm>

#include "sim/event_trace.hh"
#include "sim/rng.hh"
#include "sim/logging.hh"

namespace bulksc {

ArbiterCore::ArbiterCore(EventQueue &eq, const std::string &name,
                         Network &n, NodeId base_, NodeId home_)
    : SimObject(eq, name), net(n), base(base_), home(home_)
{}

void
ArbiterCore::requestLost(NodeId to, std::uint64_t txn)
{
    ++stats_.lostRequests;
    EVENT_TRACE(TraceEventType::FaultInject, curTick(),
                trackArb(static_cast<unsigned>(to - base)), txn,
                static_cast<std::uint64_t>(FaultKind::ArbReqLoss));
}

void
ArbiterCore::setClient(ProcId p, ArbiterClient *c)
{
    if (clients.size() <= p) {
        clients.resize(p + 1, nullptr);
        txns.resize(p + 1);
    }
    clients[p] = c;
}

bool
ArbiterCore::dedupRequest(ProcId p, std::uint64_t txn, const SigPtr &w)
{
    TxnWindow &tw = txns.at(p);
    if (tw.slots.empty())
        tw.slots.resize(kTxnWindow);
    if (txn + kTxnWindow <= tw.newest) {
        // Its decision is forgotten, and deciding it again could list
        // a W that nobody releases.
        ++stats_.dupRequests;
        sendReply(p, txn, false, home, w);
        return true;
    }
    TxnRecord &rec = tw.slots[txn % kTxnWindow];
    if (rec.txn == txn) {
        ++stats_.dupRequests;
        if (rec.decided)
            sendReply(p, txn, rec.ok, home, w);
        return true;
    }
    // A first copy, possibly overtaken by later ids: decide it.
    rec = TxnRecord{txn, false, false};
    tw.newest = std::max(tw.newest, txn);
    return false;
}

void
ArbiterCore::conclude(ProcId p, std::uint64_t txn, bool ok, NodeId from,
                      SigPtr w)
{
    TxnRecord &rec = txns.at(p).slots[txn % kTxnWindow];
    if (rec.txn == txn) {
        rec.decided = true;
        rec.ok = ok;
    }
    if (ok)
        ++stats_.grants;
    else
        ++stats_.denials;
    EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                trackArb(static_cast<unsigned>(from - base)), 0,
                pendingW(), ok ? 1 : 0);
    sendReply(p, txn, ok, from, std::move(w));
}

void
ArbiterCore::sendReply(ProcId p, std::uint64_t txn, bool ok, NodeId from,
                       SigPtr w)
{
    MsgFootprint fp;
    fp.wsig = std::move(w);
    if (net.sendLossy(from, p, TrafficClass::Other, 8,
                      FaultKind::ArbGrantLoss, true,
                      [this, p, txn, ok] { client(p).arbReply(txn, ok); },
                      fp)) {
        ++stats_.lostReplies;
        EVENT_TRACE(TraceEventType::FaultInject, curTick(),
                    trackArb(static_cast<unsigned>(from - base)), txn,
                    static_cast<std::uint64_t>(
                        FaultKind::ArbGrantLoss));
    }
}

void
ArbiterCore::preArbitrate(ProcId p)
{
    ++stats_.preArbitrations;
    preArbQueue.push_back(p);
    tryActivatePreArb();
}

void
ArbiterCore::tryActivatePreArb()
{
    if (preArbOwner != kNoOwner || preArbQueue.empty() || pendingW())
        return;
    ProcId p = preArbQueue.front();
    preArbQueue.pop_front();
    preArbOwner = p;
    net.send(home, p, TrafficClass::Other, 8,
             [this, p] { client(p).preArbGranted(); });
}

void
ArbiterCore::touchStats()
{
    Tick now = curTick();
    Tick dt = now - lastTouch;
    std::size_t n = pendingW();
    stats_.pendingIntegral +=
        static_cast<double>(n) * static_cast<double>(dt);
    if (n)
        stats_.nonEmptyTicks += dt;
    lastTouch = now;
}

void
ArbiterCore::wAccepted(const Signature &w)
{
    touchStats();
    wInsertTick[&w] = curTick();
}

void
ArbiterCore::wReleased(const Signature &w)
{
    auto in = wInsertTick.find(&w);
    if (in == wInsertTick.end())
        return;
    touchStats();
    stats_.occupancy.sample(static_cast<double>(curTick() - in->second));
    wInsertTick.erase(in);
}

std::uint64_t
ArbiterCore::fingerprintCore(std::uint64_t h) const
{
    // The newest record per processor: older ones only answer
    // duplicates.
    std::uint64_t tc = 0;
    for (ProcId p = 0; p < txns.size(); ++p) {
        const TxnWindow &tw = txns[p];
        if (!tw.newest)
            continue;
        const TxnRecord &rec = tw.slots[tw.newest % kTxnWindow];
        tc += mix64(mix64(p) ^ rec.txn ^
                    (std::uint64_t{rec.decided} << 62) ^
                    (std::uint64_t{rec.ok} << 61));
    }
    h = mix64(h ^ tc);
    h = mix64(h ^ preArbOwner);
    std::uint64_t pq = 0x9; // non-zero so an empty queue still folds
    for (ProcId p : preArbQueue)
        pq = mix64(pq ^ p);
    return mix64(h ^ pq);
}

Arbiter::Arbiter(EventQueue &eq, Network &n, NodeId node_,
                 Tick processing_, bool rsig_opt, unsigned max_commits)
    : ArbiterCore(eq, "arbiter", n, node_, node_), node(node_),
      processing(processing_), rsigOpt(rsig_opt),
      maxCommits(max_commits)
{}

void
Arbiter::requestCommit(ProcId p, std::uint64_t txn, std::uint64_t seq,
                       SigPtr w)
{
    // Request message: with the RSig optimization only W travels.
    unsigned bits = w->empty() ? 16 : w->compressedBits();
    SigPtr upfront_r;
    if (!rsigOpt) {
        upfront_r = client(p).chunkR(seq);
        MsgFootprint rfp;
        rfp.rsig = upfront_r;
        net.send(p, node, TrafficClass::RdSig,
                 upfront_r ? upfront_r->compressedBits() : 16, [] {},
                 rfp);
    }

    auto deliver = [this, p, txn, seq, w, upfront_r] {
        if (dedupRequest(p, txn, w))
            return;
        ++stats_.requests;

        // Pre-arbitration: reject everyone but the owner.
        if (preArbBlocks(p)) {
            eventq.scheduleAfter(processing, [this, p, txn, w] {
                conclude(p, txn, false, node, w);
            });
            return;
        }
        if (preArbOwnedBy(p))
            releasePreArb();

        decide(p, txn, seq, w, upfront_r);
    };

    MsgFootprint reqFp;
    reqFp.wsig = w;
    reqFp.rsig = upfront_r;
    sendRequest(p, node, bits, txn, deliver, reqFp);
}

void
Arbiter::decide(ProcId p, std::uint64_t txn, std::uint64_t seq, SigPtr w,
                SigPtr r)
{
    // The entire check runs atomically at the decision tick: the W
    // list is examined exactly once, and if the R signature turns out
    // to be needed but absent (RSig optimization), it is fetched and
    // the decision re-runs against the then-current list.
    eventq.scheduleAfter(processing, [this, p, txn, seq, w, r] {
        auto finalize = [&](bool ok) {
            if (ok && w->empty()) {
                ++stats_.emptyWCommits;
            } else if (ok) {
                wAccepted(*w);
                wList.push_back(w);
            }
            tryActivatePreArb();
            conclude(p, txn, ok, node, w);
        };

        if (wList.empty()) {
            finalize(true);
            return;
        }
        if (!r) {
            // RSig slow path: fetch R, then re-decide.
            ++stats_.rsigRequired;
            net.send(node, p, TrafficClass::Other, 16,
                     [this, p, txn, seq, w] {
                SigPtr fetched = client(p).chunkR(seq);
                if (!fetched) {
                    // Chunk vanished (squashed); deny.
                    tryActivatePreArb();
                    conclude(p, txn, false, node, w);
                    return;
                }
                MsgFootprint rfp;
                rfp.rsig = fetched;
                net.send(p, node, TrafficClass::RdSig,
                         fetched->compressedBits(),
                         [this, p, txn, seq, w, fetched] {
                             decide(p, txn, seq, w, fetched);
                         },
                         rfp);
            });
            return;
        }
        bool ok = !anyIntersects(wList, *r) && !anyIntersects(wList, *w) &&
                  wList.size() < maxCommits;
        // Fault injection (negative testing): let every Nth colliding
        // request through, breaking the disambiguation the checkers
        // are supposed to catch. The capacity limit still applies.
        if (!ok && faults && wList.size() < maxCommits &&
            faults->skipCollision()) {
            ++stats_.faultInjectedGrants;
            EVENT_TRACE(TraceEventType::FaultInject, curTick(),
                        trackArb(0), 0,
                        static_cast<std::uint64_t>(
                            FaultKind::ArbSkipCollision));
            ok = true;
        }
        finalize(ok);
    });
}

void
Arbiter::commitDone(const Signature &w)
{
    if (!eraseSig(wList, w))
        return;
    wReleased(w);
    tryActivatePreArb();
}

std::uint64_t
Arbiter::fingerprint() const
{
    std::uint64_t h = mix64(0x415242ULL); // "ARB"
    std::uint64_t wl = 0;
    for (const auto &w : wList)
        wl += mix64(w->hash());
    return fingerprintCore(mix64(h ^ wl));
}

} // namespace bulksc
