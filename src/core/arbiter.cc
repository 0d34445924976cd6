#include "core/arbiter.hh"

#include "sim/event_trace.hh"
#include "sim/rng.hh"
#include "sim/logging.hh"
#include "sim/trace_log.hh"

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

bool
ArbiterCore::dedupRequest(ProcId p, std::uint64_t txn,
                          const Reply &reply,
                          const std::shared_ptr<Signature> &w)
{
    auto it = txns.find(p);
    if (it != txns.end() && it->second.txn == txn) {
        ++stats_.dupRequests;
        if (it->second.decided)
            sendReply(p, it->second.ok, reply, home, w, txn);
        return true;
    }
    txns[p] = TxnRecord{txn, false, false};
    return false;
}

void
ArbiterCore::conclude(ProcId p, bool ok, const Reply &reply,
                      NodeId from, std::shared_ptr<Signature> w)
{
    TxnRecord &rec = txns[p];
    rec.decided = true;
    rec.ok = ok;
    if (ok)
        ++stats_.grants;
    else
        ++stats_.denials;
    EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                trackArb(static_cast<unsigned>(from - base)), 0,
                pendingW(), ok ? 1 : 0);
    sendReply(p, ok, reply, from, std::move(w), rec.txn);
}

void
ArbiterCore::sendReply(ProcId p, bool ok, const Reply &reply,
                       NodeId from, std::shared_ptr<Signature> w,
                       std::uint64_t txn)
{
    MsgFootprint fp;
    fp.wsig = std::move(w);
    if (net.sendLossy(from, p, TrafficClass::Other, 8,
                      FaultKind::ArbGrantLoss, true,
                      [reply, ok] { reply(ok); }, fp)) {
        ++stats_.lostReplies;
        EVENT_TRACE(TraceEventType::FaultInject, curTick(),
                    trackArb(static_cast<unsigned>(from - base)), txn,
                    static_cast<std::uint64_t>(
                        FaultKind::ArbGrantLoss));
    }
}

void
ArbiterCore::preArbitrate(ProcId p, std::function<void()> granted)
{
    ++stats_.preArbitrations;
    preArbQueue.emplace_back(p, std::move(granted));
    tryActivatePreArb();
}

void
ArbiterCore::tryActivatePreArb()
{
    if (preArbOwner != kNoOwner || preArbQueue.empty() || pendingW())
        return;
    auto [p, granted] = std::move(preArbQueue.front());
    preArbQueue.pop_front();
    preArbOwner = p;
    net.send(home, p, TrafficClass::Other, 8,
             [granted = std::move(granted)] { granted(); });
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
ArbiterCore::wAccepted(const std::shared_ptr<Signature> &w)
{
    touchStats();
    wInsertTick[w.get()] = curTick();
}

void
ArbiterCore::wReleased(const std::shared_ptr<Signature> &w)
{
    auto in = wInsertTick.find(w.get());
    if (in == wInsertTick.end())
        return;
    touchStats();
    stats_.occupancy.sample(static_cast<double>(curTick() - in->second));
    wInsertTick.erase(in);
}

std::uint64_t
ArbiterCore::fingerprintCore(std::uint64_t h) const
{
    std::uint64_t tc = 0;
    for (const auto &[p, rec] : txns) {
        tc += mix64(mix64(p) ^ rec.txn ^
                    (std::uint64_t{rec.decided} << 62) ^
                    (std::uint64_t{rec.ok} << 61));
    }
    h = mix64(h ^ tc);
    h = mix64(h ^ preArbOwner);
    std::uint64_t pq = 0x9; // non-zero so an empty queue still folds
    for (const auto &e : preArbQueue)
        pq = mix64(pq ^ e.first);
    return mix64(h ^ pq);
}

Arbiter::Arbiter(EventQueue &eq, Network &n, NodeId node_,
                 Tick processing_, bool rsig_opt, unsigned max_commits)
    : ArbiterCore(eq, "arbiter", n, node_, node_), node(node_),
      processing(processing_), rsigOpt(rsig_opt),
      maxCommits(max_commits)
{}

bool
Arbiter::collides(const Signature &s) const
{
    for (const auto &w : wList) {
        if (w->intersects(s))
            return true;
    }
    return false;
}

void
Arbiter::requestCommit(ProcId p, std::uint64_t txn,
                       std::shared_ptr<Signature> w,
                       RProvider r_provider, Reply reply)
{
    // Request message: with the RSig optimization only W travels.
    unsigned bits = w->empty() ? 16 : w->compressedBits();
    std::shared_ptr<Signature> upfront_r;
    if (!rsigOpt) {
        upfront_r = r_provider();
        MsgFootprint rfp;
        rfp.rsig = upfront_r;
        net.send(p, node, TrafficClass::RdSig,
                 upfront_r ? upfront_r->compressedBits() : 16, [] {},
                 rfp);
    }

    auto deliver = [this, p, txn, w, upfront_r, r_provider, reply] {
        if (dedupRequest(p, txn, reply, w))
            return;
        ++stats_.requests;

        // Pre-arbitration: reject everyone but the owner.
        if (preArbBlocks(p)) {
            eventq.scheduleAfter(processing, [this, p, w, reply] {
                conclude(p, false, reply, node, w);
            });
            return;
        }
        if (preArbOwnedBy(p))
            releasePreArb();

        decide(p, w, upfront_r, r_provider, std::move(reply));
    };

    MsgFootprint reqFp;
    reqFp.wsig = w;
    reqFp.rsig = upfront_r;
    sendRequest(p, node, bits, txn, deliver, reqFp);
}

void
Arbiter::decide(ProcId p, const std::shared_ptr<Signature> &w,
                std::shared_ptr<Signature> r, RProvider r_provider,
                Reply reply)
{
    // The entire check runs atomically at the decision tick: the W
    // list is examined exactly once, and if the R signature turns out
    // to be needed but absent (RSig optimization), it is fetched and
    // the decision re-runs against the then-current list.
    eventq.scheduleAfter(processing, [this, p, w, r, r_provider,
                                      reply] {
        auto finalize = [this, p, reply](
                            bool ok,
                            const std::shared_ptr<Signature> &w_) {
            TRACE_LOG(TraceCat::Commit, curTick(), "arbiter: ",
                      ok ? "grant" : "deny", " for proc ", p,
                      " (pending W list: ", wList.size(), ")");
            if (ok && w_->empty()) {
                ++stats_.emptyWCommits;
            } else if (ok) {
                wAccepted(w_);
                wList.push_back(w_);
            }
            tryActivatePreArb();
            conclude(p, ok, reply, node, w_);
        };

        if (wList.empty()) {
            finalize(true, w);
            return;
        }
        if (!r) {
            // RSig slow path: fetch R, then re-decide.
            ++stats_.rsigRequired;
            net.send(node, p, TrafficClass::Other, 16,
                     [this, p, w, r_provider, reply] {
                auto fetched = r_provider();
                if (!fetched) {
                    // Chunk vanished (squashed); deny.
                    tryActivatePreArb();
                    conclude(p, false, reply, node, w);
                    return;
                }
                MsgFootprint rfp;
                rfp.rsig = fetched;
                net.send(p, node, TrafficClass::RdSig,
                         fetched->compressedBits(),
                         [this, p, w, fetched, r_provider, reply] {
                             decide(p, w, fetched, r_provider, reply);
                         },
                         rfp);
            });
            return;
        }
        bool ok = !collides(*r) && !collides(*w) &&
                  wList.size() < maxCommits;
        // Fault injection (negative testing): let every Nth colliding
        // request through, breaking the disambiguation the checkers
        // are supposed to catch. The capacity limit still applies.
        if (!ok && faults && wList.size() < maxCommits &&
            faults->skipCollision()) {
            ++stats_.faultInjectedGrants;
            TRACE_LOG(TraceCat::Commit, curTick(),
                      "arbiter: FAULT-INJECTED grant for proc ", p);
            ok = true;
        }
        finalize(ok, w);
    });
}

void
Arbiter::commitDone(const std::shared_ptr<Signature> &w)
{
    for (auto it = wList.begin(); it != wList.end(); ++it) {
        if (it->get() == w.get()) {
            wReleased(w);
            wList.erase(it);
            tryActivatePreArb();
            return;
        }
    }
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
