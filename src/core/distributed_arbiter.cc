#include "core/distributed_arbiter.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

DistributedArbiter::DistributedArbiter(EventQueue &eq, Network &n,
                                       NodeId first_node, unsigned count,
                                       Tick processing_, bool rsig_opt)
    : ArbiterCore(eq, "dist-arbiter", n, first_node,
                  first_node + count),
      firstNode(first_node), gNode(first_node + count),
      processing(processing_), rsigOpt(rsig_opt)
{
    fatal_if(count == 0, "need at least one arbiter module");
    moduleW.resize(count);
}

unsigned
DistributedArbiter::rangeOf(LineAddr line) const
{
    // Same coarse granules as MemorySystem::dirOf.
    return static_cast<unsigned>((line >> 10) % moduleW.size());
}

std::vector<unsigned>
DistributedArbiter::rangesOf(const Signature &s) const
{
    std::vector<bool> mark(moduleW.size(), false);
    std::vector<unsigned> out;
    for (LineAddr l : s.exactLines()) {
        unsigned r = rangeOf(l);
        if (!mark[r]) {
            mark[r] = true;
            out.push_back(r);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<unsigned>
DistributedArbiter::routeOf(const Signature &w, const SigPtr &r,
                            std::vector<unsigned> &w_ranges) const
{
    w_ranges = rangesOf(w);
    std::vector<unsigned> ranges = w_ranges;
    if (r) {
        for (unsigned m : rangesOf(*r)) {
            if (std::find(ranges.begin(), ranges.end(), m) ==
                ranges.end()) {
                ranges.push_back(m);
            }
        }
    }
    std::sort(ranges.begin(), ranges.end());
    if (ranges.empty())
        ranges.push_back(0);
    return ranges;
}

void
DistributedArbiter::requestCommit(ProcId p, std::uint64_t txn,
                                  std::uint64_t seq, SigPtr w)
{
    // The processor knows from the signatures which arbiter(s) to
    // contact (Section 4.2.3).
    SigPtr r = client(p).chunkR(seq);
    std::vector<unsigned> w_ranges;
    std::vector<unsigned> ranges = routeOf(*w, r, w_ranges);

    if (ranges.size() == 1) {
        // Single-range commit: one arbiter module (Figure 8(a)).
        unsigned m = ranges[0];
        bool w_here = !w_ranges.empty();
        unsigned bits = w->empty() ? 16 : w->compressedBits();
        if (!rsigOpt && r)
            net.send(p, firstNode + m, TrafficClass::RdSig,
                     r->compressedBits(), [] {});
        auto deliver = [this, p, m, txn, w, r, w_here] {
            if (dedupRequest(p, txn, w))
                return;
            ++stats_.requests;
            ++nSingle;
            if (preArbBlocks(p)) {
                conclude(p, txn, false, firstNode + m, w);
                return;
            }
            bool was_owner = preArbOwnedBy(p);
            // RSig round-trip latency is charged when the list is
            // non-empty at arrival; the decision itself (collision
            // check + list insertion) executes atomically later.
            bool need_r = !moduleW[m].empty();
            if (need_r && rsigOpt)
                ++stats_.rsigRequired;
            eventq.scheduleAfter(
                processing + (need_r && rsigOpt
                                  ? 2 * net.latencyFor(
                                            r ? r->compressedBits()
                                              : 16)
                                  : 0),
                [this, p, m, txn, w, r, w_here, was_owner] {
                    std::vector<SigPtr> &list = moduleW[m];
                    bool ok = !anyIntersects(list, *w) &&
                              (!r || list.empty() ||
                               !anyIntersects(list, *r));
                    if (ok && w->empty()) {
                        ++stats_.emptyWCommits;
                    } else if (ok && w_here) {
                        wAccepted(*w);
                        list.push_back(w);
                    }
                    if (was_owner) {
                        releasePreArb();
                        tryActivatePreArb();
                    }
                    conclude(p, txn, ok, firstNode + m, w);
                });
        };
        sendRequest(p, firstNode + m, bits, txn, deliver, MsgFootprint{});
        return;
    }

    // Multi-range commit: coordinate through the G-arbiter
    // (Figure 8(b)). Both signatures travel with the request.
    unsigned bits = (w->empty() ? 16 : w->compressedBits()) +
                    (r ? r->compressedBits() : 16);
    auto deliver = [this, p, txn, w, r] {
        if (dedupRequest(p, txn, w))
            return;
        ++stats_.requests;
        ++nMulti;
        if (preArbBlocks(p)) {
            conclude(p, txn, false, gNode, w);
            return;
        }
        bool was_owner = preArbOwnedBy(p);
        if (was_owner)
            releasePreArb();

        // Early deny from the G-arbiter's own W cache.
        if (anyIntersects(gList, *w) || (r && anyIntersects(gList, *r))) {
            if (was_owner)
                tryActivatePreArb();
            conclude(p, txn, false, gNode, w);
            return;
        }

        // Fan the signatures out to the involved modules; each module
        // votes and reserves on yes. The fan-out and votes are
        // reliable: they model on-chip wiring of one logical arbiter.
        std::vector<unsigned> w_ranges;
        std::vector<unsigned> ranges = routeOf(*w, r, w_ranges);
        VoteKey key{p, txn};
        auto [it, fresh] = votes.try_emplace(key);
        panic_if(!fresh, "txn ", txn, " of proc ", p, " voted twice");
        VoteRecord &v = it->second;
        v.w = w;
        v.r = r;
        v.pending = static_cast<unsigned>(ranges.size());
        v.wasOwner = was_owner;
        unsigned sig_bits = w->compressedBits() +
                            (r ? r->compressedBits() : 16);
        for (unsigned m : ranges) {
            bool w_here = std::find(w_ranges.begin(), w_ranges.end(),
                                    m) != w_ranges.end();
            net.send(gNode, firstNode + m, TrafficClass::WrSig, sig_bits,
                     [this, key, m, w_here] { moduleVote(key, m, w_here); });
        }
    };
    sendRequest(p, gNode, bits, txn, deliver, MsgFootprint{});
}

void
DistributedArbiter::moduleVote(VoteKey key, unsigned m, bool w_here)
{
    VoteRecord &v = votes.at(key);
    std::vector<SigPtr> &list = moduleW[m];
    bool ok = !anyIntersects(list, *v.w) &&
              (!v.r || !anyIntersects(list, *v.r));
    if (ok && w_here && !v.w->empty()) {
        list.push_back(v.w);
        v.reserved.push_back(m);
    }
    // Vote back to the G-arbiter.
    net.send(firstNode + m, gNode, TrafficClass::Other, 8,
             [this, key, ok] {
        VoteRecord &rec = votes.at(key);
        if (!ok)
            rec.ok = false;
        if (--rec.pending != 0)
            return;
        eventq.scheduleAfter(processing, [this, key] {
            auto it = votes.find(key);
            VoteRecord done = std::move(it->second);
            votes.erase(it);
            // Only the final accept counts as in flight; the tentative
            // module reservations above can still roll back.
            if (done.ok && done.w->empty()) {
                ++stats_.emptyWCommits;
            } else if (done.ok) {
                wAccepted(*done.w);
                gList.push_back(done.w);
            } else {
                for (unsigned rm : done.reserved)
                    eraseSig(moduleW[rm], *done.w);
            }
            if (done.wasOwner)
                tryActivatePreArb();
            conclude(key.first, key.second, done.ok, gNode, done.w);
        });
    });
}

void
DistributedArbiter::commitDone(const Signature &w)
{
    for (auto &list : moduleW)
        eraseSig(list, w);
    eraseSig(gList, w);
    wReleased(w);
    tryActivatePreArb();
}

std::uint64_t
DistributedArbiter::fingerprint() const
{
    std::uint64_t h = mix64(0x444152ULL); // "DAR"
    for (const auto &list : moduleW) {
        std::uint64_t ml = 0;
        for (const auto &w : list)
            ml += mix64(w->hash());
        h = mix64(h ^ ml);
    }
    std::uint64_t gl = 0;
    for (const auto &w : gList)
        gl += mix64(w->hash());
    h = mix64(h ^ gl);
    return fingerprintCore(mix64(h ^ pendingW()));
}

} // namespace bulksc
