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
      firstNode(first_node), processing(processing_), rsigOpt(rsig_opt)
{
    fatal_if(count == 0, "need at least one arbiter module");
    modules.resize(count);
}

unsigned
DistributedArbiter::rangeOf(LineAddr line) const
{
    // Same coarse granules as MemorySystem::dirOf.
    return static_cast<unsigned>((line >> 10) % modules.size());
}

std::vector<unsigned>
DistributedArbiter::rangesOf(const Signature &s) const
{
    std::vector<bool> mark(modules.size(), false);
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

bool
DistributedArbiter::moduleCollides(unsigned m, const Signature &s) const
{
    for (const auto &w : modules[m].wList) {
        if (w->intersects(s))
            return true;
    }
    return false;
}

void
DistributedArbiter::removeFrom(
    std::vector<std::shared_ptr<Signature>> &list,
    const std::shared_ptr<Signature> &w)
{
    for (auto it = list.begin(); it != list.end(); ++it) {
        if (it->get() == w.get()) {
            list.erase(it);
            return;
        }
    }
}

void
DistributedArbiter::requestCommit(ProcId p, std::uint64_t txn,
                                  std::shared_ptr<Signature> w,
                                  RProvider r_provider, Reply reply)
{
    NodeId gnode = firstNode + static_cast<NodeId>(modules.size());

    // The processor knows from the signatures which arbiter(s) to
    // contact (Section 4.2.3).
    auto r = r_provider();
    std::vector<unsigned> w_ranges = rangesOf(*w);
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

    if (ranges.size() == 1) {
        // Single-range commit: one arbiter module (Figure 8(a)).
        unsigned m = ranges[0];
        NodeId mnode = firstNode + m;
        bool w_here = !w_ranges.empty();
        unsigned bits = w->empty() ? 16 : w->compressedBits();
        if (!rsigOpt && r)
            net.send(p, mnode, TrafficClass::RdSig, r->compressedBits(),
                     [] {});
        auto deliver = [this, p, txn, w, r, m, mnode, w_here, reply] {
            if (dedupRequest(p, txn, reply, w))
                return;
            ++stats_.requests;
            ++nSingle;
            if (preArbBlocks(p)) {
                conclude(p, false, reply, mnode, w);
                return;
            }
            bool was_owner = preArbOwnedBy(p);
            // RSig round-trip latency is charged when the list is
            // non-empty at arrival; the decision itself (collision
            // check + list insertion) executes atomically later.
            bool need_r = !modules[m].wList.empty();
            if (need_r && rsigOpt)
                ++stats_.rsigRequired;
            eventq.scheduleAfter(
                processing + (need_r && rsigOpt
                                  ? 2 * net.latencyFor(
                                            r ? r->compressedBits()
                                              : 16)
                                  : 0),
                [this, p, w, r, m, mnode, w_here, was_owner, reply] {
                    bool ok = !moduleCollides(m, *w) &&
                              (!r || modules[m].wList.empty() ||
                               !moduleCollides(m, *r));
                    if (ok && w->empty()) {
                        ++stats_.emptyWCommits;
                    } else if (ok && w_here) {
                        wAccepted(w);
                        modules[m].wList.push_back(w);
                    }
                    if (was_owner) {
                        releasePreArb();
                        tryActivatePreArb();
                    }
                    conclude(p, ok, reply, mnode, w);
                });
        };
        sendRequest(p, mnode, bits, txn, deliver, MsgFootprint{});
        return;
    }

    // Multi-range commit: coordinate through the G-arbiter
    // (Figure 8(b)). Both signatures travel with the request.
    unsigned bits = (w->empty() ? 16 : w->compressedBits()) +
                    (r ? r->compressedBits() : 16);
    auto deliver = [this, p, txn, w, r, w_ranges, ranges, gnode,
                    reply] {
        if (dedupRequest(p, txn, reply, w))
            return;
        ++stats_.requests;
        ++nMulti;
        if (preArbBlocks(p)) {
            conclude(p, false, reply, gnode, w);
            return;
        }
        bool was_owner = preArbOwnedBy(p);
        if (was_owner)
            releasePreArb();

        // Early deny from the G-arbiter's own W cache.
        bool g_collide = false;
        for (const auto &gw : gList) {
            if (gw->intersects(*w) || (r && gw->intersects(*r))) {
                g_collide = true;
                break;
            }
        }
        if (g_collide) {
            if (was_owner)
                tryActivatePreArb();
            conclude(p, false, reply, gnode, w);
            return;
        }

        // Fan the signatures out to the involved modules; each module
        // votes and reserves on yes. The fan-out and votes are
        // reliable: they model on-chip wiring of one logical arbiter.
        auto votes = std::make_shared<unsigned>(
            static_cast<unsigned>(ranges.size()));
        auto all_ok = std::make_shared<bool>(true);
        auto reserved = std::make_shared<std::vector<unsigned>>();
        unsigned sig_bits = w->compressedBits() +
                            (r ? r->compressedBits() : 16);

        for (unsigned m : ranges) {
            bool w_here =
                std::find(w_ranges.begin(), w_ranges.end(), m) !=
                w_ranges.end();
            net.send(gnode, firstNode + m, TrafficClass::WrSig,
                     sig_bits,
                     [this, p, w, r, m, w_here, gnode, votes, all_ok,
                      reserved, was_owner, reply] {
                bool ok = !moduleCollides(m, *w) &&
                          (!r || !moduleCollides(m, *r));
                if (ok && w_here && !w->empty()) {
                    modules[m].wList.push_back(w);
                    reserved->push_back(m);
                }
                // Vote back to the G-arbiter.
                net.send(firstNode + m, gnode, TrafficClass::Other, 8,
                         [this, p, w, ok, gnode, votes, all_ok,
                          reserved, was_owner, reply] {
                    if (!ok)
                        *all_ok = false;
                    if (--*votes != 0)
                        return;
                    eventq.scheduleAfter(processing, [this, p, w,
                                                      gnode, all_ok,
                                                      reserved,
                                                      was_owner,
                                                      reply] {
                        // Only the final accept counts as in flight;
                        // the tentative module reservations above can
                        // still roll back.
                        if (*all_ok && w->empty()) {
                            ++stats_.emptyWCommits;
                        } else if (*all_ok) {
                            wAccepted(w);
                            gList.push_back(w);
                        } else {
                            for (unsigned rm : *reserved)
                                removeFrom(modules[rm].wList, w);
                        }
                        if (was_owner)
                            tryActivatePreArb();
                        conclude(p, *all_ok, reply, gnode, w);
                    });
                });
            });
        }
    };
    sendRequest(p, gnode, bits, txn, deliver, MsgFootprint{});
}

void
DistributedArbiter::commitDone(const std::shared_ptr<Signature> &w)
{
    for (auto &m : modules)
        removeFrom(m.wList, w);
    removeFrom(gList, w);
    wReleased(w);
    tryActivatePreArb();
}

std::uint64_t
DistributedArbiter::fingerprint() const
{
    std::uint64_t h = mix64(0x444152ULL); // "DAR"
    for (const Module &m : modules) {
        std::uint64_t ml = 0;
        for (const auto &w : m.wList)
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
