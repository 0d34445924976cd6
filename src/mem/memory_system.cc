#include "mem/memory_system.hh"

#include <bit>

#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

namespace {

/** Footprint of a line-addressed coherence message (exploration). */
MsgFootprint
lineFp(LineAddr line)
{
    MsgFootprint fp;
    fp.hasLine = true;
    fp.line = line;
    return fp;
}

/** Footprint of a W-signature-carrying message (exploration). */
MsgFootprint
wsigFp(std::shared_ptr<const Signature> w)
{
    MsgFootprint fp;
    fp.wsig = std::move(w);
    return fp;
}

} // namespace

MemorySystem::MemorySystem(EventQueue &eq, Network &n,
                           const MemParams &params)
    : SimObject(eq, "memsys"), prm(params), net(n), l2(prm.l2)
{
    fatal_if(prm.numProcs == 0 || prm.numProcs > 32,
             "numProcs must be in [1, 32]");
    fatal_if(prm.numDirectories == 0, "need at least one directory");
    l1s.reserve(prm.numProcs);
    for (unsigned p = 0; p < prm.numProcs; ++p)
        l1s.emplace_back(prm.l1);
    for (unsigned d = 0; d < prm.numDirectories; ++d) {
        dirs.push_back(std::make_unique<Directory>(
            prm.sigCfg, prm.numProcs, prm.dirCacheEntries));
    }
    committingSigs.resize(prm.numDirectories);
}

void
MemorySystem::setListener(ProcId p, CacheListener *l)
{
    l1s.at(p).listener = l;
}

unsigned
MemorySystem::dirOf(LineAddr line) const
{
    // Coarse 32 KB granules (not line interleaving): a chunk with
    // data locality stays within one directory/arbiter range, which
    // is what makes distributed arbitration mostly single-range
    // (Section 4.2.3).
    return static_cast<unsigned>((line >> 10) % dirs.size());
}

const DirEntry *
MemorySystem::peekDir(LineAddr line) const
{
    return dirs[dirOf(line)]->peek(line);
}

CacheArray::VictimFilter
MemorySystem::filterFor(ProcId p)
{
    CacheListener *l = l1s[p].listener;
    if (!l)
        return nullptr;
    return [l](LineAddr line) { return l->mayVictimize(line); };
}

std::optional<Tick>
MemorySystem::access(ProcId p, Addr addr, MemCmd cmd, AccessCallback cb)
{
    LineAddr line = lineOf(addr, prm.l1.lineBytes);
    L1 &c = l1s[p];

    CacheLine *e = c.array.lookup(line);
    if (e && (!wantsOwnership(cmd) || e->state == LineState::Dirty))
        return prm.l1Latency;

    // Coalesce into an outstanding MSHR for the same line. The command
    // can still be strengthened until the directory starts processing.
    auto coalesce = [&](std::unordered_map<LineAddr, Mshr> &table) {
        auto it = table.find(line);
        if (it == table.end())
            return false;
        if (cb)
            it->second.callbacks.push_back(std::move(cb));
        if (wantsOwnership(cmd) && !it->second.dispatched &&
            !wantsOwnership(it->second.cmd)) {
            it->second.cmd = MemCmd::ReadEx;
        }
        return true;
    };
    if (coalesce(c.mshrs) || coalesce(c.queuedMshrs))
        return std::nullopt;

    if (c.mshrs.size() >= prm.l1Mshrs) {
        Mshr &m = c.queuedMshrs[line];
        m.cmd = cmd;
        if (cb)
            m.callbacks.push_back(std::move(cb));
        c.pendingQueue.emplace_back(line, cmd);
        return std::nullopt;
    }

    Mshr &m = c.mshrs[line];
    m.cmd = cmd;
    if (cb)
        m.callbacks.push_back(std::move(cb));
    dispatchMiss(p, line);
    return std::nullopt;
}

void
MemorySystem::dispatchMiss(ProcId p, LineAddr line)
{
    // Request message to the home directory.
    net.send(p, prm.numProcs + dirOf(line), TrafficClass::DataRdWr, 64,
             [this, p, line] {
                 auto it = l1s[p].mshrs.find(line);
                 if (it == l1s[p].mshrs.end())
                     return; // stale (should not happen)
                 dirHandleRequest(p, line, it->second.cmd);
             },
             lineFp(line));
}

void
MemorySystem::sendInval(ProcId target, LineAddr line)
{
    ++nInvals;
    net.send(prm.numProcs + dirOf(line), target, TrafficClass::Inval, 64,
             [this, target, line] {
                 // A racing in-flight fill must not resurrect the
                 // line after this invalidation.
                 auto mit = l1s[target].mshrs.find(line);
                 if (mit != l1s[target].mshrs.end())
                     mit->second.dropFill = true;
                 auto qit = l1s[target].queuedMshrs.find(line);
                 if (qit != l1s[target].queuedMshrs.end())
                     qit->second.dropFill = true;
                 LineState prev = l1s[target].array.invalidate(line);
                 if (prev == LineState::Dirty) {
                     // Dirty data travels with the acknowledgement.
                     l2Insert(line, LineState::Dirty);
                 }
                 if (prev != LineState::Invalid &&
                     l1s[target].listener) {
                     l1s[target].listener->onExternalInval(line);
                 }
                 // Acknowledgement (latency folded into the requester's
                 // response time; traffic accounted here).
                 net.send(target, prm.numProcs + dirOf(line),
                          TrafficClass::Inval, 16, [] {},
                          lineFp(line));
             },
             lineFp(line));
}

void
MemorySystem::dirHandleRequest(ProcId p, LineAddr line, MemCmd cmd,
                               unsigned bounces)
{
    unsigned d = dirOf(line);

    // Section 4.3.2: bounce reads to lines being committed. The retry
    // interval doubles per bounce up to the cap, so a reader stuck
    // behind a long (or wedged) commit backs off instead of hammering
    // the module every bounceRetry ticks forever.
    for (const auto &sig : committingSigs[d]) {
        if (sig->contains(line)) {
            ++nBounced;
            EVENT_TRACE(TraceEventType::DirBounce, curTick(),
                        trackDir(d), 0, line,
                        static_cast<std::uint8_t>(
                            bounces < 255 ? bounces : 255));
            Tick cap = prm.bounceRetryCap ? prm.bounceRetryCap
                                          : prm.bounceRetry * 32;
            unsigned shift = bounces < 16 ? bounces : 16;
            Tick delay = prm.bounceRetry << shift;
            if (delay > cap || delay < prm.bounceRetry)
                delay = cap;
            eventq.scheduleAfter(delay, [this, p, line, cmd, bounces] {
                dirHandleRequest(p, line, cmd, bounces + 1);
            });
            return;
        }
    }
    if (bounces > 0)
        bounceRetries.sample(static_cast<double>(bounces));

    auto it = l1s[p].mshrs.find(line);
    if (it != l1s[p].mshrs.end())
        it->second.dispatched = true;

    Directory &dir = *dirs[d];
    std::vector<DirDisplacement> displaced;
    const DirEntry *pe = dir.peek(line);
    bool owner_fetch = pe && pe->dirty && pe->owner != p;
    bool requester_had_copy = pe && pe->isSharer(p);

    if (owner_fetch && l1s[pe->owner].listener)
        l1s[pe->owner].listener->onExternalOwnerFetch(line);

    Tick lat = 0;
    if (wantsOwnership(cmd)) {
        std::uint32_t to_inval = dir.recordReadEx(line, p, displaced);
        std::uint32_t bits = to_inval;
        while (bits) {
            ProcId q = static_cast<ProcId>(std::countr_zero(bits));
            bits &= bits - 1;
            sendInval(q, line);
        }
        if (owner_fetch) {
            lat = prm.l2Latency + 2 * net.latencyFor(256);
        } else if (requester_had_copy) {
            lat = 1; // upgrade: no data transfer needed
        } else {
            CacheLine *l2e = l2.lookup(line);
            if (l2e) {
                lat = prm.l2Latency;
            } else {
                lat = prm.memLatency;
                l2Insert(line, LineState::Shared);
            }
        }
        if (to_inval) {
            Tick inval_lat = 2 * net.latencyFor(64) + 2;
            lat = lat > inval_lat ? lat : inval_lat;
        }
    } else {
        dir.recordRead(line, p, displaced);
        if (owner_fetch) {
            // Downgrade the owner; its data is written back to the L2
            // and forwarded to the requester.
            ProcId owner = pe->owner;
            CacheLine *oe = l1s[owner].array.lookup(line);
            if (oe && oe->state == LineState::Dirty)
                oe->state = LineState::Shared;
            l2Insert(line, LineState::Dirty);
            dir.recordWriteback(line, owner);
            net.send(owner, prm.numProcs + d, TrafficClass::DataRdWr,
                     256, [] {}, lineFp(line));
            lat = prm.l2Latency + 2 * net.latencyFor(256);
        } else {
            CacheLine *l2e = l2.lookup(line);
            if (l2e) {
                lat = prm.l2Latency;
            } else {
                lat = prm.memLatency;
                l2Insert(line, LineState::Shared);
            }
        }
    }

    handleDirDisplacements(d, displaced);

    // Data response after the access latency.
    eventq.scheduleAfter(lat, [this, p, line, d] {
        net.send(prm.numProcs + d, p, TrafficClass::DataRdWr, 256,
                 [this, p, line] {
                     auto mit = l1s[p].mshrs.find(line);
                     if (mit == l1s[p].mshrs.end())
                         return;
                     finishFill(p, line, mit->second.cmd);
                 },
                 lineFp(line));
    });
}

void
MemorySystem::finishFill(ProcId p, LineAddr line, MemCmd cmd)
{
    L1 &c = l1s[p];
    LineState st =
        wantsOwnership(cmd) ? LineState::Dirty : LineState::Shared;

    // An invalidation overtook this fill: complete the access without
    // installing the (stale) line.
    bool drop = false;
    {
        auto it = c.mshrs.find(line);
        if (it != c.mshrs.end())
            drop = it->second.dropFill;
    }

    std::optional<Victim> vic;
    CacheLine *ins = nullptr;
    if (!drop) {
        ins = c.array.insert(line, st, filterFor(p), vic);
        if (!ins)
            ++nFillBypasses;
    }

    if (vic) {
        if (vic->dirty) {
            ++nWritebacks;
            net.send(p, prm.numProcs + dirOf(vic->line),
                     TrafficClass::DataRdWr, 256, [] {},
                     lineFp(vic->line));
            l2Insert(vic->line, LineState::Dirty);
            dirs[dirOf(vic->line)]->recordWriteback(vic->line, p);
            dirs[dirOf(vic->line)]->dropSharer(vic->line, p);
        }
        if (!vic->dirty) {
            // Replacement hint: keep the bit-vector precise so W
            // signatures are only forwarded to live sharers.
            net.send(p, prm.numProcs + dirOf(vic->line),
                     TrafficClass::Other, 32, [] {},
                     lineFp(vic->line));
            dirs[dirOf(vic->line)]->dropSharer(vic->line, p);
        }
        if (c.listener)
            c.listener->onLineDisplaced(vic->line, vic->dirty);
    }

    auto it = c.mshrs.find(line);
    std::vector<AccessCallback> cbs;
    if (it != c.mshrs.end()) {
        cbs = std::move(it->second.callbacks);
        c.mshrs.erase(it);
    }

    // Promote queued requests into the freed MSHR.
    while (!c.pendingQueue.empty() && c.mshrs.size() < prm.l1Mshrs) {
        auto [qline, qcmd] = c.pendingQueue.front();
        c.pendingQueue.pop_front();
        auto qit = c.queuedMshrs.find(qline);
        if (qit == c.queuedMshrs.end())
            continue;
        c.mshrs[qline] = std::move(qit->second);
        c.queuedMshrs.erase(qit);
        dispatchMiss(p, qline);
    }

    for (auto &cb : cbs)
        cb();
}

void
MemorySystem::handleDirDisplacements(
    unsigned dir_idx, const std::vector<DirDisplacement> &disp)
{
    // Section 4.3.3: a displaced directory-cache entry is encoded into
    // a one-line signature and sent to all sharer caches for bulk
    // disambiguation; copies are invalidated (written back if dirty).
    for (const auto &dd : disp) {
        ++nDirDisplacements;
        auto sig = std::make_shared<Signature>(prm.sigCfg);
        sig->insert(dd.line);
        std::uint32_t bits = dd.sharers;
        while (bits) {
            ProcId q = static_cast<ProcId>(std::countr_zero(bits));
            bits &= bits - 1;
            net.send(prm.numProcs + dir_idx, q, TrafficClass::WrSig,
                     sig->compressedBits(),
                     [this, q, sig, line = dd.line] {
                         EVENT_TRACE(TraceEventType::BulkInval,
                                     curTick(), trackProc(q), 0, line,
                                     1);
                         if (l1s[q].listener)
                             l1s[q].listener->onRemoteWSig(*sig);
                         applyBulkInval(q, *sig, nullptr);
                     },
                     wsigFp(sig));
        }
    }
}

void
MemorySystem::l2Insert(LineAddr line, LineState st)
{
    std::optional<Victim> vic;
    l2.insert(line, st, nullptr, vic);
    if (vic && vic->dirty)
        ++nWritebacks;
}

void
MemorySystem::applyBulkInval(ProcId p, const Signature &w,
                             const std::unordered_set<LineAddr> *spec_lines)
{
    const bool spec_discard = spec_lines != nullptr;
    L1 &c = l1s[p];
    const std::uint64_t num_sets = c.array.geometry().numSets();

    // Delta-decode bank 0 into candidate cache sets, then probe each
    // resident line for membership (bulk invalidation, Section 2.2).
    std::vector<std::uint32_t> sets;
    std::vector<bool> seen(num_sets, false);
    for (std::uint32_t idx : w.decodeBank0()) {
        std::uint32_t set = idx % num_sets;
        if (!seen[set]) {
            seen[set] = true;
            sets.push_back(set);
        }
    }

    std::vector<LineAddr> victims;
    for (std::uint32_t set : sets) {
        c.array.forEachInSet(set, [&](const CacheLine &l) {
            if (w.contains(l.line))
                victims.push_back(l.line);
        });
    }

    // Cancel racing in-flight fills for member lines.
    for (auto &[mline, mshr] : c.mshrs) {
        if (!spec_discard && w.contains(mline))
            mshr.dropFill = true;
    }
    for (auto &[mline, mshr] : c.queuedMshrs) {
        if (!spec_discard && w.contains(mline))
            mshr.dropFill = true;
    }

    for (LineAddr line : victims) {
        // Aliasing stat: a commit-side invalidation that hit a
        // non-member line. Needs the stats mirror to be countable.
        if (!spec_discard && w.tracksExact() && !w.containsExact(line))
            ++nExtraInvals;
        // Squash discard: the chunk's truly written lines (its
        // per-line chunk-id bits) drop without writeback; aliased
        // victims hold committed data that must stay safe.
        bool spec_data = spec_discard && spec_lines->count(line) != 0;
        const CacheLine *e = c.array.peek(line);
        if (e && e->state == LineState::Dirty && !spec_data) {
            // Committed dirty data hit by (aliased) bulk invalidation:
            // write it back before dropping the line.
            ++nWritebacks;
            net.send(p, prm.numProcs + dirOf(line),
                     TrafficClass::DataRdWr, 256, [] {}, lineFp(line));
            l2Insert(line, LineState::Dirty);
            dirs[dirOf(line)]->recordWriteback(line, p);
        }
        c.array.invalidate(line);
        dirs[dirOf(line)]->dropSharer(line, p);
    }
}

void
MemorySystem::bulkCommit(ProcId committer, std::shared_ptr<Signature> w,
                         const std::unordered_set<LineAddr> &w_lines,
                         std::function<void()> done,
                         unsigned *inval_nodes_out)
{
    if (w->empty()) {
        done();
        return;
    }

    // Determine the interested directory modules from the written
    // lines (the arbiter knows the ranges a chunk touched).
    std::vector<unsigned> involved;
    if (dirs.size() == 1) {
        involved.push_back(0);
    } else {
        std::vector<bool> mark(dirs.size(), false);
        for (LineAddr l : w_lines) {
            unsigned d = dirOf(l);
            if (!mark[d]) {
                mark[d] = true;
                involved.push_back(d);
            }
        }
        if (involved.empty())
            involved.push_back(0);
    }

    auto remaining = std::make_shared<unsigned>(
        static_cast<unsigned>(involved.size()));
    auto user_done = std::make_shared<std::function<void()>>(
        std::move(done));

    for (unsigned d : involved) {
        auto txn = std::make_shared<CommitTxn>();
        // Service-time start, filled in when W reaches the module (the
        // shared_ptr keeps the txn free of a self-referential capture).
        auto start = std::make_shared<Tick>(0);
        txn->w = w;
        txn->onDone = [this, d, remaining, user_done, w, start] {
            dirCommitService.sample(
                static_cast<double>(curTick() - *start));
            auto &list = committingSigs[d];
            for (auto it = list.begin(); it != list.end(); ++it) {
                if (it->get() == w.get()) {
                    list.erase(it);
                    break;
                }
            }
            if (--*remaining == 0)
                (*user_done)();
        };
        txn->invalNodesOut = inval_nodes_out;
        sendCommitW(committer, d, txn, start, ++nextCommitId,
                    std::make_shared<bool>(false), 1);
    }
}

void
MemorySystem::sendCommitW(ProcId committer, unsigned d,
                          const std::shared_ptr<CommitTxn> &txn,
                          const std::shared_ptr<Tick> &start,
                          std::uint64_t id,
                          const std::shared_ptr<bool> &delivered,
                          unsigned attempt)
{
    if (attempt > 1) {
        ++nCommitResends;
        EVENT_TRACE(TraceEventType::Resend, curTick(), trackDir(d), id,
                    attempt - 1);
    }

    auto deliver = [this, d, committer, txn, start, id, delivered] {
        if (*delivered)
            return; // duplicate or late retransmission
        if (faults &&
            faults->dropMessage(
                FaultKind::DirNack, curTick(),
                static_cast<int>(TrafficClass::WrSig))) {
            // The module refuses service (resource pressure); no
            // explicit nack message travels — the committer's timeout
            // drives the retry.
            ++nDirNacks;
            EVENT_TRACE(TraceEventType::DirNack, curTick(),
                        trackDir(d), id, 0);
            return;
        }
        *delivered = true;
        *start = curTick();
        committingSigs[d].push_back(txn->w);
        dirHandleCommit(d, committer, txn);
    };

    if (net.sendLossy(committer, prm.numProcs + d, TrafficClass::WrSig,
                      txn->w->compressedBits(), FaultKind::DirCommitLoss,
                      true, deliver, wsigFp(txn->w))) {
        EVENT_TRACE(TraceEventType::FaultInject, curTick(), trackDir(d),
                    id,
                    static_cast<std::uint64_t>(
                        FaultKind::DirCommitLoss));
    }

    if (!resend)
        return;

    Tick delay = resendBackoff(resend->timeout, resend->timeoutCap,
                               attempt,
                               (std::uint64_t{0xd1} << 56) ^ (id << 8));
    eventq.scheduleAfter(delay, [this, committer, d, txn, start, id,
                                 delivered, attempt] {
        if (*delivered)
            return;
        if (attempt > resend->maxResend) {
            // Give up: this directory never saw the W, the commit can
            // never complete, and the committer wedges — which is
            // exactly what the watchdog exists to report.
            ++nCommitAbandoned;
            EVENT_TRACE(TraceEventType::ResendGiveUp, curTick(),
                        trackDir(d), id, attempt);
            return;
        }
        sendCommitW(committer, d, txn, start, id, delivered,
                    attempt + 1);
    });
}

void
MemorySystem::dirHandleCommit(unsigned dir_idx, ProcId committer,
                              const std::shared_ptr<CommitTxn> &txn)
{
    ExpansionResult res = dirs[dir_idx]->expand(*txn->w, committer);
    EVENT_TRACE(TraceEventType::DirExpand, curTick(), trackDir(dir_idx),
                0, res.lookups);
    nDirLookups += res.lookups;
    nDirAliasLookups += res.aliasLookups;
    nDirUpdates += res.updates;
    nDirAliasUpdates += res.aliasUpdates;

    Tick exp_lat = res.lookups ? static_cast<Tick>(res.lookups) : 1;

    eventq.scheduleAfter(exp_lat, [this, dir_idx, committer, txn,
                                   inval_list = res.invalidationList] {
        std::uint32_t targets =
            inval_list & ~(1u << committer);
        unsigned count = static_cast<unsigned>(std::popcount(targets));
        if (txn->invalNodesOut)
            *txn->invalNodesOut += count;
        if (count == 0) {
            txn->onDone();
            return;
        }
        txn->acksPending = count;
        std::uint32_t bits = targets;
        while (bits) {
            ProcId q = static_cast<ProcId>(std::countr_zero(bits));
            bits &= bits - 1;
            net.send(prm.numProcs + dir_idx, q, TrafficClass::WrSig,
                     txn->w->compressedBits(), [this, dir_idx, q, txn] {
                         EVENT_TRACE(TraceEventType::BulkInval,
                                     curTick(), trackProc(q), 0,
                                     dir_idx, 0);
                         if (l1s[q].listener)
                             l1s[q].listener->onRemoteWSig(*txn->w);
                         applyBulkInval(q, *txn->w, nullptr);
                         net.send(q, prm.numProcs + dir_idx,
                                  TrafficClass::Inval, 16,
                                  [txn] {
                                      if (--txn->acksPending == 0)
                                          txn->onDone();
                                  },
                                  wsigFp(txn->w));
                     },
                     wsigFp(txn->w));
        }
    });
}

void
MemorySystem::writebackLine(ProcId p, LineAddr line)
{
    ++nWritebacks;
    net.send(p, prm.numProcs + dirOf(line), TrafficClass::DataRdWr, 256,
             [] {}, lineFp(line));
    l2Insert(line, LineState::Dirty);
    dirs[dirOf(line)]->recordWriteback(line, p);
}

bool
MemorySystem::l1Contains(ProcId p, LineAddr line,
                         bool needs_ownership) const
{
    const CacheLine *e = l1s[p].array.peek(line);
    if (!e)
        return false;
    return !needs_ownership || e->state == LineState::Dirty;
}

void
MemorySystem::markDirty(ProcId p, LineAddr line)
{
    CacheLine *e = l1s[p].array.lookup(line);
    if (e)
        e->state = LineState::Dirty;
}

LineState
MemorySystem::l1State(ProcId p, LineAddr line) const
{
    const CacheLine *e = l1s[p].array.peek(line);
    return e ? e->state : LineState::Invalid;
}

void
MemorySystem::l1DiscardSpeculative(
    ProcId p, const Signature &w,
    const std::unordered_set<LineAddr> &spec_lines)
{
    applyBulkInval(p, w, &spec_lines);
}

void
MemorySystem::restoreLine(ProcId p, LineAddr line)
{
    std::optional<Victim> vic;
    CacheLine *ins =
        l1s[p].array.insert(line, LineState::Dirty, filterFor(p), vic);
    if (!ins) {
        // No insertable way: keep the restored data safe in the L2.
        l2Insert(line, LineState::Dirty);
        return;
    }
    if (vic && vic->dirty) {
        ++nWritebacks;
        l2Insert(vic->line, LineState::Dirty);
        dirs[dirOf(vic->line)]->recordWriteback(vic->line, p);
    }
}

void
MemorySystem::warmLine(LineAddr line)
{
    if (l2.peek(line))
        return;
    std::optional<Victim> vic;
    l2.insert(line, LineState::Shared, nullptr, vic);
}

void
MemorySystem::warmL1(ProcId p, LineAddr line, bool dirty)
{
    warmLine(line);
    std::optional<Victim> vic;
    l1s[p].array.insert(line,
                        dirty ? LineState::Dirty : LineState::Shared,
                        nullptr, vic);
    std::vector<DirDisplacement> displaced;
    if (dirty)
        dirs[dirOf(line)]->recordReadEx(line, p, displaced);
    else
        dirs[dirOf(line)]->recordRead(line, p, displaced);
    if (vic)
        dirs[dirOf(vic->line)]->dropSharer(vic->line, p);
    handleDirDisplacements(dirOf(line), displaced);
}

std::uint64_t
MemorySystem::readValue(Addr addr) const
{
    auto it = values.find(addr);
    return it == values.end() ? 0 : it->second;
}

void
MemorySystem::writeValue(Addr addr, std::uint64_t v)
{
    values[addr] = v;
}

std::uint64_t
MemorySystem::l1Hits() const
{
    std::uint64_t n = 0;
    for (const auto &c : l1s)
        n += c.array.hits();
    return n;
}

std::uint64_t
MemorySystem::l1Misses() const
{
    std::uint64_t n = 0;
    for (const auto &c : l1s)
        n += c.array.misses();
    return n;
}

void
MemorySystem::dumpStats(StatGroup &sg, const std::string &prefix) const
{
    sg.set(prefix + "l1_hits", static_cast<double>(l1Hits()));
    sg.set(prefix + "l1_misses", static_cast<double>(l1Misses()));
    sg.set(prefix + "bounced_reads", static_cast<double>(nBounced));
    sg.set(prefix + "invalidations", static_cast<double>(nInvals));
    sg.set(prefix + "writebacks", static_cast<double>(nWritebacks));
    sg.set(prefix + "dir_lookups", static_cast<double>(nDirLookups));
    sg.set(prefix + "dir_updates", static_cast<double>(nDirUpdates));
    // Aliasing is only countable against the exact mirror: without it
    // these keys are absent rather than a misleading 0.
    if (prm.sigCfg.tracksExact()) {
        sg.set(prefix + "extra_invals",
               static_cast<double>(nExtraInvals));
        sg.set(prefix + "dir_alias_lookups",
               static_cast<double>(nDirAliasLookups));
        sg.set(prefix + "dir_alias_updates",
               static_cast<double>(nDirAliasUpdates));
    }
    sg.set(prefix + "dir_displacements",
           static_cast<double>(nDirDisplacements));
    sg.set(prefix + "fill_bypasses", static_cast<double>(nFillBypasses));
    dirCommitService.dumpInto(sg, prefix + "dir_commit_service.");
    if (bounceRetries.samples())
        bounceRetries.dumpInto(sg, prefix + "bounce_retries.");
    if (nCommitResends || nCommitAbandoned || nDirNacks) {
        sg.set(prefix + "commit_resends",
               static_cast<double>(nCommitResends));
        sg.set(prefix + "commit_abandoned",
               static_cast<double>(nCommitAbandoned));
        sg.set(prefix + "dir_nacks", static_cast<double>(nDirNacks));
    }
}

std::uint64_t
MemorySystem::fingerprint() const
{
    std::uint64_t h = mix64(0x4d454dULL); // "MEM"
    for (std::size_t p = 0; p < l1s.size(); ++p) {
        const L1 &l1 = l1s[p];
        h = mix64(h ^ l1.array.fingerprint());
        // MSHR and pending-queue membership, order-insensitively.
        std::uint64_t m = 0;
        for (const auto &[line, mshr] : l1.mshrs)
            m += mix64(line ^ (std::uint64_t{mshr.dispatched} << 60));
        for (const auto &qm : l1.queuedMshrs)
            m += mix64(mix64(qm.first) ^ 0x71);
        for (const auto &[line, cmd] : l1.pendingQueue)
            m += mix64(line ^ (static_cast<std::uint64_t>(cmd) << 56));
        h = mix64(h ^ m);
    }
    h = mix64(h ^ l2.fingerprint());
    std::uint64_t d = 0;
    for (const auto &dir : dirs)
        d = mix64(d ^ dir->fingerprint());
    h = mix64(h ^ d);
    std::uint64_t c = 0;
    for (const auto &sigs : committingSigs) {
        for (const auto &w : sigs)
            c += mix64(w->hash());
        c = mix64(c);
    }
    h = mix64(h ^ c);
    std::uint64_t v = 0;
    for (const auto &[addr, val] : values)
        v += mix64(mix64(addr) ^ val);
    return mix64(h ^ v);
}

} // namespace bulksc
