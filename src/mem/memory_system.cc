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
wsigFp(SigPtr w)
{
    MsgFootprint fp;
    fp.wsig = std::move(w);
    return fp;
}

} // namespace

MemorySystem::MemorySystem(EventQueue &eq, Network &n,
                           const MemParams &params)
    : SimObject(eq, "memsys"), prm(params),
      lineShift(prm.l1.lineShift()), net(n), l2(prm.l2)
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
MemorySystem::access(ProcId p, Addr addr, MemCmd cmd, AccessTag tag)
{
    LineAddr line = lineOfAddr(addr);
    L1 &c = l1s[p];

    CacheLine *e = c.array.lookup(line);
    if (e && (!wantsOwnership(cmd) || e->state == LineState::Dirty))
        return prm.l1Latency;

    // Coalesce into the line's MSHR, sent or waiting. The command can
    // still be strengthened until the directory starts processing.
    const bool full = c.sent() >= prm.l1Mshrs;
    auto [m, fresh] = c.mshrs.tryEmplace(line);
    if (!fresh) {
        if (wantsOwnership(cmd) && !m->dispatched &&
            !wantsOwnership(m->cmd))
            m->cmd = MemCmd::ReadEx;
        if (tag)
            m->waiters.push_back(tag);
        return std::nullopt;
    }

    m->cmd = cmd;
    if (tag)
        m->waiters.push_back(tag);
    if (full)
        c.waiting.push_back(line);
    else
        dispatchMiss(p, line);
    return std::nullopt;
}

void
MemorySystem::dispatchMiss(ProcId p, LineAddr line)
{
    // Request message to the home directory.
    net.send(p, prm.numProcs + dirOf(line), TrafficClass::DataRdWr, 64,
             [this, p, line] {
                 const Mshr *m = l1s[p].mshrs.find(line);
                 if (!m)
                     return; // stale (should not happen)
                 dirHandleRequest(p, line, m->cmd);
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
                 if (Mshr *m = l1s[target].mshrs.find(line))
                     m->dropFill = true;
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

    if (Mshr *m = l1s[p].mshrs.find(line))
        m->dispatched = true;

    // Read the entry before recording: recording may insert into the
    // directory's table, which moves its entries.
    Directory &dir = *dirs[d];
    std::vector<DirDisplacement> displaced;
    const DirEntry *pe = dir.peek(line);
    const bool owner_fetch = pe && pe->dirty && pe->owner != p;
    const bool requester_had_copy = pe && pe->isSharer(p);
    const ProcId owner = owner_fetch ? pe->owner : 0;

    if (owner_fetch && l1s[owner].listener)
        l1s[owner].listener->onExternalOwnerFetch(line);

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
            lat = fetchShared(line);
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
            CacheLine *oe = l1s[owner].array.lookup(line);
            if (oe && oe->state == LineState::Dirty)
                oe->state = LineState::Shared;
            l2Insert(line, LineState::Dirty);
            dir.recordWriteback(line, owner);
            net.send(owner, prm.numProcs + d, TrafficClass::DataRdWr,
                     256, [] {}, lineFp(line));
            lat = prm.l2Latency + 2 * net.latencyFor(256);
        } else {
            lat = fetchShared(line);
        }
    }

    handleDirDisplacements(d, displaced);

    // Data response after the access latency.
    eventq.scheduleAfter(lat, [this, p, line, d] {
        net.send(prm.numProcs + d, p, TrafficClass::DataRdWr, 256,
                 [this, p, line] {
                     if (l1s[p].mshrs.contains(line))
                         finishFill(p, line);
                 },
                 lineFp(line));
    });
}

void
MemorySystem::finishFill(ProcId p, LineAddr line)
{
    L1 &c = l1s[p];
    const Mshr &m = c.mshrs.at(line);
    LineState st =
        wantsOwnership(m.cmd) ? LineState::Dirty : LineState::Shared;

    // An invalidation overtook this fill: complete the access without
    // installing the (stale) line.
    std::optional<Victim> vic;
    if (!m.dropFill && !c.array.insert(line, st, filterFor(p), vic))
        ++nFillBypasses;

    if (vic) {
        if (vic->dirty) {
            writebackLine(p, vic->line);
            dirs[dirOf(vic->line)]->dropSharer(vic->line, p);
        } else {
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

    // Taken only now, and looked up again: the displacement listener
    // may have coalesced another waiter, or opened an MSHR that moved
    // this one.
    std::vector<AccessTag> waiters = std::move(c.mshrs.at(line).waiters);
    c.mshrs.erase(line);

    // Send waiting lines into the freed MSHR.
    while (!c.waiting.empty() && c.sent() < prm.l1Mshrs) {
        LineAddr next = c.waiting.front();
        c.waiting.pop_front();
        dispatchMiss(p, next);
    }

    if (c.listener) {
        for (AccessTag tag : waiters)
            c.listener->onAccessDone(line, tag);
    }
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

Tick
MemorySystem::fetchShared(LineAddr line)
{
    if (l2.lookup(line))
        return prm.l2Latency;
    l2Insert(line, LineState::Shared);
    return prm.memLatency;
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
    // A bank-0 index is the line's low-order bits, so a bank narrower
    // than the set count covers every set congruent to it.
    const std::uint64_t bank_bits = w.config().bitsPerBank();
    std::vector<std::uint32_t> sets;
    std::vector<bool> seen(num_sets, false);
    for (std::uint32_t idx : w.decodeBank0()) {
        for (std::uint64_t set = idx & (num_sets - 1); set < num_sets;
             set += bank_bits) {
            if (!seen[set]) {
                seen[set] = true;
                sets.push_back(static_cast<std::uint32_t>(set));
            }
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
            writebackLine(p, line);
        }
        c.array.invalidate(line);
        dirs[dirOf(line)]->dropSharer(line, p);
    }
}

void
MemorySystem::bulkCommit(ProcId committer, std::uint64_t tag, SigPtr w,
                         const std::unordered_set<LineAddr> &w_lines)
{
    if (w->empty()) {
        if (CacheListener *l = l1s[committer].listener)
            l->onCommitDone(tag, 0);
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

    std::uint64_t commit = ++nextCommit;
    commits[commit] = CommitRecord{committer, tag, std::move(w),
                                   static_cast<unsigned>(involved.size()),
                                   0};
    for (unsigned d : involved) {
        std::uint64_t id = ++nextCommitMsg;
        dirCommits[id] = DirCommit{commit, d};
        sendCommitW(id, 1);
    }
}

void
MemorySystem::sendCommitW(std::uint64_t id, unsigned attempt)
{
    const DirCommit &dc = dirCommits.at(id);
    const CommitRecord &cr = commits.at(dc.commit);
    unsigned d = dc.dir;
    if (attempt > 1) {
        ++nCommitResends;
        EVENT_TRACE(TraceEventType::Resend, curTick(), trackDir(d), id,
                    attempt - 1);
    }

    if (net.sendLossy(cr.committer, prm.numProcs + d, TrafficClass::WrSig,
                      cr.w->compressedBits(), FaultKind::DirCommitLoss,
                      true, [this, id] { commitWArrived(id); },
                      wsigFp(cr.w))) {
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
    eventq.scheduleAfter(delay, [this, id, attempt] {
        const DirCommit *dc = dirCommits.find(id);
        if (!dc || dc->delivered)
            return;
        if (attempt > resend->maxResend) {
            // Give up: this directory never saw the W, the commit can
            // never complete, and the committer wedges — which is
            // exactly what the watchdog exists to report.
            ++nCommitAbandoned;
            EVENT_TRACE(TraceEventType::ResendGiveUp, curTick(),
                        trackDir(dc->dir), id, attempt);
            return;
        }
        sendCommitW(id, attempt + 1);
    });
}

void
MemorySystem::commitWArrived(std::uint64_t id)
{
    DirCommit *found = dirCommits.find(id);
    if (!found || found->delivered)
        return; // duplicate or late retransmission
    DirCommit &dc = *found;
    if (faults &&
        faults->dropMessage(FaultKind::DirNack, curTick(),
                            static_cast<int>(TrafficClass::WrSig))) {
        // The module refuses service (resource pressure); no explicit
        // nack message travels — the committer's timeout drives the
        // retry.
        ++nDirNacks;
        EVENT_TRACE(TraceEventType::DirNack, curTick(), trackDir(dc.dir),
                    id, 0);
        return;
    }
    dc.delivered = true;
    dc.start = curTick();
    const CommitRecord &cr = commits.at(dc.commit);
    committingSigs[dc.dir].push_back(cr.w);

    ExpansionResult res = dirs[dc.dir]->expand(*cr.w, cr.committer);
    EVENT_TRACE(TraceEventType::DirExpand, curTick(), trackDir(dc.dir),
                0, res.lookups);
    nDirLookups += res.lookups;
    nDirAliasLookups += res.aliasLookups;
    nDirUpdates += res.updates;
    nDirAliasUpdates += res.aliasUpdates;

    // After the expansion, W goes to the sharers in the Invalidation
    // List (Section 4.3).
    Tick exp_lat = res.lookups ? static_cast<Tick>(res.lookups) : 1;
    eventq.scheduleAfter(exp_lat, [this, id,
                                   inval_list = res.invalidationList] {
        DirCommit &dc = dirCommits.at(id);
        CommitRecord &cr = commits.at(dc.commit);
        std::uint32_t targets = inval_list & ~(1u << cr.committer);
        unsigned count = static_cast<unsigned>(std::popcount(targets));
        cr.invalNodes += count;
        if (count == 0) {
            commitModuleDone(id);
            return;
        }
        dc.acksPending = count;
        const unsigned d = dc.dir;
        for (std::uint32_t bits = targets; bits; bits &= bits - 1) {
            ProcId q = static_cast<ProcId>(std::countr_zero(bits));
            net.send(prm.numProcs + d, q, TrafficClass::WrSig,
                     cr.w->compressedBits(), [this, id, d, q] {
                SigPtr w = commits.at(dirCommits.at(id).commit).w;
                EVENT_TRACE(TraceEventType::BulkInval, curTick(),
                            trackProc(q), 0, d, 0);
                if (l1s[q].listener)
                    l1s[q].listener->onRemoteWSig(*w);
                applyBulkInval(q, *w, nullptr);
                net.send(q, prm.numProcs + d, TrafficClass::Inval, 16,
                         [this, id] {
                             if (--dirCommits.at(id).acksPending == 0)
                                 commitModuleDone(id);
                         },
                         wsigFp(w));
            }, wsigFp(cr.w));
        }
    });
}

void
MemorySystem::commitModuleDone(std::uint64_t id)
{
    const DirCommit dc = dirCommits.at(id);
    dirCommits.erase(id);
    dirCommitService.sample(static_cast<double>(curTick() - dc.start));
    CommitRecord &cr = commits.at(dc.commit);
    eraseSig(committingSigs[dc.dir], *cr.w);
    if (--cr.modulesPending != 0)
        return;
    CommitRecord done = std::move(cr);
    commits.erase(dc.commit);
    if (CacheListener *l = l1s[done.committer].listener)
        l->onCommitDone(done.tag, done.invalNodes);
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
    // An owner fetch or a remote write took the line: the committed
    // copy is in the L2, and a Dirty copy here would let the next
    // store skip W, so it would never be published.
    const DirEntry *e = peekDir(line);
    if (!e || !e->dirty || e->owner != p)
        return;
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

std::optional<LineAddr>
MemorySystem::warmLine(LineAddr line)
{
    if (l2.peek(line))
        return std::nullopt;
    std::optional<Victim> vic;
    l2.insert(line, LineState::Shared, nullptr, vic);
    if (!vic)
        return std::nullopt;
    return vic->line;
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
    const std::uint64_t *v = values.find(addr);
    return v ? *v : 0;
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
        // MSHR membership, order-insensitively; a waiting line also
        // carries the command it will be sent with.
        std::uint64_t m = 0;
        for (const auto &[line, mshr] : l1.mshrs)
            m += mix64(line ^ (std::uint64_t{mshr.dispatched} << 60));
        for (LineAddr line : l1.waiting) {
            auto cmd = static_cast<std::uint64_t>(l1.mshrs.at(line).cmd);
            m += mix64(mix64(line) ^ 0x71 ^ (cmd << 56));
        }
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
