#include "cpu/processor_base.hh"

#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

ProcessorBase::ProcessorBase(EventQueue &eq, const std::string &name,
                             ProcId pid_, MemorySystem &mem_,
                             const Trace &trace_, const CpuParams &params)
    : SimObject(eq, name), pid(pid_), mem(mem_), trace(trace_),
      prm(params)
{
    panic_if(trace.cum.size() != trace.ops.size() + 1,
             "trace not finalized");
    // Access tags carry a 32-bit op index.
    panic_if(trace.ops.size() > UINT32_MAX, "trace too long");
    results.assign(trace.numSlots, 0);
    mem.setListener(pid, this);
}

void
ProcessorBase::start()
{
    scheduleAdvance(curTick());
}

void
ProcessorBase::scheduleAdvance(Tick when)
{
    if (when < curTick())
        when = curTick();
    if (advancePending && advanceAt <= when)
        return;
    advancePending = true;
    advanceAt = when;
    eventq.schedule(when, [this, when] {
        if (advancePending && advanceAt == when)
            advancePending = false;
        if (!finishedFlag)
            advance();
    });
}

Tick
ProcessorBase::fetchAdvance(std::uint32_t instrs)
{
    if (fetchTick < curTick())
        fetchTick = curTick();
    std::uint64_t total = instrs + fetchCarry;
    fetchTick += total / prm.issueWidth;
    fetchCarry = static_cast<std::uint32_t>(total % prm.issueWidth);
    return fetchTick;
}

void
ProcessorBase::markFinished()
{
    if (finishedFlag)
        return;
    finishedFlag = true;
    finishTick_ = curTick() > fetchTick ? curTick() : fetchTick;
}

void
ProcessorBase::chargeInstrs(unsigned n)
{
    nSpin += n;
    nRetired += n;
    fetchAdvance(n);
}

void
ProcessorBase::accessTagged(Addr addr, MemCmd cmd, AccessTag tag)
{
    if (auto lat = mem.access(pid, addr, cmd, tag)) {
        eventq.scheduleAfter(*lat,
                             [this, line = mem.lineOfAddr(addr),
                              tag] { onAccessDone(line, tag); });
    }
}

void
ProcessorBase::onAccessDone(LineAddr, AccessTag tag)
{
    // The default syncPerform()'s access: perform the primitive now.
    const auto e = static_cast<std::uint32_t>(tag.id);
    if (static_cast<AccessKind>(tag.kind) != AccessKind::Sync || epoch != e)
        return;
    if (sync.prim == SyncPrim::Store) {
        mem.writeValue(sync.addr, sync.value);
        syncStep(e, 0);
        return;
    }
    std::uint64_t old = mem.readValue(sync.addr);
    if (isRmw(sync.prim)) {
        std::uint64_t next = rmwResult(sync.prim, old);
        if (next != old)
            mem.writeValue(sync.addr, next);
    }
    syncStep(e, old);
}

void
ProcessorBase::syncPerform()
{
    if (sync.prim == SyncPrim::Io) {
        eventq.scheduleAfter(prm.ioLatency,
                             [this, e = epoch] { syncStep(e, 0); });
        return;
    }
    accessTagged(sync.addr,
                 sync.prim == SyncPrim::Load ? MemCmd::Read
                                             : MemCmd::ReadEx,
                 accessTag(AccessKind::Sync, 0, epoch));
}

void
ProcessorBase::execSync(std::size_t idx)
{
    sync = SyncRecord{idx, 0, 0, epoch};
    syncIssue();
}

void
ProcessorBase::syncPrimitive(SyncPrim prim, Addr addr, std::uint64_t value)
{
    sync.prim = prim;
    sync.addr = addr;
    sync.value = value;
    syncPerform();
}

void
ProcessorBase::syncIssue()
{
    // Centralized barrier: count word at op.addr, generation word one
    // line above.
    const Op &op = trace.ops[sync.opIdx];
    switch (op.type) {
      case OpType::Acquire:
        // Test-and-set; atomicity comes from the model's syncPerform.
        syncPrimitive(SyncPrim::TestAndSet, op.addr);
        return;
      case OpType::Release:
        syncPrimitive(SyncPrim::Store, op.addr, 0);
        return;
      case OpType::BarrierArrive:
        if (sync.phase == 0)
            syncPrimitive(SyncPrim::Increment, op.addr);
        else if (sync.phase == 1)
            syncPrimitive(SyncPrim::Store, op.addr, 0);
        else
            syncPrimitive(SyncPrim::Store, op.addr + prm.lineBytes,
                          op.aux + 1);
        return;
      case OpType::BarrierWait:
        syncPrimitive(SyncPrim::Load, op.addr + prm.lineBytes);
        return;
      case OpType::Io:
        syncPrimitive(SyncPrim::Io, 0);
        return;
      case OpType::TxBegin:
      case OpType::TxEnd:
        // Baselines have no transactional support: the markers are
        // no-ops (the BulkSC models intercept them before execSync
        // and align chunk boundaries to them).
        syncDone();
        return;
      default:
        panic("execSync called with non-sync op");
    }
}

void
ProcessorBase::syncStep(std::uint32_t e, std::uint64_t value)
{
    if (epoch != e)
        return;
    const Op &op = trace.ops[sync.opIdx];
    switch (op.type) {
      case OpType::Acquire:
        if (value == 0)
            break;
        // Lock held: exponential backoff, then test-and-set again.
        ++sync.attempts;
        syncSpin(prm.spinPoll * (sync.attempts < 8 ? sync.attempts : 8));
        return;
      case OpType::BarrierArrive:
        if (sync.phase == 0) {
            EVENT_TRACE(TraceEventType::BarrierArrive, curTick(),
                        trackProc(pid), 0, value + 1);
        }
        // The last arriver resets the count, then publishes generation
        // = barrier index + 1 (idempotent under chunk re-execution).
        if (sync.phase == 1 ||
            (sync.phase == 0 && value + 1 == prm.numBarrierProcs)) {
            ++sync.phase;
            syncIssue();
            return;
        }
        break;
      case OpType::BarrierWait:
        if (value >= op.aux + 1)
            break;
        syncSpin(prm.spinPoll); // generation not yet published
        return;
      default:
        break;
    }
    syncDone();
}

void
ProcessorBase::syncSpin(Tick backoff)
{
    chargeInstrs(prm.spinLoopInstrs);
    eventq.scheduleAfter(backoff, [this, e = sync.epoch] {
        if (epoch == e)
            syncIssue();
    });
}

std::uint64_t
ProcessorBase::fingerprint() const
{
    std::uint64_t h = mix64(0x435055ULL); // "CPU"
    h = mix64(h ^ pid);
    h = mix64(h ^ pos);
    h = mix64(h ^ (std::uint64_t{finishedFlag} << 1));
    for (std::uint64_t v : results)
        h = mix64(h ^ v);
    return h;
}

} // namespace bulksc
