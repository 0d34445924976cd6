#include "cpu/lsq_processor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bulksc {

LsqProcessor::LsqProcessor(EventQueue &eq, const std::string &name,
                           ProcId pid, MemorySystem &mem,
                           const Trace &trace, const CpuParams &params,
                           const OrderingRow &row_)
    : ProcessorBase(eq, name, pid, mem, trace, params), row(row_)
{
    panic_if(row.loadPassesLoad && !row.loadPassesStore,
             "an out-of-order window retires stores into a buffer");
}

void
LsqProcessor::onAccessDone(LineAddr line, AccessTag tag)
{
    const std::uint32_t idx = tag.op;
    const auto e = static_cast<std::uint32_t>(tag.id);
    switch (static_cast<AccessKind>(tag.kind)) {
      case AccessKind::Load: {
        if (!completeEntry(idx, e))
            return;
        const Op &o = trace.ops[idx];
        if (o.aux != kNoSlot)
            recordLoad(o, forwardedValue(o.addr));
        advance();
        return;
      }
      case AccessKind::StoreOwn: {
        const Op &st = trace.ops[idx];
        if (st.tracked) {
            mem.writeValue(st.addr, st.storeValue);
            // Ownership of one address arrives in program order.
            auto it = std::find_if(
                storeBuffer.begin(), storeBuffer.end(),
                [&](std::size_t i) {
                    return trace.ops[i].addr == st.addr;
                });
            if (it != storeBuffer.end())
                storeBuffer.erase(it);
        }
        if (row.squashOnViolation && completeEntry(idx, e))
            advance();
        return;
      }
      case AccessKind::Drain: {
        const Op &st = trace.ops[idx];
        if (st.tracked)
            mem.writeValue(st.addr, st.storeValue);
        ++nDrained;
        storeBuffer.pop_front();
        drainInFlight = false;
        drainStores();
        advance(); // the front end may have stalled on a full buffer
        return;
      }
      case AccessKind::Chain:
        // Demand miss filled: perform now.
        busy = false;
        performTick = curTick() + 1;
        performChained(trace.ops[pos]);
        advance();
        return;
      default:
        ProcessorBase::onAccessDone(line, tag);
    }
}

void
LsqProcessor::issuePrefetches()
{
    if (prefetchPos < pos)
        prefetchPos = pos;
    while (prefetchPos < trace.ops.size() &&
           trace.instrsBetween(pos, prefetchPos) < prm.robInstrs) {
        const Op &op = trace.ops[prefetchPos];
        if (op.type == OpType::Load)
            mem.access(pid, op.addr, MemCmd::Prefetch, AccessTag{});
        else if (op.type == OpType::Store)
            mem.access(pid, op.addr, MemCmd::PrefetchEx, AccessTag{});
        ++prefetchPos;
    }
}

void
LsqProcessor::retireAndStep(const Op &op)
{
    nRetired += op.gap + 1;
    nextOp();
}

void
LsqProcessor::performChained(const Op &op)
{
    if (op.type == OpType::Load) {
        if (op.aux != kNoSlot)
            recordLoad(op, mem.readValue(op.addr));
    } else if (op.type == OpType::Store && op.tracked) {
        mem.writeValue(op.addr, op.storeValue);
    }
    retireAndStep(op);
}

const Op *
LsqProcessor::bufferedStore(Addr addr) const
{
    for (auto it = storeBuffer.rbegin(); it != storeBuffer.rend(); ++it) {
        const Op &st = trace.ops[*it];
        if (st.addr == addr)
            return &st;
    }
    return nullptr;
}

std::uint64_t
LsqProcessor::forwardedValue(Addr addr) const
{
    const Op *st = bufferedStore(addr);
    return st ? st->storeValue : mem.readValue(addr);
}

bool
LsqProcessor::olderAccessPending() const
{
    // The chain orders a sync behind older chained ops by its start
    // time; what remains is the window and a FIFO buffer's stores.
    return !window.empty() ||
           (!row.storePassesStore && !storeBuffer.empty());
}

bool
LsqProcessor::bufferStore(std::size_t idx)
{
    if (!row.storePassesStore) {
        storeBuffer.push_back(idx);
        drainStores();
        return false;
    }
    // Every store asks for ownership now and becomes visible when it
    // arrives. Only a store that carries a value has anything to
    // forward, so only such a store stays buffered while it waits.
    const Op &op = trace.ops[idx];
    auto lat = mem.access(pid, op.addr, MemCmd::ReadEx,
                          accessTag(AccessKind::StoreOwn, idx, epoch));
    if (op.tracked && lat)
        mem.writeValue(op.addr, op.storeValue);
    else if (op.tracked)
        storeBuffer.push_back(idx);
    return lat.has_value();
}

void
LsqProcessor::drainStores()
{
    if (drainInFlight || storeBuffer.empty())
        return;
    drainInFlight = true;
    const std::size_t idx = storeBuffer.front();
    accessTagged(trace.ops[idx].addr, MemCmd::ReadEx,
                 accessTag(AccessKind::Drain, idx));
}

void
LsqProcessor::issueToWindow(const Op &op)
{
    const std::size_t idx = pos;
    const LineAddr line = mem.lineOfAddr(op.addr);
    if (op.type == OpType::Load) {
        window.push_back({idx, line, epoch, false});
        auto lat = mem.access(pid, op.addr, MemCmd::Read,
                              accessTag(AccessKind::Load, idx, epoch));
        if (lat) {
            // L1 hit: completes within the window shadow.
            window.back().completed = true;
            if (op.aux != kNoSlot)
                recordLoad(op, forwardedValue(op.addr));
        }
    } else {
        // Stores never block: they retire into the store buffer. Where
        // a violation squashes, the entry completes only once
        // ownership arrives, so younger loads that performed meanwhile
        // stay in the window, open to squash; otherwise it completes
        // now.
        const bool owned = bufferStore(idx);
        window.push_back({idx, line, epoch,
                          owned || !row.squashOnViolation});
    }
    nextOp();
    nRetired += retireWindow();
}

void
LsqProcessor::advance()
{
    nRetired += retireWindow();
    // The chain batches L1-hit work into one event; the window issues
    // each op exactly when the front end delivers it.
    const Tick batch = row.loadPassesLoad ? 0 : prm.batchWindow;

    while (true) {
        if (pos >= trace.ops.size()) {
            if (!busy && window.empty() &&
                (row.storePassesStore || storeBuffer.empty()))
                markFinished();
            return;
        }
        if (busy || windowFull())
            return;
        if (row.prefetch)
            issuePrefetches();

        const Op &op = trace.ops[pos];
        Tick start = std::max(curTick(), fetchOp());
        const bool buffered =
            op.type == OpType::Store && row.loadPassesStore;
        if (buffered && row.storeBufferEntries &&
            storeBuffer.size() >= row.storeBufferEntries)
            return; // drainStores() re-calls advance()
        if (!buffered && !row.loadPassesLoad)
            start = std::max(start, performTick);
        if (start > curTick() + batch) {
            scheduleAdvance(start);
            return;
        }

        if (op.type != OpType::Load && op.type != OpType::Store) {
            // Synchronization executes at a precise time, in order.
            if (row.syncWaitsForOlder && olderAccessPending())
                return; // woken by the access that completes last
            if (start > curTick()) {
                scheduleAdvance(start);
                return;
            }
            busy = true;
            execSync(pos);
            return;
        }

        if (row.loadPassesLoad) {
            issueToWindow(op);
            continue;
        }
        if (buffered) {
            bufferStore(pos);
            retireAndStep(op);
            continue;
        }
        const Op *st = op.type == OpType::Load ? bufferedStore(op.addr)
                                               : nullptr;
        if (st) {
            // A load forwarded from the buffer makes no access.
            if (op.aux != kNoSlot)
                recordLoad(op, st->storeValue);
            performTick = start + 1;
            retireAndStep(op);
            continue;
        }
        MemCmd cmd =
            op.type == OpType::Load ? MemCmd::Read : MemCmd::ReadEx;
        auto lat =
            mem.access(pid, op.addr, cmd, accessTag(AccessKind::Chain));
        if (!lat) {
            busy = true;
            return;
        }
        // Each chained op waits for the previous one to complete, so
        // even L1 hits serialize at their full round-trip latency.
        // Prefetching turns most misses into hits but cannot remove
        // this chain.
        performTick = start + *lat;
        performChained(op);
    }
}

void
LsqProcessor::syncDone()
{
    busy = false;
    performTick = curTick();
    retireAndStep(trace.ops[sync.opIdx]);
    advance();
}

void
LsqProcessor::onExternalInval(LineAddr line)
{
    if (row.squashOnViolation)
        maybeSquash(line);
}

void
LsqProcessor::onLineDisplaced(LineAddr line, bool)
{
    // Unlike BulkSC, SC++ must also treat displacements of
    // speculatively accessed lines as potential violations, because
    // the SHiQ can no longer observe coherence events for them.
    if (row.squashOnViolation)
        maybeSquash(line);
}

void
LsqProcessor::maybeSquash(LineAddr line)
{
    // Completed ops still in the window performed while an older op
    // was incomplete: they are the speculative (SHiQ) set.
    for (const WinEntry &w : window) {
        if (!w.completed || w.line != line)
            continue;

        // Violation: roll back to this op and re-execute.
        const std::size_t target = w.opIdx;
        nWasted += trace.instrsBetween(target, pos);
        ++nSquashes;
        busy = false;
        rollBack(target);
        return;
    }
}

} // namespace bulksc
