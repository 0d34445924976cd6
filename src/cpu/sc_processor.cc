#include "cpu/sc_processor.hh"

namespace bulksc {

ScProcessor::ScProcessor(EventQueue &eq, const std::string &name,
                         ProcId pid, MemorySystem &mem,
                         const Trace &trace, const CpuParams &params)
    : ProcessorBase(eq, name, pid, mem, trace, params)
{}

void
ScProcessor::issuePrefetches()
{
    if (prefetchPos < pos)
        prefetchPos = pos;
    while (prefetchPos < trace.ops.size() &&
           trace.instrsBetween(pos, prefetchPos) < prm.robInstrs) {
        const Op &op = trace.ops[prefetchPos];
        if (op.type == OpType::Load) {
            mem.access(pid, op.addr, MemCmd::Prefetch, nullptr);
        } else if (op.type == OpType::Store) {
            mem.access(pid, op.addr, MemCmd::PrefetchEx, nullptr);
        }
        ++prefetchPos;
    }
}

void
ScProcessor::completeOp(const Op &op)
{
    if (op.type == OpType::Load) {
        if (op.tracked || op.aux != kNoSlot)
            recordLoad(op, mem.readValue(op.addr));
    } else if (op.type == OpType::Store) {
        if (op.tracked)
            mem.writeValue(op.addr, op.storeValue);
    }
    nRetired += op.gap + 1;
    ++pos;
    gapCharged = false;
}

void
ScProcessor::advance()
{
    if (busy)
        return;
    while (true) {
        if (pos >= trace.ops.size()) {
            markFinished();
            return;
        }
        issuePrefetches();

        const Op &op = trace.ops[pos];
        if (!gapCharged) {
            fetchAvail = fetchAdvance(op.gap + 1);
            gapCharged = true;
        }

        Tick start = curTick();
        if (fetchAvail > start)
            start = fetchAvail;
        if (performTick > start)
            start = performTick;

        if (start > curTick() + prm.batchWindow) {
            scheduleAdvance(start);
            return;
        }

        if (op.type != OpType::Load && op.type != OpType::Store) {
            // Synchronization executes at a precise time, in order.
            if (start > curTick()) {
                scheduleAdvance(start);
                return;
            }
            busy = true;
            execSync(op, [this, &op] {
                busy = false;
                performTick = curTick();
                completeOp(op);
                advance();
            });
            return;
        }

        MemCmd cmd =
            op.type == OpType::Load ? MemCmd::Read : MemCmd::ReadEx;
        auto lat = mem.access(pid, op.addr, cmd, [this] {
            // Demand miss filled: perform now.
            busy = false;
            performTick = curTick() + 1;
            completeOp(trace.ops[pos]);
            advance();
        });
        if (!lat) {
            busy = true;
            return;
        }
        // Requirement (i) of Section 2.1: the next memory operation
        // waits for the previous one to complete, so even L1 hits
        // serialize at their full round-trip latency. Prefetching
        // turns most misses into hits but cannot remove this chain.
        performTick = start + *lat;
        completeOp(op);
    }
}

} // namespace bulksc
