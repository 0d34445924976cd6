#include "cpu/rc_processor.hh"

namespace bulksc {

RcProcessor::RcProcessor(EventQueue &eq, const std::string &name,
                         ProcId pid, MemorySystem &mem,
                         const Trace &trace, const CpuParams &params)
    : ProcessorBase(eq, name, pid, mem, trace, params)
{}

std::uint64_t
RcProcessor::readForwarded(Addr addr) const
{
    auto it = pendingStores.find(addr);
    if (it != pendingStores.end() && !it->second.empty())
        return it->second.back();
    return mem.readValue(addr);
}

void
RcProcessor::retire()
{
    while (!window.empty() && window.front().completed) {
        const Op &op = trace.ops[window.front().opIdx];
        nRetired += op.gap + 1;
        window.pop_front();
    }
}

bool
RcProcessor::windowFull() const
{
    if (window.size() >= prm.windowOps)
        return true;
    if (!window.empty() &&
        trace.instrsBetween(window.front().opIdx, pos) >= prm.robInstrs) {
        return true;
    }
    return false;
}

void
RcProcessor::advance()
{
    retire();

    while (true) {
        if (pos >= trace.ops.size()) {
            if (window.empty() && !syncBusy)
                markFinished();
            return;
        }
        if (syncBusy || windowFull())
            return;

        const Op &op = trace.ops[pos];
        if (!gapCharged) {
            fetchAvail = fetchAdvance(op.gap + 1);
            gapCharged = true;
        }
        if (fetchAvail > curTick()) {
            scheduleAdvance(fetchAvail);
            return;
        }

        if (op.type == OpType::Load) {
            std::size_t idx = pos;
            window.push_back(
                {idx, lineOf(op.addr, prm.lineBytes), false, true});
            // NOTE: no epoch guard here — after a squash the window
            // scan simply finds nothing (dropped entries), while
            // completions for surviving older entries must still
            // land or the window would wedge.
            auto lat = mem.access(pid, op.addr, MemCmd::Read,
                                  [this, idx] {
                                      for (auto &w : window) {
                                          if (w.opIdx == idx)
                                              w.completed = true;
                                      }
                                      const Op &o = trace.ops[idx];
                                      if (o.aux != kNoSlot)
                                          recordLoad(
                                              o,
                                              readForwarded(o.addr));
                                      advance();
                                  });
            if (lat) {
                // L1 hit: completes within the window shadow.
                window.back().completed = true;
                if (op.aux != kNoSlot)
                    recordLoad(op, readForwarded(op.addr));
            }
            ++pos;
            gapCharged = false;
            retire();
        } else if (op.type == OpType::Store) {
            // Stores never block: they retire into the write buffer
            // and become visible when ownership arrives.
            window.push_back(
                {pos, lineOf(op.addr, prm.lineBytes), true, false});
            Addr a = op.addr;
            std::uint64_t v = op.storeValue;
            bool tracked = op.tracked;
            auto lat = mem.access(pid, a, MemCmd::ReadEx,
                                  [this, a, v, tracked] {
                                      if (tracked) {
                                          mem.writeValue(a, v);
                                          auto it =
                                              pendingStores.find(a);
                                          if (it !=
                                                  pendingStores.end() &&
                                              !it->second.empty()) {
                                              it->second.pop_front();
                                              if (it->second.empty())
                                                  pendingStores.erase(
                                                      it);
                                          }
                                      }
                                  });
            if (lat) {
                if (tracked)
                    mem.writeValue(a, v);
            } else if (tracked) {
                pendingStores[a].push_back(v);
            }
            ++pos;
            gapCharged = false;
            retire();
        } else {
            // Synchronization: wait for it to complete before issuing
            // further ops (conservative; sync is rare).
            syncBusy = true;
            execSync(op, [this, idx = pos] {
                syncBusy = false;
                nRetired += trace.ops[idx].gap + 1;
                ++pos;
                gapCharged = false;
                advance();
            });
            return;
        }
    }
}

} // namespace bulksc
