#include "cpu/processor_base.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/trace_log.hh"

namespace bulksc {

ProcessorBase::ProcessorBase(EventQueue &eq, const std::string &name,
                             ProcId pid_, MemorySystem &mem_,
                             const Trace &trace_, const CpuParams &params)
    : SimObject(eq, name), pid(pid_), mem(mem_), trace(trace_),
      prm(params)
{
    panic_if(trace.cum.size() != trace.ops.size() + 1,
             "trace not finalized");
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
    if (onFinished)
        onFinished();
}

void
ProcessorBase::chargeInstrs(unsigned n)
{
    nSpin += n;
    nRetired += n;
    fetchAdvance(n);
}

void
ProcessorBase::execIo(std::function<void()> done)
{
    eventq.scheduleAfter(prm.ioLatency, std::move(done));
}

void
ProcessorBase::syncLoad(Addr addr,
                        std::function<void(std::uint64_t)> done)
{
    auto lat = mem.access(pid, addr, MemCmd::Read, [this, addr, done] {
        done(mem.readValue(addr));
    });
    if (lat) {
        eventq.scheduleAfter(*lat, [this, addr, done] {
            done(mem.readValue(addr));
        });
    }
}

void
ProcessorBase::syncStore(Addr addr, std::uint64_t value,
                         std::function<void()> done)
{
    auto lat =
        mem.access(pid, addr, MemCmd::ReadEx, [this, addr, value, done] {
            mem.writeValue(addr, value);
            done();
        });
    if (lat) {
        eventq.scheduleAfter(*lat, [this, addr, value, done] {
            mem.writeValue(addr, value);
            done();
        });
    }
}

void
ProcessorBase::syncRmw(
    Addr addr, std::function<std::uint64_t(std::uint64_t)> modify,
    std::function<void(std::uint64_t)> done)
{
    auto fin = [this, addr, modify, done] {
        std::uint64_t old = mem.readValue(addr);
        std::uint64_t next = modify(old);
        if (next != old)
            mem.writeValue(addr, next);
        done(old);
    };
    auto lat = mem.access(pid, addr, MemCmd::ReadEx, fin);
    if (lat)
        eventq.scheduleAfter(*lat, fin);
}

void
ProcessorBase::execSync(const Op &op, std::function<void()> done)
{
    // A squash (epoch bump) abandons any in-flight sync chain; the
    // re-executed op starts a fresh one.
    const std::uint64_t e = epoch;
    switch (op.type) {
      case OpType::Acquire: {
        // Test-and-set with exponential backoff; atomicity comes from
        // the model's syncRmw primitive.
        // The stored function must not own itself (a shared_ptr
        // cycle never frees): it captures a weak_ptr, and each
        // in-flight continuation carries the strong reference.
        auto attempt = std::make_shared<std::function<void()>>();
        auto attempts = std::make_shared<unsigned>(0);
        Addr lock = op.addr;
        std::weak_ptr<std::function<void()>> wattempt = attempt;
        *attempt = [this, e, lock, done, wattempt, attempts] {
            if (epoch != e)
                return;
            auto self = wattempt.lock();
            syncRmw(
                lock,
                [](std::uint64_t v) {
                    return v == 0 ? std::uint64_t{1} : v;
                },
                [this, e, done, self,
                 attempts](std::uint64_t old) {
                    if (epoch != e)
                        return;
                    if (old == 0) {
                        done();
                        return;
                    }
                    ++*attempts;
                    chargeInstrs(prm.spinLoopInstrs);
                    unsigned factor =
                        *attempts < 8 ? *attempts : 8;
                    eventq.scheduleAfter(prm.spinPoll * factor,
                                         [self] { (*self)(); });
                });
        };
        (*attempt)();
        return;
      }
      case OpType::Release:
        syncStore(op.addr, 0, std::move(done));
        return;
      case OpType::BarrierArrive: {
        // Centralized barrier: count word at op.addr, generation word
        // one line above. The last arriver resets the count and
        // publishes generation = barrier index + 1 (idempotent under
        // chunk re-execution).
        Addr count_addr = op.addr;
        Addr gen_addr = op.addr + prm.lineBytes;
        std::uint64_t gen_val = op.aux + 1;
        unsigned total = prm.numBarrierProcs;
        syncRmw(
            count_addr,
            [](std::uint64_t v) { return v + 1; },
            [this, e, count_addr, gen_addr, gen_val, total,
             done](std::uint64_t old) {
                if (epoch != e)
                    return;
                TRACE_LOG(TraceCat::Sync, curTick(), name(),
                          ": barrier arrive, count ", old, " -> ",
                          old + 1);
                if (old + 1 == total) {
                    syncStore(count_addr, 0,
                              [this, e, gen_addr, gen_val, done] {
                                  if (epoch != e)
                                      return;
                                  syncStore(gen_addr, gen_val, done);
                              });
                } else {
                    done();
                }
            });
        return;
      }
      case OpType::BarrierWait: {
        Addr gen_addr = op.addr + prm.lineBytes;
        std::uint64_t want = op.aux + 1;
        // Weak self-capture, as in Acquire above.
        auto poll = std::make_shared<std::function<void()>>();
        std::weak_ptr<std::function<void()>> wpoll = poll;
        *poll = [this, e, gen_addr, want, done, wpoll] {
            if (epoch != e)
                return;
            auto self = wpoll.lock();
            syncLoad(gen_addr,
                     [this, e, want, done, self](std::uint64_t v) {
                         if (epoch != e)
                             return;
                         if (v >= want) {
                             done();
                             return;
                         }
                         chargeInstrs(prm.spinLoopInstrs);
                         eventq.scheduleAfter(prm.spinPoll,
                                              [self] { (*self)(); });
                     });
        };
        (*poll)();
        return;
      }
      case OpType::Io:
        execIo(std::move(done));
        return;
      case OpType::TxBegin:
      case OpType::TxEnd:
        // Baselines have no transactional support: the markers are
        // no-ops (the BulkSC models intercept them before execSync
        // and align chunk boundaries to them).
        done();
        return;
      default:
        panic("execSync called with non-sync op");
    }
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
