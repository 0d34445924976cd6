#include "system/watchdog.hh"

#include <sstream>

#include "core/bulk_processor.hh"
#include "network/network.hh"
#include "sim/event_trace.hh"
#include "sim/logging.hh"

namespace bulksc {

Watchdog::Watchdog(EventQueue &eq, const WatchdogConfig &cfg_,
                   std::vector<BulkProcessor *> procs_, Network &net_)
    : SimObject(eq, "watchdog"), cfg(cfg_), procs(std::move(procs_)),
      net(net_), rescued(procs.size(), false)
{
    fatal_if(procs.empty(), "the watchdog needs processors to watch");
}

void
Watchdog::start()
{
    lastSignature = progressSignature();
    eventq.scheduleAfter(cfg.interval, [this] { check(); });
}

std::uint64_t
Watchdog::progressSignature() const
{
    // Anything that counts as the machine doing work. Squashes are
    // included deliberately: a livelocked machine is *busy*, not
    // quiescent, and must be caught by the livelock detector (which
    // can name the culprit), not the deadlock one.
    std::uint64_t sig = net.messages();
    for (const BulkProcessor *p : procs) {
        sig += p->retiredInstrs() + p->wastedInstrs() +
               p->spinInstrs() + p->squashes();
    }
    return sig;
}

void
Watchdog::check()
{
    ++nChecks;

    bool allDone = true;
    for (const BulkProcessor *p : procs) {
        if (!p->finished()) {
            allDone = false;
            break;
        }
    }
    if (allDone)
        return; // run complete; let the queue drain

    if (cfg.tickCeiling && curTick() >= cfg.tickCeiling) {
        trip(WatchdogVerdict::Deadlock,
             "tick ceiling " + std::to_string(cfg.tickCeiling) +
                 " exceeded before completion");
        return;
    }

    // Deadlock / quiescence: nothing at all happened since the last
    // check(s). The watchdog's own event keeps the queue alive, so a
    // machine wedged by an abandoned commit request lands here rather
    // than draining the queue and timing out.
    std::uint64_t sig = progressSignature();
    if (sig == lastSignature) {
        if (++stalledChecks >= cfg.deadlockChecks) {
            trip(WatchdogVerdict::Deadlock,
                 "no progress for " + std::to_string(stalledChecks) +
                     " consecutive checks (" +
                     std::to_string(stalledChecks * cfg.interval) +
                     " ticks)");
            return;
        }
    } else {
        stalledChecks = 0;
        lastSignature = sig;
    }

    // Livelock: squash storm that chunk shrinking cannot break.
    for (const BulkProcessor *p : procs) {
        if (p->finished())
            continue;
        if (p->consecutiveSquashCount() >= cfg.livelockSquashes &&
            p->nextTarget() <= p->minChunkSize()) {
            trip(WatchdogVerdict::Livelock,
                 "proc " + std::to_string(p->procId()) + " squashed " +
                     std::to_string(p->consecutiveSquashCount()) +
                     " consecutive chunks at the minimum chunk size");
            return;
        }
    }

    // Starvation: one processor stopped committing while the machine
    // as a whole keeps moving (a globally-stuck machine is a deadlock
    // and is handled above). Graceful degradation first: shrink the
    // starved processor's chunk and give it pre-arbitration priority;
    // trip only if the gap keeps growing afterwards.
    Tick now = curTick();
    Tick youngest = kTickNever;
    for (const BulkProcessor *p : procs) {
        Tick age = now - p->lastCommitTick();
        if (age < youngest)
            youngest = age;
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        BulkProcessor *p = procs[i];
        if (p->finished())
            continue;
        Tick age = now - p->lastCommitTick();
        if (age < cfg.starvationGap || youngest >= cfg.starvationGap)
            continue;
        if (cfg.rescue && !rescued[i]) {
            rescued[i] = true;
            ++nRescues;
            p->rescueBoost();
            continue;
        }
        if (age >= 2 * cfg.starvationGap) {
            trip(WatchdogVerdict::Starvation,
                 "proc " + std::to_string(p->procId()) +
                     " has not committed a chunk for " +
                     std::to_string(age) + " ticks" +
                     (rescued[i] ? " despite a rescue boost" : ""));
            return;
        }
    }

    eventq.scheduleAfter(cfg.interval, [this] { check(); });
}

void
Watchdog::trip(WatchdogVerdict v, const std::string &why)
{
    verdict_ = v;
    report_ = diagnosticDump(why);
    EVENT_TRACE(TraceEventType::WatchdogTrip, curTick(), trackProc(0),
                0, static_cast<std::uint64_t>(v));
    eventq.stop();
}

std::string
Watchdog::diagnosticDump(const std::string &why) const
{
    std::ostringstream os;
    os << "watchdog: " << watchdogVerdictName(verdict_) << " at tick "
       << curTick() << ": " << why << "\n";
    os << "  checks=" << nChecks << " rescues=" << nRescues
       << " net_messages=" << net.messages() << "\n";
    for (const BulkProcessor *p : procs)
        os << p->chunkStateDump();
    return os.str();
}

} // namespace bulksc
