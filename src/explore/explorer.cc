#include "explore/explorer.hh"

#include <chrono>
#include <deque>
#include <thread>
#include <unordered_set>

#include "sim/rng.hh"
#include "system/system.hh"

namespace bulksc {

bool
configureExploration(SimOptions &opts, ExploreConfig &ec,
                     std::string &err)
{
    ResolvedWorkload work;
    if (!resolveWorkload(opts, work, err))
        return false;

    ec = ExploreConfig{};
    static_cast<ExploreSettings &>(ec) = opts.explore;
    ec.machine = opts.cfg;
    if (opts.explore.delayChoices > 0) {
        // Turn every delivery latency into an explored choice by
        // installing an always-on delay window; with a controller
        // attached the window is a choice domain, not a random roll.
        std::string item = "net.delay=0:" +
                           std::to_string(opts.explore.delayChoices);
        ec.machine.faults += ec.machine.faults.empty() ? item
                                                       : "," + item;
    }
    ec.traces = std::move(work.traces);
    ec.allowedSC = std::move(work.allowedSC);

    // --check selects exactly the listed checkers; without it the
    // axiomatic checker runs alone.
    if (opts.checks.any()) {
        ec.checkAxiomatic = opts.checks.axiomatic;
        ec.checkRace = opts.checks.race;
        ec.checkReplay = opts.checks.replay;
    }
    return true;
}

Explorer::Explorer(ExploreConfig cfg) : ecfg(std::move(cfg))
{
    if (ecfg.jobs == 0)
        ecfg.jobs = 1;
}

RunOutcome
Explorer::runOne(const Schedule &prefix, Results *full) const
{
    RunOutcome out;

    // The controller must outlive the System: queued events still
    // hold tags when the queue is torn down mid-run (tick limit).
    RunController ctrl(prefix, ecfg.por);

    System sys(ecfg.machine, ecfg.traces);
    ctrl.setFingerprintFn([&sys] { return sys.stateFingerprint(); });
    sys.setScheduleController(&ctrl);
    sys.enableAnalysis(ecfg.checkAxiomatic, ecfg.checkRace,
                       ecfg.checkReplay);

    Results res = sys.run(ecfg.tickLimit);

    out.execTime = res.execTime;
    out.trace = ctrl.trace();
    out.mismatches = ctrl.mismatches();
    Judgement j = judgeRun(sys.analysis(), res, ecfg.allowedSC);
    out.verdict = j.verdict;
    out.detail = std::move(j.detail);
    if (full)
        *full = std::move(res);
    return out;
}

void
Explorer::minimizeCounterexample(const Schedule &full,
                                 ExploreVerdict target,
                                 ExploreResult &r) const
{
    // Linear upward search for the shortest forced prefix that still
    // reproduces the verdict; len == full.size() replays the found
    // run exactly, so the loop always terminates with a hit.
    for (std::size_t len = 0; len <= full.size(); ++len) {
        RunOutcome out = runOne(full.prefix(len));
        ++r.minimizeRuns;
        if (out.verdict == target) {
            r.minimizedPrefixLen = len;
            r.counterexample = scheduleOf(out.trace);
            return;
        }
    }
    r.minimizedPrefixLen = full.size();
    r.counterexample = full;
}

ExploreResult
Explorer::explore()
{
    ExploreResult r;
    auto t0 = std::chrono::steady_clock::now();
    auto wallMs = [&t0] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::deque<Schedule> frontier;
    frontier.emplace_back();
    std::unordered_set<std::uint64_t> visited;

    std::vector<Schedule> batch;
    std::vector<RunOutcome> outs;

    while (!frontier.empty()) {
        if (r.schedulesRun >= ecfg.maxSchedules ||
            (ecfg.wallLimitMs && wallMs() >= ecfg.wallLimitMs)) {
            r.budgetExhausted = true;
            break;
        }
        if (frontier.size() > r.frontierPeak)
            r.frontierPeak = frontier.size();

        std::size_t want = ecfg.jobs;
        if (want > frontier.size())
            want = frontier.size();
        std::uint64_t left = ecfg.maxSchedules - r.schedulesRun;
        if (want > left)
            want = static_cast<std::size_t>(left);

        batch.clear();
        for (std::size_t k = 0; k < want; ++k) {
            if (ecfg.bfs) {
                batch.push_back(std::move(frontier.front()));
                frontier.pop_front();
            } else {
                batch.push_back(std::move(frontier.back()));
                frontier.pop_back();
            }
        }

        outs.assign(batch.size(), RunOutcome{});
        if (batch.size() == 1) {
            outs[0] = runOne(batch[0]);
        } else {
            std::vector<std::thread> pool;
            pool.reserve(batch.size());
            for (std::size_t k = 0; k < batch.size(); ++k) {
                pool.emplace_back([this, &batch, &outs, k] {
                    outs[k] = runOne(batch[k]);
                });
            }
            for (auto &t : pool)
                t.join();
        }

        // Expansion is strictly sequential in pop order: the
        // enumeration is identical for any jobs value.
        for (std::size_t k = 0; k < batch.size(); ++k) {
            const Schedule &pfx = batch[k];
            RunOutcome &out = outs[k];
            std::uint64_t idx = r.schedulesRun++;
            r.decisionsTotal += out.trace.size();
            if (onSchedule)
                onSchedule(idx, pfx, out);

            if (out.verdict != ExploreVerdict::OK) {
                ++r.violations;
                if (!r.found) {
                    r.found = true;
                    r.verdict = out.verdict;
                    r.detail = out.detail;
                    Schedule full = scheduleOf(out.trace);
                    if (ecfg.minimize) {
                        minimizeCounterexample(full, out.verdict, r);
                    } else {
                        r.minimizedPrefixLen = full.size();
                        r.counterexample = std::move(full);
                    }
                    if (ecfg.stopAtFirst) {
                        r.wallMs = wallMs();
                        return r;
                    }
                }
                continue; // violating runs are not expanded
            }

            for (std::size_t i = pfx.size();
                 i < out.trace.size() && i < ecfg.maxDecisions; ++i) {
                const DecisionRecord &rec = out.trace[i];
                for (std::uint32_t a = 1;
                     a < rec.numOptions && a < 64; ++a) {
                    if (a == rec.chosen)
                        continue;
                    if (!((rec.allowedMask >> a) & 1)) {
                        ++r.prunedPor;
                        continue;
                    }
                    if (ecfg.fpPrune && rec.fingerprint) {
                        // Same machine state + same choice => same
                        // continuation, wherever it was reached from.
                        std::uint64_t key = mix64(
                            rec.fingerprint ^
                            mix64((std::uint64_t{a} << 8) ^
                                  static_cast<std::uint64_t>(
                                      rec.kind)));
                        if (!visited.insert(key).second) {
                            ++r.prunedFingerprint;
                            continue;
                        }
                    }
                    Schedule child;
                    child.choices.reserve(i + 1);
                    for (std::size_t j = 0; j < i; ++j)
                        child.choices.push_back(
                            out.trace[j].choice());
                    child.choices.push_back(
                        Choice{rec.kind, a, rec.numOptions});
                    frontier.push_back(std::move(child));
                }
            }
        }
    }

    r.exhaustive = frontier.empty() && !r.budgetExhausted;
    r.wallMs = wallMs();
    return r;
}

} // namespace bulksc
