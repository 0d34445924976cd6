#include "system/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/stats.hh"
#include "system/run.hh"
#include "workload/app_profiles.hh"

namespace bulksc {

SweepRunner::SweepRunner(SimOptions base_, std::vector<SweepAxis> axes_)
    : base(std::move(base_)), axes(std::move(axes_))
{
    nPoints = 1;
    for (const SweepAxis &a : axes)
        nPoints *= a.values.size();
}

std::vector<std::pair<std::string, std::string>>
SweepRunner::pointSettings(std::size_t idx) const
{
    // Row-major: the last axis varies fastest.
    std::vector<std::pair<std::string, std::string>> out(axes.size());
    for (std::size_t a = axes.size(); a-- > 0;) {
        const SweepAxis &ax = axes[a];
        out[a] = {ax.name, ax.values[idx % ax.values.size()]};
        idx /= ax.values.size();
    }
    return out;
}

bool
SweepRunner::pointOptions(std::size_t idx, SimOptions &out,
                          std::string &err) const
{
    const OptionRegistry &reg = OptionRegistry::instance();
    out = base;
    for (const auto &[name, value] : pointSettings(idx)) {
        if (!reg.applyKeyValue(out, name, value, err))
            return false;
    }
    return true;
}

bool
SweepRunner::validateGrid(std::string &err) const
{
    const OptionRegistry &reg = OptionRegistry::instance();
    for (std::size_t i = 0; i < axes.size(); ++i) {
        const SweepAxis &a = axes[i];
        const OptionDesc *d = reg.find(a.name);
        if (!d || !d->inConfig) {
            err = "unknown sweep axis '" + a.name + "'";
            return false;
        }
        if (a.values.empty()) {
            err = "sweep axis '" + a.name + "' has no values";
            return false;
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (axes[j].name == a.name) {
                err = "sweep axis '" + a.name + "' given twice";
                return false;
            }
        }
    }
    for (std::size_t i = 0; i < nPoints; ++i) {
        SimOptions o;
        std::string perr;
        if (!pointOptions(i, o, perr) || !o.cfg.validate(perr)) {
            err = "point " + std::to_string(i) + ": " + perr;
            return false;
        }
        if (!lookupProfile(o.app)) {
            err = "point " + std::to_string(i) + ": unknown app '" +
                  o.app + "'";
            return false;
        }
    }
    return true;
}

std::string
SweepRunner::runPoint(std::size_t idx, bool &ok) const
{
    std::ostringstream os;
    os << "{\"point\": " << idx;
    SimOptions o;
    std::string err;
    const OptionRegistry &reg = OptionRegistry::instance();
    os << ", \"settings\": {";
    bool first_s = true;
    for (const auto &[name, value] : pointSettings(idx)) {
        const OptionDesc *d = reg.find(name);
        os << (first_s ? "" : ", ") << '"' << jsonEscape(name)
           << "\": ";
        first_s = false;
        if (d && d->kind == OptionDesc::Kind::UInt)
            os << value;
        else if (d && d->kind == OptionDesc::Kind::Flag)
            os << (value == "1" || value == "true" ? "true" : "false");
        else
            os << '"' << jsonEscape(value) << '"';
    }
    os << '}';
    if (!pointOptions(idx, o, err) || !o.cfg.validate(err)) {
        os << ", \"error\": \"" << jsonEscape(err) << "\"}";
        ok = false;
        return os.str();
    }
    ResolvedWorkload work;
    if (!resolveWorkload(o, work, err)) {
        os << ", \"error\": \"" << jsonEscape(err) << "\"}";
        ok = false;
        return os.str();
    }

    System sys(o.cfg, std::move(work.traces));
    sys.enableAnalysis(o.checks.axiomatic, o.checks.race, o.checks.replay);
    Results res = sys.run();

    os << ", \"model\": \"" << modelName(o.cfg.model) << '"';
    os << ", \"app\": \"" << jsonEscape(work.name) << '"';
    os << ", \"procs\": " << o.cfg.numProcs;
    os << ", \"instrs\": " << o.instrs;
    os << ", \"seed_salt\": " << o.seedSalt;
    if (!o.cfg.faults.empty())
        os << ", \"fault_seed\": " << o.cfg.faultSeed;
    os << ", \"completed\": " << (res.completed ? "true" : "false");
    os << ", \"watchdog\": \""
       << watchdogVerdictName(res.watchdogVerdict) << '"';
    os << ", \"stats\": {";
    res.stats.dumpJsonMembers(os, "", ", ");
    os << "}}";
    ok = res.completed &&
         res.watchdogVerdict == WatchdogVerdict::None;
    return os.str();
}

std::size_t
SweepRunner::run(unsigned workers, std::FILE *out, bool progress)
{
    if (workers == 0)
        workers = 1;
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, std::max<std::size_t>(
                                           nPoints, 1)));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failed{0};

    std::mutex mtx;
    std::condition_variable cv;
    std::map<std::size_t, std::string> ready;

    auto worker = [&] {
        while (true) {
            std::size_t idx = next.fetch_add(1);
            if (idx >= nPoints)
                return;
            bool ok = true;
            std::string rec = runPoint(idx, ok);
            if (!ok)
                failed.fetch_add(1);
            {
                std::lock_guard<std::mutex> lk(mtx);
                ready.emplace(idx, std::move(rec));
            }
            cv.notify_one();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);

    // Stream records strictly in point order: emit a record as soon as
    // it and every predecessor are available.
    std::size_t emitted = 0;
    {
        std::unique_lock<std::mutex> lk(mtx);
        while (emitted < nPoints) {
            cv.wait(lk, [&] { return ready.count(emitted) != 0; });
            while (true) {
                auto it = ready.find(emitted);
                if (it == ready.end())
                    break;
                std::fprintf(out, "%s\n", it->second.c_str());
                ready.erase(it);
                ++emitted;
                if (progress) {
                    std::fprintf(stderr, "\r%zu/%zu points", emitted,
                                 nPoints);
                }
            }
            std::fflush(out);
        }
    }
    if (progress)
        std::fprintf(stderr, "\n");

    for (std::thread &t : pool)
        t.join();
    return failed.load();
}

} // namespace bulksc
