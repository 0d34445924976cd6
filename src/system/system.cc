#include "system/system.hh"

#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/generator.hh"

namespace bulksc {

System::System(MachineConfig cfg_, std::vector<Trace> traces_)
    : cfg(std::move(cfg_)), traces(std::move(traces_))
{
    fatal_if(traces.empty(), "system needs at least one trace");
    if (cfg.numProcs > traces.size())
        cfg.numProcs = static_cast<unsigned>(traces.size());
    cfg.resolve();

    // Fault plane. Mixes that can lose or duplicate messages arm the
    // hardened (timeout/resend) protocol.
    std::vector<FaultPoint> pts;
    std::string err;
    fatal_if(!cfg.faults.empty() &&
                 !FaultPlane::parseSpec(cfg.faults, pts, err),
             "faults: ", err);
    faults.configure(std::move(pts), cfg.faultSeed);
    const bool harden = faults.requiresHardening();

    const unsigned np = cfg.numProcs;
    const unsigned nd = cfg.mem.numDirectories;

    net = std::make_unique<Network>(eq, cfg.net);
    memSys = std::make_unique<MemorySystem>(eq, *net, cfg.mem);
    if (faults.active()) {
        net->setFaultPlane(&faults);
        memSys->setFaultPlane(&faults);
    }
    if (harden)
        memSys->harden(cfg.resend);

    if (isBulk(cfg.model)) {
        if (cfg.numArbiters <= 1) {
            auto a = std::make_unique<Arbiter>(
                eq, *net, np + nd, cfg.arbProcessing, cfg.bulk.rsigOpt,
                cfg.maxSimulCommits);
            if (faults.active())
                a->setFaultPlane(&faults);
            arb = std::move(a);
        } else {
            fatal_if(faults.has(FaultKind::ArbSkipCollision),
                     "arb.skip_collision injection needs the central "
                     "arbiter (numArbiters <= 1)");
            arb = std::make_unique<DistributedArbiter>(
                eq, *net, np + nd, cfg.numArbiters, cfg.arbProcessing,
                cfg.bulk.rsigOpt);
        }
    }

    for (unsigned p = 0; p < np; ++p) {
        std::string name = "cpu" + std::to_string(p);
        if (const OrderingRow *row = orderingRow(cfg.model)) {
            procs.push_back(std::make_unique<LsqProcessor>(
                eq, name, p, *memSys, traces[p], cfg.cpu, *row));
            continue;
        }
        auto bp = std::make_unique<BulkProcessor>(
            eq, name, p, *memSys, traces[p], cfg.cpu, cfg.bulk, *arb);
        if (harden)
            bp->harden(cfg.resend);
        procs.push_back(std::move(bp));
    }

    if (cfg.watchdog.enabled && isBulk(cfg.model)) {
        std::vector<BulkProcessor *> bps;
        for (auto &p : procs) {
            if (auto *bp = dynamic_cast<BulkProcessor *>(p.get()))
                bps.push_back(bp);
        }
        if (!bps.empty()) {
            dog = std::make_unique<Watchdog>(eq, cfg.watchdog,
                                             std::move(bps), *net);
        }
    }
}

System::~System() = default;

void
System::enableAnalysis(bool axiomatic, bool race, bool replay)
{
    if (!axiomatic && !race && !replay)
        return;
    fatal_if(!isBulk(cfg.model),
             "the checkers observe chunk commits (BulkSC models)");
    AnalysisConfig acfg;
    acfg.axiomatic = axiomatic;
    acfg.race = race;
    acfg.replay = replay;
    acfg.numProcs = cfg.numProcs;
    // The workload generator keeps every synchronization variable
    // (locks, barrier words) in this dedicated range.
    acfg.syncLo = layout::kLockBase;
    acfg.syncHi = layout::kStreamBase;
    engine = std::make_unique<AnalysisEngine>(acfg);
    engine->setTrace(sink.get());
    for (auto &p : procs) {
        if (auto *bp = dynamic_cast<BulkProcessor *>(p.get()))
            bp->setAnalysis(engine.get());
    }
}

void
System::enableTrace(std::uint32_t cat_mask, std::size_t capacity)
{
    sink = std::make_unique<EventTrace>(cat_mask, capacity);
    eq.setTrace(sink.get());
    if (engine)
        engine->setTrace(sink.get());
}

void
System::setScheduleController(ScheduleController *c)
{
    eq.setController(c);
    net->setScheduleController(c);
}

std::uint64_t
System::stateFingerprint() const
{
    std::uint64_t h = mix64(0x535953ULL); // "SYS"
    for (const auto &p : procs)
        h = mix64(h ^ p->fingerprint());
    if (arb)
        h = mix64(h ^ arb->fingerprint());
    return mix64(h ^ memSys->fingerprint());
}

void
System::warmUp()
{
    // Warm everything except the streaming region (whose whole point
    // is to expose memory latency). Per processor, the first-touched
    // lines also warm the L1 — earliest-touched most-recently-used —
    // and per-processor-private lines whose first access is a store
    // start out dirty-owned, seeding the steady-state pattern the
    // dypvt optimization captures.
    //
    // Each op's line is warmed into the L2 in trace order. Warming a
    // present line is a no-op, so the walk warms a line only while it
    // is not known present: at its first touch, and again after a
    // warm of another line displaced it from the L2.
    struct FirstTouch
    {
        bool dirty = false;   //!< warm into the L1 dirty-owned
        bool present = false; //!< known to be in the L2
    };
    for (unsigned p = 0; p < procs.size(); ++p) {
        FlatMap<LineAddr, FirstTouch> touched;
        std::vector<LineAddr> order; // first-touch order
        for (const Op &op : traces[p].ops) {
            if (op.addr >= layout::kStreamBase)
                continue;
            const LineAddr line = memSys->lineOfAddr(op.addr);
            auto [t, fresh] = touched.tryEmplace(line);
            if (fresh) {
                const bool priv = (op.addr >= layout::kStackBase &&
                                   op.addr < layout::kSharedBase) ||
                                  op.addr >= layout::kLockBase;
                t->dirty = op.type == OpType::Store && priv &&
                           op.addr < layout::kLockBase;
                order.push_back(line);
            }
            if (t->present)
                continue;
            t->present = true;
            if (auto victim = memSys->warmLine(line)) {
                if (FirstTouch *v = touched.find(*victim))
                    v->present = false;
            }
        }
        // The earliest-touched lines should be resident (and most
        // recently used) at simulation start: take the first L1-sized
        // prefix of the touch order and insert it back-to-front.
        std::size_t count = order.size();
        if (count > cfg.mem.l1.numLines())
            count = cfg.mem.l1.numLines();
        for (std::size_t i = count; i-- > 0;)
            memSys->warmL1(p, order[i], touched.find(order[i])->dirty);
    }
}

Results
System::run(Tick limit)
{
    if (cfg.warmCaches)
        warmUp();
    for (auto &p : procs)
        p->start();
    if (dog)
        dog->start();
    eq.run(limit);

    Results res;
    res.completed = true;
    for (auto &p : procs) {
        if (!p->finished()) {
            res.completed = false;
            continue;
        }
        if (p->finishTick() > res.execTime)
            res.execTime = p->finishTick();
    }
    if (dog) {
        res.watchdogVerdict = dog->verdict();
        res.watchdogReport = dog->report();
    }
    if (!res.completed)
        res.execTime = eq.now();
    for (auto &p : procs)
        res.loadResults.push_back(p->loadResults());
    collectStats(res);
    return res;
}

void
System::collectStats(Results &res) const
{
    StatGroup &sg = res.stats;
    sg.set("exec_time", static_cast<double>(res.execTime));
    sg.set("model_is_bulk", isBulk(cfg.model) ? 1 : 0);

    // Network traffic by class (Figure 11), both absolute bits and
    // each class's share of the total.
    double totalBits = static_cast<double>(net->totalBits());
    for (unsigned c = 0;
         c < static_cast<unsigned>(TrafficClass::NumClasses); ++c) {
        auto cls = static_cast<TrafficClass>(c);
        double bits = static_cast<double>(net->bitsSent(cls));
        sg.set(std::string("net.bits.") + trafficClassName(cls), bits);
        sg.set(std::string("net.share.") + trafficClassName(cls),
               totalBits > 0 ? 100.0 * bits / totalBits : 0.0);
    }
    sg.set("net.bits.total", totalBits);
    sg.set("net.messages", static_cast<double>(net->messages()));
    sg.set("net.queueing_cycles",
           static_cast<double>(net->queueingCycles()));

    memSys->dumpStats(sg);

    // Processor aggregates.
    double retired = 0, wasted = 0, squashes = 0, spin = 0;
    for (const auto &p : procs) {
        retired += static_cast<double>(p->retiredInstrs());
        wasted += static_cast<double>(p->wastedInstrs());
        squashes += static_cast<double>(p->squashes());
        spin += static_cast<double>(p->spinInstrs());
    }
    sg.set("cpu.retired_instrs", retired);
    sg.set("cpu.wasted_instrs", wasted);
    sg.set("cpu.squashes", squashes);
    sg.set("cpu.spin_instrs", spin);
    sg.set("cpu.squashed_instr_pct",
           retired + wasted > 0 ? 100.0 * wasted / (retired + wasted)
                                : 0.0);

    if (faults.active()) {
        sg.set("faults.harden", faults.requiresHardening() ? 1 : 0);
        faults.dumpStats(sg, "faults.");
    }
    if (dog) {
        sg.set("watchdog.verdict",
               static_cast<double>(res.watchdogVerdict));
        sg.set("watchdog.checks", static_cast<double>(dog->checks()));
        sg.set("watchdog.rescues",
               static_cast<double>(dog->rescues()));
    }

    if (!isBulk(cfg.model))
        return;

    // BulkSC aggregates (Tables 3 and 4).
    BulkStats agg;
    for (const auto &p : procs) {
        const auto *bp = dynamic_cast<const BulkProcessor *>(p.get());
        if (!bp)
            continue;
        const BulkStats &b = bp->bulkStats();
        agg.commits += b.commits;
        agg.emptyWCommits += b.emptyWCommits;
        agg.deniedCommits += b.deniedCommits;
        agg.abortedGrants += b.abortedGrants;
        agg.rSizeSum += b.rSizeSum;
        agg.wSizeSum += b.wSizeSum;
        agg.wprivSizeSum += b.wprivSizeSum;
        agg.specReadDisplacements += b.specReadDisplacements;
        agg.specWriteDisplacements += b.specWriteDisplacements;
        agg.privBufferSupplies += b.privBufferSupplies;
        agg.privBufferOverflows += b.privBufferOverflows;
        agg.baseWritebacks += b.baseWritebacks;
        agg.invalNodes += b.invalNodes;
        agg.preArbRequests += b.preArbRequests;
        agg.trueConflictSquashes += b.trueConflictSquashes;
        agg.falsePositiveSquashes += b.falsePositiveSquashes;
        agg.unattributedSquashes += b.unattributedSquashes;
        agg.resends += b.resends;
        agg.resendGiveUps += b.resendGiveUps;
        agg.arbLatency.merge(b.arbLatency);
        agg.squashRestart.merge(b.squashRestart);
        agg.squashChunkSize.merge(b.squashChunkSize);
        agg.resendAttempts.merge(b.resendAttempts);
    }
    double commits = static_cast<double>(agg.commits);
    sg.set("bulk.commits", commits);
    sg.set("bulk.empty_w_pct",
           commits ? 100.0 * static_cast<double>(agg.emptyWCommits) /
                         commits
                   : 0.0);
    sg.set("bulk.denied_commits",
           static_cast<double>(agg.deniedCommits));
    sg.set("bulk.aborted_grants",
           static_cast<double>(agg.abortedGrants));
    sg.set("bulk.avg_write_set",
           commits ? agg.wSizeSum / commits : 0.0);
    sg.set("bulk.avg_priv_write_set",
           commits ? agg.wprivSizeSum / commits : 0.0);
    // Read-set sizes and speculative displacements are measured on
    // the exact mirror; without it the keys are absent, not 0.
    if (cfg.bulk.sigCfg.tracksExact()) {
        sg.set("bulk.avg_read_set",
               commits ? agg.rSizeSum / commits : 0.0);
        sg.set("bulk.spec_read_displacements",
               static_cast<double>(agg.specReadDisplacements));
        sg.set("bulk.spec_write_displacements",
               static_cast<double>(agg.specWriteDisplacements));
    }
    sg.set("bulk.priv_buffer_supplies",
           static_cast<double>(agg.privBufferSupplies));
    sg.set("bulk.priv_buffer_overflows",
           static_cast<double>(agg.privBufferOverflows));
    sg.set("bulk.base_writebacks",
           static_cast<double>(agg.baseWritebacks));
    sg.set("bulk.inval_nodes_total",
           static_cast<double>(agg.invalNodes));
    sg.set("bulk.nodes_per_wsig",
           commits ? static_cast<double>(agg.invalNodes) / commits
                   : 0.0);
    sg.set("bulk.pre_arbitrations",
           static_cast<double>(agg.preArbRequests));

    // Squash attribution (exact address sets vs Bloom aliasing).
    sg.set("bulk.squash.true_conflict",
           static_cast<double>(agg.trueConflictSquashes));
    sg.set("bulk.squash.false_positive",
           static_cast<double>(agg.falsePositiveSquashes));
    sg.set("bulk.squash.unattributed",
           static_cast<double>(agg.unattributedSquashes));
    agg.arbLatency.dumpInto(sg, "bulk.arb_latency.");
    agg.squashRestart.dumpInto(sg, "bulk.squash_restart.");
    agg.squashChunkSize.dumpInto(sg, "bulk.squash_chunk_size.");
    if (faults.requiresHardening()) {
        sg.set("bulk.resends", static_cast<double>(agg.resends));
        sg.set("bulk.resend_give_ups",
               static_cast<double>(agg.resendGiveUps));
        agg.resendAttempts.dumpInto(sg, "bulk.resend_attempts.");
    }

    if (engine)
        engine->dumpStats(sg);

    if (arb) {
        const ArbiterStats &as = arb->stats();
        sg.set("arb.fault_injected_grants",
               static_cast<double>(as.faultInjectedGrants));
        sg.set("arb.requests", static_cast<double>(as.requests));
        sg.set("arb.grants", static_cast<double>(as.grants));
        sg.set("arb.denials", static_cast<double>(as.denials));
        sg.set("arb.rsig_required_pct",
               as.requests ? 100.0 *
                                 static_cast<double>(as.rsigRequired) /
                                 static_cast<double>(as.requests)
                           : 0.0);
        sg.set("arb.empty_w_pct",
               as.grants ? 100.0 *
                               static_cast<double>(as.emptyWCommits) /
                               static_cast<double>(as.grants)
                         : 0.0);
        sg.set("arb.avg_pending_w", as.avgPendingW(res.execTime));
        sg.set("arb.non_empty_pct",
               100.0 * as.nonEmptyFrac(res.execTime));
        sg.set("arb.pre_arbitrations",
               static_cast<double>(as.preArbitrations));
        as.occupancy.dumpInto(sg, "arb.commit_occupancy.");
        if (const auto *da =
                dynamic_cast<const DistributedArbiter *>(arb.get())) {
            sg.set("arb.single_range_commits",
                   static_cast<double>(da->singleRangeCommits()));
            sg.set("arb.multi_range_commits",
                   static_cast<double>(da->multiRangeCommits()));
        }
        if (faults.active()) {
            sg.set("arb.dup_requests",
                   static_cast<double>(as.dupRequests));
            sg.set("arb.lost_requests",
                   static_cast<double>(as.lostRequests));
            sg.set("arb.lost_replies",
                   static_cast<double>(as.lostReplies));
        }
    }
}

Results
runWorkload(Model model, const AppProfile &profile, unsigned num_procs,
            std::uint64_t instrs_per_proc, const MachineConfig *cfg_in)
{
    MachineConfig cfg = cfg_in ? *cfg_in : MachineConfig{};
    cfg.model = model;
    cfg.numProcs = num_procs;
    auto traces = generateTraces(profile, num_procs, instrs_per_proc);
    System sys(std::move(cfg), std::move(traces));
    return sys.run();
}

} // namespace bulksc
