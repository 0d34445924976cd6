#include "system/machine_config.hh"

#include <vector>

#include "sim/fault_plane.hh"
#include "sim/logging.hh"

namespace bulksc {

const char *
watchdogVerdictName(WatchdogVerdict v)
{
    switch (v) {
      case WatchdogVerdict::None:
        return "none";
      case WatchdogVerdict::Livelock:
        return "livelock";
      case WatchdogVerdict::Starvation:
        return "starvation";
      case WatchdogVerdict::Deadlock:
        return "deadlock";
      default:
        return "?";
    }
}

const char *
modelName(Model m)
{
    switch (m) {
      case Model::SC:
        return "SC";
      case Model::TSO:
        return "TSO";
      case Model::RC:
        return "RC";
      case Model::SCpp:
        return "SC++";
      case Model::BSCbase:
        return "BSCbase";
      case Model::BSCdypvt:
        return "BSCdypvt";
      case Model::BSCstpvt:
        return "BSCstpvt";
      case Model::BSCexact:
        return "BSCexact";
      default:
        return "?";
    }
}

Model
modelByName(const std::string &name)
{
    for (Model m : {Model::SC, Model::TSO, Model::RC, Model::SCpp,
                    Model::BSCbase,
                    Model::BSCdypvt, Model::BSCstpvt, Model::BSCexact}) {
        if (name == modelName(m))
            return m;
    }
    fatal("unknown model name: ", name);
}

bool
isBulk(Model m)
{
    return m == Model::BSCbase || m == Model::BSCdypvt ||
           m == Model::BSCstpvt || m == Model::BSCexact;
}

const OrderingRow *
orderingRow(Model m)
{
    // The baseline ordering table (docs/architecture.md). Columns:
    // load passes load, load passes store, store passes store, sync
    // waits for older accesses, prefetch inside the ROB, squash on a
    // violation, store-buffer entries (0 = unbounded).
    using R = OrderingRow;
    //                     ld>ld  ld>st  st>st  sync   pref   squash SB
    static constexpr R kSc  {false, false, false, true,  true,  false, 0};
    static constexpr R kTso {false, true,  false, true,  true,  false, 16};
    static constexpr R kRc  {true,  true,  true,  false, false, false, 0};
    static constexpr R kScpp{true,  true,  true,  true,  false, true,  0};
    switch (m) {
      case Model::SC:
        return &kSc;
      case Model::TSO:
        return &kTso;
      case Model::RC:
        return &kRc;
      case Model::SCpp:
        return &kScpp;
      default:
        return nullptr;
    }
}

bool
MachineConfig::validate(std::string &err) const
{
    auto fail = [&](std::string msg) {
        err = std::move(msg);
        return false;
    };

    if (numProcs < 1 || numProcs > 32) {
        return fail("procs must be between 1 and 32 (directory "
                    "sharer vectors are 32 bits wide), got " +
                    std::to_string(numProcs));
    }

    const SignatureConfig &sc = bulk.sigCfg;
    if (sc.numBanks == 0)
        return fail("sig-banks must be at least 1");
    if (sc.totalBits == 0 || sc.totalBits % sc.numBanks != 0) {
        return fail("sig-bits (" + std::to_string(sc.totalBits) +
                    ") must be a positive multiple of sig-banks (" +
                    std::to_string(sc.numBanks) + ")");
    }
    if (!isPowerOf2(sc.bitsPerBank())) {
        return fail("sig-bits / sig-banks (" +
                    std::to_string(sc.bitsPerBank()) +
                    ") must be a power of two — each bank is indexed "
                    "by an address-bit slice");
    }
    if (sc.bitsPerBank() < 2) {
        return fail("sig-bits / sig-banks must be at least 2 — a "
                    "one-bit bank has no index bits to hash into");
    }
    if (sc.numBanks >= 3 && sc.bitsPerBank() < 16) {
        return fail("sig-bits / sig-banks (" +
                    std::to_string(sc.bitsPerBank()) +
                    ") must be at least 16 with 3 or more banks — the "
                    "last bank XOR-folds in a 4-bit rotation of bank 1");
    }

    if (bulk.chunkSize == 0)
        return fail("chunk must be at least 1 instruction");
    if (bulk.minChunkSize > bulk.chunkSize) {
        return fail("chunk (" + std::to_string(bulk.chunkSize) +
                    ") must be at least the squash-shrink floor of " +
                    std::to_string(bulk.minChunkSize) +
                    " instructions");
    }
    if (bulk.maxLiveChunks == 0)
        return fail("a processor needs at least one live chunk");

    if (mem.numDirectories == 0)
        return fail("dirs must be at least 1");
    if (numArbiters == 0)
        return fail("arbiters must be at least 1");
    if (!faults.empty()) {
        std::vector<FaultPoint> pts;
        std::string ferr;
        if (!FaultPlane::parseSpec(faults, pts, ferr))
            return fail("faults: " + ferr);
        for (const FaultPoint &pt : pts) {
            if (pt.kind == FaultKind::ArbSkipCollision &&
                numArbiters > 1) {
                return fail("faults: arb.skip_collision requires the "
                            "central arbiter (arbiters 1), got "
                            "arbiters " + std::to_string(numArbiters));
            }
        }
    }
    if (watchdog.enabled && watchdog.interval == 0)
        return fail("watchdog-interval must be at least 1 tick");

    for (const CacheGeometry *g : {&mem.l1, &mem.l2}) {
        const char *name = g == &mem.l1 ? "l1" : "l2";
        if (g->lineBytes == 0 || g->assoc == 0 || g->sizeBytes == 0)
            return fail(std::string(name) +
                        " geometry must be non-zero");
        if (g->sizeBytes %
                (std::uint64_t{g->assoc} * g->lineBytes) !=
            0) {
            return fail(std::string(name) + " size (" +
                        std::to_string(g->sizeBytes) +
                        ") must be a multiple of assoc * line bytes");
        }
        // Tag arrays index sets with a mask and lines with a shift.
        if (!isPowerOf2(g->lineBytes)) {
            return fail(std::string(name) + " line bytes (" +
                        std::to_string(g->lineBytes) +
                        ") must be a power of two");
        }
        if (!isPowerOf2(g->numSets())) {
            return fail(std::string(name) + " set count (" +
                        std::to_string(g->numSets()) +
                        " = size / (assoc * line bytes)) must be a "
                        "power of two");
        }
    }
    if (isBulk(model) && mem.l1.assoc < 2) {
        return fail("BulkSC models need an l1 assoc of at least 2 — a "
                    "speculative line needs a spare way, so a "
                    "direct-mapped l1 ends every chunk at its first "
                    "store, got assoc " + std::to_string(mem.l1.assoc));
    }
    if (mem.l1.lineBytes != mem.l2.lineBytes) {
        return fail("l1 and l2 line sizes differ (" +
                    std::to_string(mem.l1.lineBytes) + " vs " +
                    std::to_string(mem.l2.lineBytes) +
                    ") — coherence is line-grained");
    }
    return true;
}

void
MachineConfig::resolve()
{
    mem.numProcs = numProcs;
    cpu.numBarrierProcs = numProcs;
    cpu.lineBytes = mem.l1.lineBytes;
    mem.bulkMode = isBulk(model);

    switch (model) {
      case Model::BSCbase:
        bulk.dynPrivOpt = false;
        bulk.statPrivOpt = false;
        bulk.sigCfg.exact = false;
        break;
      case Model::BSCdypvt:
        bulk.dynPrivOpt = true;
        bulk.statPrivOpt = false;
        bulk.sigCfg.exact = false;
        break;
      case Model::BSCstpvt:
        bulk.dynPrivOpt = false;
        bulk.statPrivOpt = true;
        bulk.sigCfg.exact = false;
        break;
      case Model::BSCexact:
        // The paper's BSCexact is BSCdypvt with an alias-free
        // signature.
        bulk.dynPrivOpt = true;
        bulk.statPrivOpt = false;
        bulk.sigCfg.exact = true;
        break;
      default:
        break;
    }
    // The distributed arbiter range-partitions chunks by their exact
    // address sets (Section 4.2.3) — Bloom bits alone cannot be
    // classified into ranges — so it needs the mirror regardless of
    // the stats setting. In exact mode the mirror IS the signature.
    if (numArbiters > 1 || bulk.sigCfg.exact)
        bulk.sigCfg.trackExact = true;
    mem.sigCfg = bulk.sigCfg;
}

} // namespace bulksc
