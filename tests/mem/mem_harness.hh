/**
 * @file
 * A memory system under test, with a listener on every L1 that records
 * what the memory system reports: completed accesses (as AccessTags),
 * invalidations, displacements, W signatures, owner fetches and
 * finished commits. Shared by the memory-system test files.
 */

#ifndef BULKSC_TESTS_MEM_MEM_HARNESS_HH
#define BULKSC_TESTS_MEM_MEM_HARNESS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "mem/memory_system.hh"

namespace bulksc::memtest {

/** Listener that records the events it sees. */
struct Recorder : public CacheListener
{
    /** One reported access. */
    struct Done
    {
        LineAddr line;
        std::uint32_t op; //!< the tag's op (tagged() numbers accesses)
        Tick when;
        bool installed; //!< the line was in the L1 when reported
    };

    const EventQueue *eq = nullptr;
    const MemorySystem *mem = nullptr;
    ProcId proc = 0;
    std::vector<Done> done;
    std::vector<LineAddr> invals;
    std::vector<LineAddr> displaced;
    std::vector<LineAddr> ownerFetches;
    unsigned wsigs = 0;
    std::vector<LineAddr> vetoed;
    std::vector<std::pair<std::uint64_t, unsigned>> commitsDone;

    void
    onAccessDone(LineAddr l, AccessTag t) override
    {
        done.push_back({l, t.op, eq->now(), mem->l1Contains(proc, l)});
    }
    void onExternalInval(LineAddr l) override { invals.push_back(l); }
    void
    onLineDisplaced(LineAddr l, bool) override
    {
        displaced.push_back(l);
    }
    void onRemoteWSig(const Signature &) override { ++wsigs; }
    void
    onExternalOwnerFetch(LineAddr l) override
    {
        ownerFetches.push_back(l);
    }
    void
    onCommitDone(std::uint64_t commit, unsigned inval_nodes) override
    {
        commitsDone.emplace_back(commit, inval_nodes);
    }
    bool
    mayVictimize(LineAddr l) override
    {
        for (LineAddr v : vetoed) {
            if (v == l)
                return false;
        }
        return true;
    }
};

/** A memory system with a Recorder listening to every L1. */
struct Harness
{
    explicit Harness(MemParams p = MemParams{})
        : net(eq, NetworkConfig{}), mem(eq, net, p), recs(p.numProcs)
    {
        for (ProcId q = 0; q < p.numProcs; ++q) {
            recs[q].eq = &eq;
            recs[q].mem = &mem;
            recs[q].proc = q;
            mem.setListener(q, &recs[q]);
        }
    }

    EventQueue eq;
    Network net;
    MemorySystem mem;
    std::vector<Recorder> recs;
};

/** A tag someone waits for, numbered @p n. */
inline AccessTag
tagged(std::uint32_t n)
{
    return AccessTag{1, n, 0};
}

/** A tag nobody waits for (a prefetch's). */
inline constexpr AccessTag kNobody{};

} // namespace bulksc::memtest

#endif // BULKSC_TESTS_MEM_MEM_HARNESS_HH
