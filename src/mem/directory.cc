#include "mem/directory.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

Directory::Directory(const SignatureConfig &cfg, unsigned num_procs,
                     std::size_t max_entries)
    : sigCfg(cfg), numProcs(num_procs), maxEntries(max_entries)
{
    buckets.resize(sigCfg.bitsPerBank());
}

std::uint32_t
Directory::bucketOf(LineAddr line) const
{
    return static_cast<std::uint32_t>(line) & (sigCfg.bitsPerBank() - 1);
}

void
Directory::eraseEntry(LineAddr line)
{
    entries.erase(line);
    std::vector<LineAddr> &bucket = buckets[bucketOf(line)];
    for (LineAddr &l : bucket) {
        if (l == line) {
            l = bucket.back();
            bucket.pop_back();
            return;
        }
    }
}

DirEntry &
Directory::getOrCreate(LineAddr line,
                       std::vector<DirDisplacement> &displaced)
{
    if (DirEntry *e = entries.find(line))
        return *e;

    // Directory cache: displace the oldest entry when full
    // (Section 4.3.3). The caller broadcasts the displacement
    // signature for bulk disambiguation.
    if (maxEntries && entries.size() >= maxEntries) {
        while (fifoHead < fifo.size()) {
            LineAddr victim = fifo[fifoHead++];
            const DirEntry *ve = entries.find(victim);
            if (!ve)
                continue; // stale fifo slot
            displaced.push_back(DirDisplacement{victim, ve->sharers,
                                                ve->dirty, ve->owner});
            eraseEntry(victim);
            break;
        }
        if (fifoHead > 4096 && fifoHead * 2 > fifo.size()) {
            fifo.erase(fifo.begin(),
                       fifo.begin() + static_cast<long>(fifoHead));
            fifoHead = 0;
        }
    }

    buckets[bucketOf(line)].push_back(line);
    if (maxEntries)
        fifo.push_back(line);
    return entries[line];
}

void
Directory::recordRead(LineAddr line, ProcId p,
                      std::vector<DirDisplacement> &displaced)
{
    getOrCreate(line, displaced).addSharer(p);
}

std::uint32_t
Directory::recordReadEx(LineAddr line, ProcId p,
                        std::vector<DirDisplacement> &displaced)
{
    DirEntry &e = getOrCreate(line, displaced);
    std::uint32_t to_inval = e.sharers & ~(1u << p);
    e.sharers = 1u << p;
    e.dirty = true;
    e.owner = p;
    return to_inval;
}

void
Directory::recordWriteback(LineAddr line, ProcId p)
{
    DirEntry *e = entries.find(line);
    if (e && e->dirty && e->owner == p)
        e->dirty = false;
}

void
Directory::dropSharer(LineAddr line, ProcId p)
{
    DirEntry *e = entries.find(line);
    if (!e)
        return;
    e->sharers &= ~(1u << p);
    if (e->dirty && e->owner == p)
        e->dirty = false;
}

ExpansionResult
Directory::expand(const Signature &w, ProcId committer)
{
    ExpansionResult res;
    if (w.empty())
        return res;

    // Delta-decode bank 0 to find the candidate buckets, then probe
    // each resident line for full membership — the hardware equivalent
    // of the directed tag lookups of signature expansion.
    std::vector<LineAddr> candidates;
    for (std::uint32_t idx : w.decodeBank0()) {
        for (LineAddr line : buckets[idx]) {
            if (w.contains(line))
                candidates.push_back(line);
        }
    }

    for (LineAddr line : candidates) {
        ++res.lookups;
        // Aliasing stats (Table 4) need the exact mirror; without it
        // every lookup counts as genuine.
        bool truly_written =
            !w.tracksExact() || w.containsExact(line);
        if (!truly_written)
            ++res.aliasLookups;

        DirEntry &e = entries.at(line);

        // Table 1: the four possible states of a selected entry.
        if (!e.dirty && !e.isSharer(committer)) {
            // Case 1: false positive — the committing processor would
            // have fetched the line and be in the bit vector already.
            continue;
        }
        if (!e.dirty && e.isSharer(committer)) {
            // Case 2: committing processor becomes the owner; all other
            // sharers join the Invalidation List.
            res.invalidationList |= e.sharers & ~(1u << committer);
            e.sharers = 1u << committer;
            e.dirty = true;
            e.owner = committer;
            ++res.updates;
            if (!truly_written)
                ++res.aliasUpdates;
            continue;
        }
        if (e.dirty && !e.isSharer(committer)) {
            // Case 3: false positive — do nothing.
            continue;
        }
        // Case 4: dirty and committing proc is a sharer. If the proc is
        // already the owner there is nothing to do; a dirty entry owned
        // by someone else with the committer as sharer cannot occur in
        // this protocol (dirty implies a single sharer).
    }
    return res;
}

const DirEntry *
Directory::peek(LineAddr line) const
{
    return entries.find(line);
}

std::uint64_t
Directory::fingerprint() const
{
    // Commutative fold: slot order depends on the table's history.
    std::uint64_t h = 0;
    for (const auto &[line, e] : entries) {
        std::uint64_t v = mix64(line);
        v = mix64(v ^ e.sharers);
        v = mix64(v ^ (std::uint64_t{e.dirty} << 32) ^ e.owner);
        h += v;
    }
    return h;
}

} // namespace bulksc
