#include "sim/event_trace.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "sim/stats.hh"

namespace bulksc {

const char *
traceEventTypeName(TraceEventType t)
{
    switch (t) {
      case TraceEventType::ChunkStart:
        return "chunk-start";
      case TraceEventType::ChunkCommit:
        return "chunk-commit";
      case TraceEventType::ChunkSquash:
        return "chunk-squash";
      case TraceEventType::Squash:
        return "squash";
      case TraceEventType::ArbRequest:
        return "arb-request";
      case TraceEventType::ArbGrant:
        return "arb-grant";
      case TraceEventType::ArbDeny:
        return "arb-deny";
      case TraceEventType::ArbDecision:
        return "arb-decision";
      case TraceEventType::CommitBegin:
        return "commit-begin";
      case TraceEventType::CommitEnd:
        return "commit-end";
      case TraceEventType::DirBounce:
        return "dir-bounce";
      case TraceEventType::BulkInval:
        return "bulk-inval";
      case TraceEventType::ScViolation:
        return "sc-violation";
      case TraceEventType::RaceDetected:
        return "race-detected";
      case TraceEventType::FaultInject:
        return "fault-inject";
      case TraceEventType::Resend:
        return "resend";
      case TraceEventType::DirNack:
        return "dir-nack";
      case TraceEventType::WatchdogRescue:
        return "watchdog-rescue";
      case TraceEventType::WatchdogTrip:
        return "watchdog-trip";
      case TraceEventType::ResendGiveUp:
        return "resend-give-up";
      case TraceEventType::DirExpand:
        return "dir-expand";
      case TraceEventType::BarrierArrive:
        return "barrier-arrive";
      default:
        return "?";
    }
}

const char *
squashCauseName(SquashCause c)
{
    switch (c) {
      case SquashCause::TrueConflict:
        return "true-conflict";
      case SquashCause::FalsePositive:
        return "false-positive";
      case SquashCause::Unattributed:
        return "unattributed";
      default:
        return "none";
    }
}

TraceCat
traceEventCat(TraceEventType t)
{
    switch (t) {
      case TraceEventType::ChunkStart:
      case TraceEventType::ChunkCommit:
        return TraceCat::Chunk;
      case TraceEventType::ChunkSquash:
      case TraceEventType::Squash:
        return TraceCat::Squash;
      case TraceEventType::DirBounce:
      case TraceEventType::BulkInval:
      case TraceEventType::DirExpand:
        return TraceCat::Coherence;
      case TraceEventType::BarrierArrive:
        return TraceCat::Sync;
      case TraceEventType::ScViolation:
      case TraceEventType::RaceDetected:
        return TraceCat::Analysis;
      case TraceEventType::FaultInject:
      case TraceEventType::Resend:
      case TraceEventType::DirNack:
      case TraceEventType::ResendGiveUp:
        return TraceCat::Fault;
      case TraceEventType::WatchdogRescue:
      case TraceEventType::WatchdogTrip:
        return TraceCat::Watchdog;
      default:
        return TraceCat::Commit;
    }
}

namespace {

constexpr TraceCat kAllCats[] = {
    TraceCat::Chunk,     TraceCat::Commit, TraceCat::Squash,
    TraceCat::Coherence, TraceCat::Sync,   TraceCat::Analysis,
    TraceCat::Fault,     TraceCat::Watchdog,
};

/** The cause or outcome shown with @p ev, or nullptr if it has none. */
const char *
causeLabel(const TraceEvent &ev)
{
    switch (ev.type) {
      case TraceEventType::Squash:
      case TraceEventType::ChunkSquash:
        return squashCauseName(static_cast<SquashCause>(ev.cause));
      case TraceEventType::ArbDecision:
        return ev.cause ? "grant" : "deny";
      default:
        return nullptr;
    }
}

} // namespace

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Chunk:
        return "chunk";
      case TraceCat::Commit:
        return "commit";
      case TraceCat::Squash:
        return "squash";
      case TraceCat::Coherence:
        return "coherence";
      case TraceCat::Sync:
        return "sync";
      case TraceCat::Analysis:
        return "analysis";
      case TraceCat::Fault:
        return "fault";
      case TraceCat::Watchdog:
        return "watchdog";
      default:
        return "?";
    }
}

bool
parseTraceCategories(const std::string &spec, std::uint32_t &mask,
                     std::string &err)
{
    mask = 0;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string name = spec.substr(pos, comma - pos);
        pos = comma + 1;
        for (char &ch : name)
            ch = static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        if (name.empty())
            continue;
        if (name == "all") {
            mask = ~std::uint32_t{0};
            continue;
        }
        const TraceCat *c = std::find_if(
            std::begin(kAllCats), std::end(kAllCats),
            [&](TraceCat k) { return name == traceCatName(k); });
        if (c == std::end(kAllCats)) {
            err = "unknown trace category '" + name + "' (known: ";
            for (TraceCat k : kAllCats)
                err += std::string(traceCatName(k)) + ", ";
            err += "all)";
            return false;
        }
        mask |= static_cast<std::uint32_t>(*c);
    }
    return true;
}

std::string
trackName(std::uint16_t track)
{
    if (track < kTrackDirBase)
        return "cpu" + std::to_string(track);
    if (track < kTrackArbBase)
        return "dir" + std::to_string(track - kTrackDirBase);
    return "arbiter" + std::to_string(track - kTrackArbBase);
}

EventTrace::EventTrace(std::uint32_t cat_mask, std::size_t capacity)
    : catMask(cat_mask), cap(capacity ? capacity : 1)
{
    ring.reserve(cap < 4096 ? cap : 4096);
}

void
EventTrace::record(TraceEventType type, Tick tick, std::uint16_t track,
                   std::uint64_t seq, std::uint64_t arg,
                   std::uint8_t cause)
{
    if ((catMask & static_cast<std::uint32_t>(traceEventCat(type))) == 0)
        return;
    TraceEvent ev{tick, seq, arg, track, type, cause};
    if (ring.size() < cap) {
        ring.push_back(ev);
    } else {
        ring[head] = ev;
        head = (head + 1) % cap;
        ++nDropped;
    }
    ++counts[static_cast<std::size_t>(type)];
    ++total;
}

std::uint64_t
EventTrace::count(TraceEventType type) const
{
    return counts[static_cast<std::size_t>(type)];
}

std::size_t
EventTrace::size() const
{
    return ring.size();
}

std::vector<TraceEvent>
EventTrace::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring.size());
    // `head` is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(head + i) % ring.size()]);
    return out;
}

namespace {

/** A paired start/end interval ready for export. */
struct Span
{
    std::uint16_t track;
    unsigned kind; //!< 0 = chunk, 1 = arbitration, 2 = commit
    Tick start;
    Tick end;
    std::uint64_t seq;
    std::uint64_t arg;
    std::uint8_t cause;
    const char *outcome;
};

constexpr unsigned kChunkRowBase = 0;
constexpr unsigned kArbRowBase = 100;
constexpr unsigned kCommitRowBase = 200;

unsigned
rowBase(unsigned kind)
{
    switch (kind) {
      case 0:
        return kChunkRowBase;
      case 1:
        return kArbRowBase;
      default:
        return kCommitRowBase;
    }
}

const char *
rowLabel(unsigned kind)
{
    switch (kind) {
      case 0:
        return "chunks";
      case 1:
        return "arbitration";
      default:
        return "commit";
    }
}

} // namespace

void
EventTrace::writeChromeTrace(std::ostream &os) const
{
    std::vector<TraceEvent> evs = snapshot();
    Tick last_tick = 0;
    for (const TraceEvent &ev : evs) {
        if (ev.tick > last_tick)
            last_tick = ev.tick;
    }

    // Pair start/end events into spans; keep the rest as instants.
    std::vector<Span> spans;
    std::vector<TraceEvent> instants;
    std::map<std::pair<std::uint16_t, std::uint64_t>, TraceEvent> open[3];

    auto close = [&](unsigned kind, const TraceEvent &ev,
                     const char *outcome) {
        auto key = std::make_pair(ev.track, ev.seq);
        auto it = open[kind].find(key);
        if (it == open[kind].end())
            return; // start fell out of the ring
        spans.push_back({ev.track, kind, it->second.tick, ev.tick,
                         ev.seq, ev.arg, ev.cause, outcome});
        open[kind].erase(it);
    };

    for (const TraceEvent &ev : evs) {
        switch (ev.type) {
          case TraceEventType::ChunkStart:
            open[0][{ev.track, ev.seq}] = ev;
            break;
          case TraceEventType::ChunkCommit:
            close(0, ev, "commit");
            break;
          case TraceEventType::ChunkSquash:
            close(0, ev, "squash");
            break;
          case TraceEventType::ArbRequest:
            open[1][{ev.track, ev.seq}] = ev;
            break;
          case TraceEventType::ArbGrant:
            close(1, ev, "grant");
            break;
          case TraceEventType::ArbDeny:
            close(1, ev, "deny");
            break;
          case TraceEventType::CommitBegin:
            open[2][{ev.track, ev.seq}] = ev;
            break;
          case TraceEventType::CommitEnd:
            close(2, ev, "done");
            break;
          default:
            instants.push_back(ev);
            break;
        }
    }
    // Intervals still open at export time (live chunks, in-flight
    // requests) extend to the last observed tick.
    for (unsigned kind = 0; kind < 3; ++kind) {
        for (const auto &[key, ev] : open[kind]) {
            spans.push_back({ev.track, kind, ev.tick, last_tick, ev.seq,
                             ev.arg, ev.cause, "open"});
        }
    }

    // Greedy row allocation so overlapping spans (two live chunks,
    // overlapping commits) land on separate rows of the same track.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span &a, const Span &b) {
                         return a.start < b.start;
                     });
    std::map<std::pair<std::uint16_t, unsigned>, std::vector<Tick>> rows;
    std::vector<unsigned> span_tid(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &ends = rows[{s.track, s.kind}];
        unsigned row = 0;
        for (; row < ends.size(); ++row) {
            if (ends[row] <= s.start)
                break;
        }
        if (row == ends.size())
            ends.push_back(0);
        ends[row] = s.end;
        span_tid[i] = rowBase(s.kind) + row;
    }

    // Emit. pid = track + 1 (chrome dislikes pid 0).
    os << "{\n\"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &json) {
        os << (first ? "" : ",") << "\n" << json;
        first = false;
    };

    std::set<std::uint16_t> tracks;
    std::set<std::pair<std::uint16_t, unsigned>> tids;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        tracks.insert(spans[i].track);
        tids.insert({spans[i].track, span_tid[i]});
    }
    for (const TraceEvent &ev : instants) {
        tracks.insert(ev.track);
        tids.insert({ev.track, 0});
    }

    for (std::uint16_t t : tracks) {
        std::ostringstream m;
        m << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << t + 1
          << ",\"tid\":0,\"args\":{\"name\":\""
          << jsonEscape(trackName(t)) << "\"}}";
        emit(m.str());
    }
    for (const auto &[track, tid] : tids) {
        unsigned kind = tid >= kCommitRowBase ? 2
                        : tid >= kArbRowBase  ? 1
                                              : 0;
        std::ostringstream m;
        m << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
          << track + 1 << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
          << rowLabel(kind) << "-" << tid - rowBase(kind) << "\"}}";
        emit(m.str());
    }

    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const char *name = rowLabel(s.kind);
        std::ostringstream e;
        e << "{\"name\":\"" << (s.kind == 0   ? "chunk "
                                : s.kind == 1 ? "arb "
                                              : "commit ")
          << s.seq << "\",\"cat\":\"" << name << "\",\"ph\":\"X\""
          << ",\"ts\":" << s.start << ",\"dur\":" << s.end - s.start
          << ",\"pid\":" << s.track + 1 << ",\"tid\":" << span_tid[i]
          << ",\"args\":{\"seq\":" << s.seq << ",\"arg\":" << s.arg
          << ",\"outcome\":\"" << s.outcome << "\"}}";
        emit(e.str());
    }

    for (const TraceEvent &ev : instants) {
        std::ostringstream e;
        e << "{\"name\":\"" << traceEventTypeName(ev.type);
        if (const char *cause = causeLabel(ev))
            e << " (" << cause << ")";
        e << "\",\"cat\":\""
          << traceCatName(traceEventCat(ev.type)) << "\",\"ph\":\"i\""
          << ",\"ts\":" << ev.tick << ",\"pid\":" << ev.track + 1
          << ",\"tid\":0,\"s\":\"t\",\"args\":{\"seq\":" << ev.seq
          << ",\"arg\":" << ev.arg << "}}";
        emit(e.str());
    }

    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
          "{\"recorded\": "
       << total << ", \"dropped\": " << nDropped << "}\n}\n";
}

bool
EventTrace::exportChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeChromeTrace(f);
    f.flush();
    return static_cast<bool>(f);
}

void
EventTrace::writeText(std::ostream &os) const
{
    for (const TraceEvent &ev : snapshot()) {
        char prefix[48];
        std::snprintf(prefix, sizeof(prefix), "%10llu: [%s] ",
                      static_cast<unsigned long long>(ev.tick),
                      traceCatName(traceEventCat(ev.type)));
        std::string line = prefix + trackName(ev.track) + " " +
                           traceEventTypeName(ev.type) +
                           " seq=" + std::to_string(ev.seq) +
                           " arg=" + std::to_string(ev.arg);
        if (const char *cause = causeLabel(ev))
            line += std::string(" cause=") + cause;
        line += '\n';
        os << line; // whole lines: one write each on unbuffered std::cerr
    }
}

} // namespace bulksc
