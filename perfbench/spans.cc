#include "spans.hh"

#include <cstdio>

namespace perfbench {

std::map<std::string, SpanRecorder::Totals>
SpanRecorder::totals() const
{
    std::vector<double> childUs(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent != kNone && s.endUs >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                s.endUs - s.startUs;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.endUs < 0)
            continue;
        double dur = s.endUs - s.startUs;
        Totals &t = out[s.name];
        ++t.count;
        t.totalS += dur * 1e-6;
        t.selfS += (dur - childUs[i]) * 1e-6;
    }
    return out;
}

bool
SpanRecorder::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.endUs < 0)
            continue;
        // Span names are string literals of the benchmark itself, so
        // they need no JSON escaping.
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"span\":%zu,\"parent\":%d,\"id\":%llu}}",
                     first ? "" : ",", s.name, s.startUs,
                     s.endUs - s.startUs, i, s.parent,
                     static_cast<unsigned long long>(s.id));
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
