#include "explore/run_controller.hh"

#include "signature/signature.hh"

namespace bulksc {

RunController::RunController(Schedule prefix_, bool por_)
    : prefix(std::move(prefix_)), por(por_)
{}

std::uint32_t
RunController::registerEvent(const EventFootprint &fp)
{
    events.push_back(fp);
    return static_cast<std::uint32_t>(events.size() - 1);
}

bool
RunController::dependent(const EventFootprint &a,
                         const EventFootprint &b)
{
    // Deliveries to the same node mutate the same module's state;
    // their order is always observable.
    if (a.dst == b.dst)
        return true;

    auto known = [](const EventFootprint &f) {
        return f.hasLine || f.rsig || f.wsig;
    };
    if (!known(a) || !known(b))
        return true; // unknown footprint: assume the worst

    if (a.hasLine && b.hasLine)
        return a.line == b.line;

    auto lineInSigs = [](LineAddr l, const EventFootprint &f) {
        return (f.rsig && f.rsig->contains(l)) ||
               (f.wsig && f.wsig->contains(l));
    };
    if (a.hasLine)
        return lineInSigs(a.line, b);
    if (b.hasLine)
        return lineInSigs(b.line, a);

    // Signature vs signature: any pairwise intersection makes the
    // pair dependent (membership is Bloom-conservative, so aliasing
    // only ever adds dependence).
    const Signature *as[2] = {a.rsig.get(), a.wsig.get()};
    const Signature *bs[2] = {b.rsig.get(), b.wsig.get()};
    for (const Signature *x : as) {
        if (!x)
            continue;
        for (const Signature *y : bs) {
            if (y && x->intersects(*y))
                return true;
        }
    }
    return false;
}

std::uint32_t
RunController::decide(ChoiceKind kind, std::uint32_t numOptions,
                      std::uint64_t allowedMask)
{
    std::uint32_t chosen = 0;
    if (trace_.size() < prefix.choices.size()) {
        const Choice &c = prefix.choices[trace_.size()];
        if (c.kind != kind || c.numOptions != numOptions ||
            c.chosen >= numOptions) {
            // The forced choice does not fit the decision actually
            // reached (stale schedule file, changed config): fall
            // back to the default rather than derail the run.
            ++nMismatch;
        } else {
            chosen = c.chosen;
        }
    }
    DecisionRecord r;
    r.kind = kind;
    r.chosen = chosen;
    r.numOptions = numOptions;
    r.allowedMask = allowedMask;
    r.fingerprint = fpFn ? fpFn() : 0;
    trace_.push_back(r);
    return chosen;
}

void
RunController::orderBatch(Tick now,
                          const std::vector<std::uint32_t> &tags,
                          std::vector<std::uint32_t> &order)
{
    (void)now;
    tagged.clear();
    for (std::uint32_t i = 0; i < tags.size(); ++i) {
        if (tags[i] != kNoTag)
            tagged.push_back(i);
    }
    if (tagged.size() <= 1)
        return; // nothing to reorder

    // Sequential picks: choose the next event among the remaining
    // tagged candidates until one is left.
    picked.clear();
    std::vector<std::uint32_t> remaining = tagged;
    while (remaining.size() > 1) {
        auto m = static_cast<std::uint32_t>(remaining.size());
        if (m > 64)
            ++nCapped;
        std::uint64_t mask = 1;
        if (por) {
            for (std::uint32_t j = 1; j < m && j < 64; ++j) {
                const EventFootprint &fj =
                    events[tags[remaining[j]]];
                for (std::uint32_t i = 0; i < j; ++i) {
                    if (dependent(events[tags[remaining[i]]], fj)) {
                        mask |= std::uint64_t{1} << j;
                        break;
                    }
                }
            }
        } else {
            mask = m >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << m) - 1;
        }
        std::uint32_t c = decide(ChoiceKind::Order, m, mask);
        if (c >= m)
            c = 0;
        picked.push_back(remaining[c]);
        remaining.erase(remaining.begin() + c);
    }
    picked.push_back(remaining[0]);

    bool fifo = true;
    for (std::size_t k = 0; k < picked.size(); ++k) {
        if (picked[k] != tagged[k]) {
            fifo = false;
            break;
        }
    }
    if (fifo)
        return;

    // Untagged events keep their positions; tagged slots fire the
    // picked tagged events in pick order.
    order.resize(tags.size());
    std::size_t t = 0;
    for (std::uint32_t i = 0; i < tags.size(); ++i)
        order[i] = tags[i] != kNoTag ? picked[t++] : i;
}

Tick
RunController::chooseDelay(Tick now, int cls, Tick lo, Tick hi)
{
    (void)now;
    (void)cls;
    if (hi < lo)
        hi = lo;
    Tick mid = lo + (hi - lo) / 2;
    Tick dom[3];
    std::uint32_t n = 0;
    dom[n++] = lo;
    if (mid != lo)
        dom[n++] = mid;
    if (hi != lo && hi != mid)
        dom[n++] = hi;
    if (n == 1)
        return dom[0]; // degenerate window: not a choice
    std::uint64_t mask = (std::uint64_t{1} << n) - 1;
    std::uint32_t c = decide(ChoiceKind::Delay, n, mask);
    if (c >= n)
        c = 0;
    return dom[c];
}

Schedule
scheduleOf(const std::vector<DecisionRecord> &trace)
{
    Schedule s;
    s.choices.reserve(trace.size());
    for (const DecisionRecord &r : trace)
        s.choices.push_back(r.choice());
    return s;
}

} // namespace bulksc
