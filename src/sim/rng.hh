/**
 * @file
 * Deterministic random number generation: the one home of the
 * simulator's splitmix64 machinery.
 *
 * Uses splitmix64 both as a stream generator and as a stateless
 * counter-based hash, so traces can be regenerated from (seed, proc,
 * index) without storing generator state. The free helpers below are
 * shared by every subsystem that needs counter-based decisions (fault
 * plane, resend backoff jitter, sweep-point seed derivation) so the
 * mapping from bits to decisions exists exactly once.
 */

#ifndef BULKSC_SIM_RNG_HH
#define BULKSC_SIM_RNG_HH

#include <cstdint>

namespace bulksc {

/** One round of the splitmix64 finalizer (a strong 64-bit mixer). */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Map a 64-bit hash/stream output to a uniform double in [0, 1). */
constexpr double
u01(std::uint64_t u)
{
    return static_cast<double>(u >> 11) * 0x1.0p-53;
}

/**
 * Derive an independent seed from a base seed and a stream key (the
 * per-point derivation of the sweep runner and the per-decision hash
 * of the fault plane share this shape).
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t key)
{
    return mix64(seed ^ mix64(key));
}

/**
 * Deterministic +/-25% jitter around an exponential-backoff delay:
 * returns a value in [base - base/4, base + base/4) keyed by @p key,
 * so retransmission storms from several nodes decohere without
 * perturbing reproducibility. @p base below 2 is returned unchanged.
 */
constexpr std::uint64_t
jitteredBackoff(std::uint64_t base, std::uint64_t key)
{
    std::uint64_t span = base / 2;
    if (span == 0)
        return base;
    return base - span / 2 + mix64(key) % span;
}

/**
 * The hardened protocol's resend timeout: @p timeout for attempt 1,
 * doubling per further (1-based) @p attempt up to @p cap, jittered by
 * jitteredBackoff() under @p key with the attempt number folded in.
 */
constexpr std::uint64_t
resendBackoff(std::uint64_t timeout, std::uint64_t cap,
              unsigned attempt, std::uint64_t key)
{
    unsigned shift = attempt < 16 ? attempt - 1 : 15;
    std::uint64_t base = timeout << shift;
    if (base > cap)
        base = cap;
    return jitteredBackoff(base, key ^ attempt);
}

/**
 * A small, fast, deterministic PRNG (splitmix64 stream).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : state(seed) {}

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        // mix64 adds the splitmix64 gamma before finalizing, so
        // hashing the pre-increment state IS the stream step.
        std::uint64_t z = mix64(state);
        state += 0x9e3779b97f4a7c15ULL;
        return z;
    }

    /** @return a uniform value in [0, bound). @p bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return u01(next());
    }

    /** @return true with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Sample from an approximately Zipf-like distribution over
     * [0, n): small indices are much more likely, giving the temporal
     * locality real working sets exhibit.
     *
     * @param n Universe size.
     * @param skew Locality knob in [0, 1); higher is more skewed.
     */
    std::uint64_t
    zipfish(std::uint64_t n, double skew)
    {
        if (n <= 1)
            return 0;
        double u = uniform();
        // Power-law warp of the uniform sample.
        double exponent = 1.0 + 4.0 * skew;
        double w = 1.0;
        for (int i = 0; i < static_cast<int>(exponent); ++i)
            w *= u;
        double frac = exponent - static_cast<int>(exponent);
        if (frac > 0)
            w *= (1.0 - frac) + frac * u;
        auto idx = static_cast<std::uint64_t>(
            w * static_cast<double>(n));
        return idx >= n ? n - 1 : idx;
    }

  private:
    std::uint64_t state;
};

} // namespace bulksc

#endif // BULKSC_SIM_RNG_HH
