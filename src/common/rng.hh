/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * All synthetic workloads (trace generators, routing-table generator,
 * test inputs) draw from this generator so that every experiment is
 * reproducible from its seed alone.  The core is xoshiro128**.
 */

#ifndef PB_COMMON_RNG_HH
#define PB_COMMON_RNG_HH

#include <cstdint>
#include <vector>

#include "hash.hh"
#include "logging.hh"

namespace pb
{

/** Small, fast, seedable PRNG (xoshiro128**). */
class Rng
{
  public:
    /** Seed via splitmix-style expansion of a single 32-bit value. */
    explicit Rng(uint32_t seed = 1)
    {
        // mix32 is bijective, so distinct seeds give distinct states;
        // the OR makes an all-zero state impossible.
        state[0] = mix32(seed ^ 0xa5a5a5a5u) | 1u;
        state[1] = mix32(seed + 0x9e3779b9u);
        state[2] = mix32(seed + 0x3c6ef372u);
        state[3] = mix32(seed + 0xdaa66d2bu);
    }

    /** Next raw 32-bit value. */
    uint32_t
    next()
    {
        uint32_t result = rotl(state[1] * 5u, 7) * 9u;
        uint32_t t = state[1] << 9;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 11);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint32_t
    below(uint32_t bound)
    {
        if (bound == 0)
            panic("Rng::below called with bound 0");
        // Lemire's multiply-shift rejection method.
        uint64_t m = static_cast<uint64_t>(next()) * bound;
        uint32_t lo = static_cast<uint32_t>(m);
        if (lo < bound) {
            uint32_t threshold = (0u - bound) % bound;
            while (lo < threshold) {
                m = static_cast<uint64_t>(next()) * bound;
                lo = static_cast<uint32_t>(m);
            }
        }
        return static_cast<uint32_t>(m >> 32);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint32_t
    range(uint32_t lo, uint32_t hi)
    {
        if (hi < lo)
            panic("Rng::range: hi < lo");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Sample an index from a discrete distribution given by
     * (unnormalized, nonnegative) weights.
     */
    size_t
    weighted(const std::vector<double> &weights)
    {
        double total = 0.0;
        for (double w : weights)
            total += w;
        return weighted(weights, total);
    }

    /**
     * weighted() for a caller that keeps its weights' @p total,
     * summed in order as weighted() sums them, so a fixed
     * distribution is summed once; the draws are identical.
     */
    size_t
    weighted(const std::vector<double> &weights, double total)
    {
        if (total <= 0.0)
            panic("Rng::weighted: nonpositive total weight");
        double x = uniform() * total;
        for (size_t i = 0; i < weights.size(); i++) {
            x -= weights[i];
            if (x < 0.0)
                return i;
        }
        return weights.size() - 1;
    }

    /**
     * Bounded geometric-ish sample: repeatedly flip a coin with
     * success probability @p p; returns number of failures before the
     * first success, capped at @p cap.  Used for bursty flow lengths.
     */
    uint32_t
    geometric(double p, uint32_t cap)
    {
        uint32_t n = 0;
        while (n < cap && !chance(p))
            n++;
        return n;
    }

  private:
    static constexpr uint32_t
    rotl(uint32_t x, int k)
    {
        return (x << k) | (x >> (32 - k));
    }

    uint32_t state[4];
};

} // namespace pb

#endif // PB_COMMON_RNG_HH
