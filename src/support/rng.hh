/**
 * @file
 * Deterministic random number generation for the flight simulator
 * and the samplers.
 *
 * std::mt19937 plus the standard distributions are not guaranteed to
 * produce identical streams across standard libraries, which would
 * make the validation experiments irreproducible. SplitMix64 with
 * hand-rolled transforms avoids that. nextU64(), uniform(),
 * uniformBlock() and fork() are integer arithmetic plus one exact
 * conversion, so they are bit-exact everywhere. normal() calls libm
 * (log, sin, cos), so its bits are only as portable as the
 * platform's libm. No library code calls it: its callers are the
 * perfbench probes and tests, and it stays until perfbench draws
 * its normals another way. The Monte-Carlo analyzer and the flight
 * simulator draw their normals libm-free, from uniformBlock()
 * through the Box-Muller pairs of sim/normals.hh, which keep
 * normal()'s pairing (cosine first, sine as the spare).
 */

#ifndef UAVF1_SUPPORT_RNG_HH
#define UAVF1_SUPPORT_RNG_HH

#include <cstddef>
#include <cstdint>

namespace uavf1 {

/**
 * SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
 * Small state, excellent statistical quality for simulation noise.
 */
class Rng
{
  public:
    /** Seeded constructor; the same seed always yields the same
     * stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : _state(seed)
    {}

    /** Next raw 64-bit value. Header-inline: the hot sampling
     * loops draw one uniform per fault per sample, and an
     * out-of-line call would dominate the draw itself. */
    std::uint64_t nextU64()
    {
        std::uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 high-quality bits -> double in [0, 1).
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /**
     * Fill out[0..n) with the next n uniform() draws, bit-identical
     * to calling uniform() n times. SplitMix64's state advances by
     * a fixed increment per draw, so draw k is a pure function of
     * state + (k+1) * increment; evaluating the output mixes from
     * those independent states removes the serial state dependency
     * from the loop, which matters in block samplers drawing many
     * variates at once.
     */
    void uniformBlock(double *out, std::size_t n)
    {
        const std::uint64_t s0 = _state;
        for (std::size_t k = 0; k < n; ++k) {
            std::uint64_t z =
                s0 + (k + 1) * 0x9e3779b97f4a7c15ull;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            z ^= z >> 31;
            out[k] = static_cast<double>(z >> 11) * 0x1.0p-53;
        }
        _state = s0 + n * 0x9e3779b97f4a7c15ull;
    }

    /** Standard normal deviate via Box-Muller (deterministic). */
    double normal();

    /** Fork an independent substream (for per-trial determinism). */
    Rng fork();

  private:
    std::uint64_t _state;
    bool _haveSpare = false;
    double _spare = 0.0;
};

} // namespace uavf1

#endif // UAVF1_SUPPORT_RNG_HH
