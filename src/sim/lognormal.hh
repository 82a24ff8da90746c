/**
 * @file
 * Block draws of the Monte-Carlo analyzer's lognormal input factors.
 *
 * A factor with relative spread s is exp(mu + sigma z) for a
 * standard normal z, with sigma^2 = log(1 + s^2) and
 * mu = -sigma^2 / 2, so its mean is 1 (nominal values stay
 * unbiased) and its relative standard deviation is s. A zero spread
 * is the constant factor 1 and draws nothing.
 *
 * The normals come in the libm-free Box-Muller pairs of
 * sim/normals.hh, sample-major in factor order, and exp is
 * simd/math.hh's, so a draw is bit-identical at every SIMD width and
 * on every platform.
 */

#ifndef UAVF1_SIM_LOGNORMAL_HH
#define UAVF1_SIM_LOGNORMAL_HH

#include <cstddef>
#include <span>
#include <string_view>

#include "support/rng.hh"

namespace uavf1::sim {

/**
 * Require a relative spread s with finite log(1 + s^2): s >= 0 and
 * s^2 <= DBL_MAX, so NaN, inf and s past ~1.34e154 are rejected.
 *
 * @throws ModelError naming the spread otherwise
 */
void requireSpread(double rel_std, std::string_view name);

/** Draws up to maxFactors lognormal factors per sample. */
class LognormalDraw
{
  public:
    /** Most factors one draw shapes (the analyzer's five inputs). */
    static constexpr std::size_t maxFactors = 5;

    /**
     * The sine half of a Box-Muller pair, waiting for the next
     * factor of a sample-at-a-time draw.
     */
    struct Carry
    {
        bool pending = false;
        double normal = 0.0;
    };

    /**
     * One factor per relative spread, in order.
     *
     * @throws ModelError for more than maxFactors spreads or a spread
     *         requireSpread() rejects
     */
    explicit LognormalDraw(std::span<const double> rel_stds);

    /** Factor columns one draw fills. */
    std::size_t factorCount() const { return _factors; }

    /**
     * Draw `count` samples: columns[f][i] is factor f of sample i.
     * Starts a fresh pair and consumes the uniforms of
     * ceil(count * k / 2) pairs, k the factors with a non-zero
     * spread, dropping the sine of an unpaired last normal. Runs at
     * native SIMD width (W = 1 under UAVF1_SIMD=scalar) and is
     * bit-identical, samples and Rng state alike, to `count`
     * drawSample() calls from a fresh Carry. Allocation-free.
     */
    void drawBlock(Rng &rng, std::size_t count,
                   double *const *columns) const;

    /**
     * Draw one sample's factors[0..factorCount()) at W = 1, taking
     * a pending normal from `carry` first and leaving the sine of a
     * newly drawn pair there.
     */
    void drawSample(Rng &rng, Carry &carry, double *factors) const;

  private:
    struct Factor
    {
        bool active = false;
        double mu = 0.0;
        double sigma = 0.0;
    };

    Factor _factor[maxFactors];
    std::size_t _factors = 0;
    std::size_t _active = 0;
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_LOGNORMAL_HH
