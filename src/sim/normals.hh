/**
 * @file
 * Libm-free Box-Muller normals: the one kernel behind the
 * Monte-Carlo factor draw (sim/lognormal.hh) and the flight
 * simulator's noise (sim/flight_sim.hh).
 *
 * Pair p takes uniforms 2p and 2p + 1 of an Rng stream, its radius
 * from the first (a zero uniform becomes 2^-53, Rng::normal()'s
 * guard) and its angle from the second, and gives normal 2p the
 * cosine and normal 2p + 1 the sine: the order Rng::normal() returns
 * them in, cosine first and sine as its spare. The kernel is
 * simd::boxMuller (simd/math.hh), so the normals are bit-identical
 * at every SIMD width and on every platform.
 *
 * drawNormalPairs picks the width at run time. On an x86-64 build
 * narrower than AVX2 (the default SSE2 one), a CPU with AVX2 runs
 * the pairs through simd::boxMuller<4> from sim/normals_avx2.cc, the
 * one translation unit compiled with -mavx2; the uniforms stay in
 * the baseline code. UAVF1_SIMD=scalar still forces W = 1.
 */

#ifndef UAVF1_SIM_NORMALS_HH
#define UAVF1_SIM_NORMALS_HH

#include <cstddef>
#include <type_traits>

#include "simd/math.hh"
#include "simd/simd.hh"
#include "support/rng.hh"

namespace uavf1::sim {

/** Run kernel(W, begin, end) over [0, n): native-width strides and
 * a W = 1 tail, or all of it at W = 1 under UAVF1_SIMD=scalar. */
template <typename Kernel>
void
dispatchWidth(std::size_t n, Kernel &&kernel)
{
    std::size_t main = 0;
    if (simd::useNative()) {
        main = n - n % simd::nativeWidth;
        kernel(std::integral_constant<std::size_t, simd::nativeWidth>{},
               0, main);
    }
    kernel(std::integral_constant<std::size_t, 1>{}, main, n);
}

/**
 * Draw `pairs` Box-Muller pairs from the next 2 * pairs uniforms of
 * `rng` (Rng::uniformBlock), at normalPairWidth(): cosines[p] and
 * sines[p] are pair p's normals. Allocation-free.
 */
void drawNormalPairs(Rng &rng, std::size_t pairs, double *cosines,
                     double *sines);

/** The SIMD width drawNormalPairs() runs at now: 1 under
 * UAVF1_SIMD=scalar, else 4 where it dispatches to the AVX2 kernel
 * (the CPU check runs once), else simd::nativeWidth. */
std::size_t normalPairWidth();

/**
 * Standard normals one at a time, drawn a block of pairs at a time
 * through drawNormalPairs(). The stream starts a fresh pair (a spare
 * left pending by an earlier Rng::normal() is not used) and gives
 * the normals in the pairing above, so they equal LognormalDraw's on
 * the same Rng and, up to libm's rounding, Rng::normal()'s. It owns
 * its Rng copy and reads ahead by up to a block, so rng() afterwards
 * has consumed every uniform of the blocks drawn so far.
 */
class NormalStream
{
  public:
    /** Box-Muller pairs per block. */
    static constexpr std::size_t blockPairs = 32;

    /** Continue `rng`'s uniform stream (copied). */
    explicit NormalStream(const Rng &rng) : _rng(rng) {}

    /** Next standard normal deviate. */
    double next()
    {
        if (_next == 2 * blockPairs) {
            drawNormalPairs(_rng, blockPairs, _normals[0], _normals[1]);
            _next = 0;
        }
        const std::size_t j = _next++;
        return _normals[j & 1][j >> 1];
    }

    /** The Rng past every block drawn so far. */
    const Rng &rng() const { return _rng; }

  private:
    Rng _rng;
    std::size_t _next = 2 * blockPairs;
    double _normals[2][blockPairs]; // Each pair's cosine, then sine.
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_NORMALS_HH
