/**
 * @file
 * drawNormalPairs implementation and its run-time width dispatch.
 */

#include "sim/normals.hh"

#include <algorithm>

namespace uavf1::sim {

#if defined(UAVF1_AVX2_NORMALS)
/** simd::boxMuller<4> over pairs [0, pairs), a multiple of 4; built
 * at -mavx2 in normals_avx2.cc, so call it only on a CPU with
 * AVX2. */
void boxMullerAvx2(const double *u1, const double *u2, std::size_t pairs,
                   double *cosines, double *sines);
#endif

namespace {

using PairKernel = void (*)(const double *, const double *, std::size_t,
                            double *, double *);

/** boxMullerAvx2 when this build is narrower than AVX2 and the CPU
 * has it, else nullptr. Resolved once. */
PairKernel
avx2Kernel()
{
#if defined(UAVF1_AVX2_NORMALS)
    static const PairKernel kernel = [] {
        __builtin_cpu_init();
        return simd::nativeWidth < 4 && __builtin_cpu_supports("avx2")
                   ? &boxMullerAvx2
                   : nullptr;
    }();
    return kernel;
#else
    return nullptr;
#endif
}

} // namespace

std::size_t
normalPairWidth()
{
    if (!simd::useNative())
        return 1;
    return avx2Kernel() ? 4 : simd::nativeWidth;
}

void
drawNormalPairs(Rng &rng, std::size_t pairs, double *cosines,
                double *sines)
{
    // Uniform blocks concatenate (uniformBlock is uniform() n times)
    // and Box-Muller is lane-wise, so passes of any size give the
    // same normals.
    constexpr std::size_t kPass = 64;
    double uniforms[2 * kPass];
    double u1[kPass];
    double u2[kPass];
    const PairKernel avx2 = simd::useNative() ? avx2Kernel() : nullptr;
    for (std::size_t base = 0; base < pairs; base += kPass) {
        const std::size_t m = std::min(pairs - base, kPass);
        rng.uniformBlock(uniforms, 2 * m);
        for (std::size_t p = 0; p < m; ++p) {
            u1[p] = uniforms[2 * p];
            u2[p] = uniforms[2 * p + 1];
        }
        // AVX2 takes the whole quads; the tail (and everything, off
        // AVX2) runs at this build's own widths.
        const std::size_t quads = avx2 ? m - m % 4 : 0;
        if (quads > 0)
            avx2(u1, u2, quads, cosines + base, sines + base);
        dispatchWidth(m - quads, [&](auto w, std::size_t begin,
                                     std::size_t end) {
            simd::boxMuller<decltype(w)::value>(
                u1, u2, quads + begin, quads + end, cosines + base,
                sines + base);
        });
    }
}

} // namespace uavf1::sim
