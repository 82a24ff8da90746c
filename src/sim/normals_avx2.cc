/**
 * @file
 * The AVX2 build of the Box-Muller pair kernel: simd::boxMuller<4>,
 * compiled with -mavx2 (no -mfma; -ffp-contract=off still holds) and
 * called by drawNormalPairs (normals.cc) only on a CPU with AVX2.
 *
 * This translation unit defines one external function, over plain
 * arrays. Everything it instantiates is in simd/math.hh, so it lives
 * in uavf1::simd::avx2 (pack.hh's ISA namespace), and none of its
 * inline or template copies shares a name with an SSE2 build's (an
 * x86-64-v3 build compiles both sides alike). Include nothing else
 * and call no inline function from outside that namespace (not Rng,
 * no std helper): such a function would be emitted here AVX-encoded
 * under a name the baseline shares, and the linker may keep this
 * copy for SSE2 callers. The ctest avx2_symbols checks the object
 * with nm.
 */

#include "simd/math.hh"

static_assert(uavf1::simd::nativeWidth == 4,
              "normals_avx2.cc must be compiled with -mavx2");

namespace uavf1::sim {

void
boxMullerAvx2(const double *u1, const double *u2, std::size_t pairs,
              double *cosines, double *sines)
{
    simd::boxMuller<4>(u1, u2, 0, pairs, cosines, sines);
}

} // namespace uavf1::sim
