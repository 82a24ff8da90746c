/**
 * @file
 * Runtime scalar/native dispatch for the SIMD kernels.
 *
 * Every vectorized kernel is instantiated twice — at W = 1 and at
 * simd::nativeWidth — and picks per call via useNative(). The mode
 * comes from the UAVF1_SIMD environment variable, read once:
 *
 *   UAVF1_SIMD=scalar   force the W = 1 instantiations
 *   UAVF1_SIMD=native   the default: widest compiled backend
 *
 * Any other value warns once on stderr and falls back to native,
 * mirroring the UAVF1_THREADS diagnostics. setMode() overrides the
 * cached value in-process (tests and benches use it to time both
 * paths in one binary); the kernels promise bit-identical results
 * either way, so flipping it mid-run is always safe.
 */

#ifndef UAVF1_SIMD_SIMD_HH
#define UAVF1_SIMD_SIMD_HH

#include "simd/pack.hh"

namespace uavf1::simd {

enum class Mode
{
    Scalar, ///< Force the W = 1 kernel instantiations.
    Native, ///< Use the widest compiled backend (default).
};

/** Current mode: UAVF1_SIMD at first use, or the last setMode(). */
Mode activeMode();

/** Override the mode in-process (tests/benches). Thread-safe. */
void setMode(Mode mode);

} // namespace uavf1::simd

namespace uavf1::simd::inline UAVF1_SIMD_ISA {

/** True when kernels should dispatch to the native-width path.
 * It reads this TU's nativeWidth, so it is ISA-tagged like Pack. */
inline bool
useNative()
{
    return nativeWidth > 1 && activeMode() == Mode::Native;
}

} // namespace uavf1::simd::inline UAVF1_SIMD_ISA

#endif // UAVF1_SIMD_SIMD_HH
