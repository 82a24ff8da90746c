/**
 * @file
 * F-1 block kernel implementations.
 *
 * Every expression here mirrors F1Model::analyzeInto() operand for
 * operand (see that function for the model derivation); the only
 * transformations applied are (a) hoisting sample-invariant
 * subexpressions that the scalar path recomputes from identical
 * operands — which yields identical bits — and (b) skipping outputs
 * a kernel's caller never reads. No reassociation, no fused
 * alternatives, no libm calls beyond correctly-rounded sqrt.
 *
 * The loop bodies are templated on the simd::Pack width and
 * instantiated at W = 1 (the scalar reference, also the tail
 * handler) and at simd::nativeWidth; because every Pack op is
 * correctly rounded and lane-local, both instantiations produce the
 * same bits (see simd/pack.hh for the contract). Scalar ternaries
 * become select() on compare masks — including the argmin's
 * strict-< first-wins rule — and the stage/bound codes ride in
 * double lanes (small integers are exactly representable) until the
 * final scalar narrowing store.
 */

#include "core/f1_batch.hh"

#include <cfloat>
#include <cmath>

#include "simd/simd.hh"

namespace uavf1::core {

namespace {

/** Bound classification for a below-knee sample. */
inline std::uint8_t
bottleneckBound(double stage)
{
    // Stage codes: 0 sensor, 1 compute, 2 control; BoundType:
    // Compute=0, Sensor=1, Control=2.
    return stage == 0.0 ? static_cast<std::uint8_t>(
                              BoundType::SensorBound)
           : stage == 2.0
               ? static_cast<std::uint8_t>(BoundType::ControlBound)
               : static_cast<std::uint8_t>(BoundType::ComputeBound);
}

/**
 * Width-W stride body of analyzeBlock over the leading
 * n - n % W samples. The W = 1 instantiation doubles as the scalar
 * reference and the tail handler.
 */
template <std::size_t W>
bool
analyzeBlockStrides(const double *a_max, const double *range,
                    const double *sensor, const double *compute,
                    double control, double knee_x, std::size_t n,
                    double *v_safe, double *knee, double *roof,
                    std::uint8_t *bound)
{
    using P = simd::Pack<double, W>;
    const P zero = P::broadcast(0.0);
    const P one = P::broadcast(1.0);
    const P two = P::broadcast(2.0);
    const P huge = P::broadcast(DBL_MAX);
    const P ctrl = P::broadcast(control);
    const P kx = P::broadcast(knee_x);
    bool ok = true;

    for (std::size_t i = 0; i + W <= n; i += W) {
        const P a = P::load(a_max + i);
        const P d = P::load(range + i);
        const P fs = P::load(sensor + i);
        const P fc = P::load(compute + i);
        // analyzeInto()'s preconditions: rates positive (inf is
        // accepted there, so no upper bound), physics positive and
        // finite. !(x <= DBL_MAX) also catches NaN.
        ok = ok && allTrue((fs > zero) & (fc > zero) & (a > zero) &
                           (a <= huge) & (d > zero) & (d <= huge));

        // The Eq. 3 argmin with analyzeInto()'s strict-< first-wins
        // rule; stage codes 0 sensor, 1 compute, 2 control ride in
        // double lanes.
        P f = fs;
        P stage = zero;
        const auto mc = fc < f;
        f = select(mc, fc, f);
        stage = select(mc, one, stage);
        const auto ml = ctrl < f;
        f = select(ml, ctrl, f);
        stage = select(ml, two, stage);

        // v(t) = a * (sqrt(t^2 + 2d/a) - t); the scalar path
        // computes q from the same operands, so hoisting is exact.
        const P q = two * d / a;
        const P t = one / f;
        const P fk = sqrt(a / (two * d)) / kx;
        (a * (sqrt(t * t + q) - t)).store(v_safe + i);
        fk.store(knee + i);
        sqrt(two * d * a).store(roof + i);

        const auto physics = f >= fk;
        double stage_lane[W], physics_lane[W];
        stage.store(stage_lane);
        select(physics, one, zero).store(physics_lane);
        for (std::size_t l = 0; l < W; ++l)
            bound[i + l] =
                physics_lane[l] != 0.0
                    ? static_cast<std::uint8_t>(
                          BoundType::PhysicsBound)
                    : bottleneckBound(stage_lane[l]);
    }
    return ok;
}

/** Width-W stride body of analyzeVSafeBlock; same scheme. */
template <std::size_t W>
bool
vSafeStrides(double a_max, double q, const double *sensor,
             const double *compute, double control, std::size_t n,
             double *v_safe)
{
    using P = simd::Pack<double, W>;
    const P zero = P::broadcast(0.0);
    const P one = P::broadcast(1.0);
    const P a = P::broadcast(a_max);
    const P vq = P::broadcast(q);
    const P ctrl = P::broadcast(control);
    bool ok = true;

    for (std::size_t i = 0; i + W <= n; i += W) {
        const P fs = P::load(sensor + i);
        const P fc = P::load(compute + i);
        ok = ok && allTrue((fs > zero) & (fc > zero));
        P f = fs;
        f = select(fc < f, fc, f);
        f = select(ctrl < f, ctrl, f);
        const P t = one / f;
        (a * (sqrt(t * t + vq) - t)).store(v_safe + i);
    }
    return ok;
}

} // namespace

bool
analyzeBlock(const double *a_max, const double *range,
             const double *sensor, const double *compute,
             double control, double knee_fraction, std::size_t n,
             double *v_safe, double *knee, double *roof,
             std::uint8_t *bound)
{
    // Sample-invariant: the knee criterion x and the control rate.
    // analyzeInto() recomputes x per call from the same fraction, so
    // hoisting it is exact.
    const double knee_x = (1.0 - knee_fraction * knee_fraction) /
                          (2.0 * knee_fraction);
    bool ok = control > 0.0 && knee_fraction >= 1e-6 &&
              knee_fraction <= 1.0 - 1e-9;

    if (simd::useNative()) {
        constexpr std::size_t W = simd::nativeWidth;
        const std::size_t main = n - n % W;
        ok = analyzeBlockStrides<W>(a_max, range, sensor, compute,
                                    control, knee_x, main, v_safe,
                                    knee, roof, bound) &&
             ok;
        ok = analyzeBlockStrides<1>(
                 a_max + main, range + main, sensor + main,
                 compute + main, control, knee_x, n - main,
                 v_safe + main, knee + main, roof + main,
                 bound + main) &&
             ok;
    } else {
        ok = analyzeBlockStrides<1>(a_max, range, sensor, compute,
                                    control, knee_x, n, v_safe,
                                    knee, roof, bound) &&
             ok;
    }
    return ok;
}

bool
analyzeVSafeBlock(double a_max, double range, const double *sensor,
                  const double *compute, double control,
                  std::size_t n, double *v_safe)
{
    const double a = a_max;
    const double q = 2.0 * range / a;
    bool ok = control > 0.0 && a > 0.0 && a <= DBL_MAX &&
              range > 0.0 && range <= DBL_MAX;

    if (simd::useNative()) {
        constexpr std::size_t W = simd::nativeWidth;
        const std::size_t main = n - n % W;
        ok = vSafeStrides<W>(a, q, sensor, compute, control, main,
                             v_safe) &&
             ok;
        ok = vSafeStrides<1>(a, q, sensor + main, compute + main,
                             control, n - main, v_safe + main) &&
             ok;
    } else {
        ok = vSafeStrides<1>(a, q, sensor, compute, control, n,
                             v_safe) &&
             ok;
    }
    return ok;
}

} // namespace uavf1::core
