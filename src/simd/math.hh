/**
 * @file
 * Width-invariant exp, log and sin/cos of 2*pi*u over simd::Pack,
 * and the Box-Muller normal pairs built from them.
 *
 * The kernels use the pack op set only: correctly rounded
 * + - * / and sqrt, compares, selects, and the two exact
 * exponent-bit ops scaleByPow2() and splitExponent(). There is no
 * FMA, no table and no libm call, so every lane computes the same
 * bits at any width, W = 1 included, and the results do not depend
 * on the platform's libm. Integer rounding is the exact
 * (x + 1.5 * 2^52) - 1.5 * 2^52, which rounds to nearest-even for
 * |x| < 2^51.
 *
 * exp and log follow fdlibm's e_exp.c and e_log.c (argument
 * reduction by ln 2 and the Remez polynomials, both under 1 ulp),
 * without their branches: every lane takes the general path and
 * selects the IEEE special results. sinCos2Pi splits 4u into its
 * nearest integer q and r = 4u - q exactly, so the quadrant
 * reduction carries no Cody-Waite error, and evaluates
 * sin(pi r / 2) and cos(pi r / 2) for |r| <= 1/2 from their Taylor
 * series, truncated below 1e-17.
 *
 * Accuracy, pinned in tests/simd_test.cc: exp and log within 4 ulp
 * of a long double reference, sinCos2Pi within 2^-52 absolute.
 */

#ifndef UAVF1_SIMD_MATH_HH
#define UAVF1_SIMD_MATH_HH

#include <limits>

#include "simd/pack.hh"

namespace uavf1::simd::inline UAVF1_SIMD_ISA {

namespace detail {

/** Nearest integer, ties to even, for |x| < 2^51; NaN stays NaN. */
template <std::size_t W>
inline Pack<double, W>
nearestInt(Pack<double, W> x)
{
    const auto magic = Pack<double, W>::broadcast(0x1.8p52);
    return (x + magic) - magic;
}

/** c[0] + z (c[1] + z (... + z c[N - 1])), innermost first. */
template <std::size_t W, std::size_t N>
inline Pack<double, W>
horner(Pack<double, W> z, const double (&c)[N])
{
    auto acc = Pack<double, W>::broadcast(c[N - 1]);
    for (std::size_t i = N - 1; i-- > 0;)
        acc = Pack<double, W>::broadcast(c[i]) + z * acc;
    return acc;
}

/** ln 2 split so that k * kLn2Hi is exact for |k| < 2^21. */
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

/** fdlibm's Remez coefficients: exp's P1..P5 on [0, 0.347]. */
inline constexpr double kExpP[] = {
    1.66666666666666019037e-01, -2.77777777770155933842e-03,
    6.61375632143793436117e-05, -1.65339022054652515390e-06,
    4.13813679705723846039e-08};

/** log's Lg1..Lg7, split into odd and even powers of w = s^4. */
inline constexpr double kLogOdd[] = {
    6.666666666666735130e-01, 2.857142874366239149e-01,
    1.818357216161805012e-01, 1.479819860511658591e-01};
inline constexpr double kLogEven[] = {
    3.999999999940941908e-01, 2.222219843214978396e-01,
    1.531383769920937332e-01};

/** Taylor coefficients (-1)^n (pi/2)^m / m! of sin(pi r / 2) (odd
 * m, over r) and cos(pi r / 2) (even m), rounded; the first terms
 * dropped are below 1e-17 for |r| <= 1/2. */
inline constexpr double kSinHalfPi[] = {
    0x1.921fb54442d18p+0,  -0x1.4abbce625be53p-1, 0x1.466bc6775aae2p-4,
    -0x1.32d2cce62bd86p-8, 0x1.50783487ee782p-13, -0x1.e3074fde8871fp-19,
    0x1.e8f434d018d63p-25, -0x1.6fadb9f155744p-31,
    0x1.aaec32af93359p-38};
inline constexpr double kCosHalfPi[] = {
    1.0,                    -0x1.3bd3cc9be45dep+0, 0x1.03c1f081b5ac4p-2,
    -0x1.55d3c7e3cbffap-6,  0x1.e1f506891babbp-11, -0x1.a6d1f2a204a8cp-16,
    0x1.f9d38a3763cc3p-22,  -0x1.b6e24f44b128fp-28,
    0x1.20c62c2f2d7f5p-34};

} // namespace detail

/**
 * e^x to within 1 ulp, with IEEE results at the edges: +inf past
 * ~709.78, gradual underflow to subnormals and then +0 below
 * ~-745.13, e^-inf = +0, and NaN returned as is.
 */
template <std::size_t W>
inline Pack<double, W>
exp(Pack<double, W> x)
{
    using P = Pack<double, W>;
    // Past the clamps e^x is already 0 or inf, which the scaling
    // below produces; NaN lanes compute from 0 and are restored at
    // the end, so k is always a valid exponent.
    const auto number = x == x;
    const P xc = select(
        number, min(max(x, P::broadcast(-746.0)), P::broadcast(710.0)),
        P::broadcast(0.0));

    // x = k ln 2 + r with |r| <= ln 2 / 2.
    const P k = detail::nearestInt(
        xc * P::broadcast(1.44269504088896338700e+00));
    const P hi = xc - k * P::broadcast(detail::kLn2Hi);
    const P lo = k * P::broadcast(detail::kLn2Lo);
    const P r = hi - lo;

    // e^r = 1 + 2r / (2 - c) with c = r - r^2 P(r^2).
    const P t = r * r;
    const P c = r - t * detail::horner(t, detail::kExpP);
    const P y = P::broadcast(1.0) -
                ((lo - (r * c) / (P::broadcast(2.0) - c)) - hi);

    // 2^k in two normal halves, so k in [-1076, 1024] never leaves
    // scaleByPow2's range and the product rounds once.
    const P k1 = detail::nearestInt(k * P::broadcast(0.5));
    return select(number, scaleByPow2(scaleByPow2(y, k1), k - k1), x);
}

/**
 * ln x to within 1 ulp, with IEEE results at the edges: log(+inf) =
 * +inf, log(+-0) = -inf, log(x < 0) = NaN, and NaN returned as is.
 * Subnormal x is scaled exactly into the normal range first.
 */
template <std::size_t W>
inline Pack<double, W>
log(Pack<double, W> x)
{
    using P = Pack<double, W>;
    // Constants, not calls: an unoptimized build would emit the
    // std::numeric_limits members into every TU, sim/normals_avx2.cc
    // included, under names the baseline shares.
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    const P zero = P::broadcast(0.0);
    const P one = P::broadcast(1.0);
    const P half = P::broadcast(0.5);

    const auto tiny = x < P::broadcast(0x1p-1022);
    P e;
    P m = splitExponent(select(tiny, x * P::broadcast(0x1p54), x), e);
    e = select(tiny, e - P::broadcast(54.0), e);
    // x = 2^e (1 + f) with 1 + f in [sqrt(2) / 2, sqrt(2)]; f is
    // exact.
    const auto high = m > P::broadcast(0x1.6a09e667f3bcdp+0);
    m = select(high, m * half, m);
    e = select(high, e + one, e);
    const P f = m - one;

    // log(1 + f) = f - (f^2 / 2 - s (f^2 / 2 + R)) with
    // s = f / (2 + f) and R(s^2) the Remez tail.
    const P s = f / (P::broadcast(2.0) + f);
    const P z = s * s;
    const P w = z * z;
    const P tail = z * detail::horner(w, detail::kLogOdd) +
                   w * detail::horner(w, detail::kLogEven);
    const P hfsq = half * f * f;
    P result = e * P::broadcast(detail::kLn2Hi) -
               ((hfsq - (s * (hfsq + tail) +
                         e * P::broadcast(detail::kLn2Lo))) -
                f);

    result = select(x == P::broadcast(inf), x, result);
    result = select(x == zero, P::broadcast(-inf), result);
    result = select(x < zero, P::broadcast(nan), result);
    return select(x == x, result, x);
}

/**
 * sin(2 pi u) and cos(2 pi u), each within 2^-52 absolute. 4u =
 * q + r with q the nearest integer and |r| <= 1/2, both exact for
 * |u| < 2^49, so the angle is (q + r) pi / 2: the quadrant q mod 4
 * swaps and negates sin(pi r / 2) and cos(pi r / 2).
 */
template <std::size_t W>
inline void
sinCos2Pi(Pack<double, W> u, Pack<double, W> &sine,
          Pack<double, W> &cosine)
{
    using P = Pack<double, W>;
    const P four = P::broadcast(4.0);
    const P quarter_turns = u * four;
    const P q = detail::nearestInt(quarter_turns);
    const P r = quarter_turns - q;
    const P z = r * r;
    const P sin_r = r * detail::horner(z, detail::kSinHalfPi);
    const P cos_r = detail::horner(z, detail::kCosHalfPi);

    // q mod 4 as an integer in [-2, 2]: quadrant 1 is (cos, -sin),
    // 2 (= -2) is (-sin, -cos), 3 (= -1) is (-cos, sin).
    const P quadrant =
        q - four * detail::nearestInt(q * P::broadcast(0.25));
    const P plus = P::broadcast(1.0);
    const P minus = P::broadcast(-1.0);
    const auto odd = (quadrant == plus) | (quadrant == minus);
    const auto sine_negative =
        (quadrant < P::broadcast(0.0)) | (quadrant > P::broadcast(1.5));
    const auto cosine_negative = (quadrant > P::broadcast(0.5)) |
                                 (quadrant < P::broadcast(-1.5));
    sine = select(sine_negative, minus, plus) *
           select(odd, cos_r, sin_r);
    cosine = select(cosine_negative, minus, plus) *
             select(odd, sin_r, cos_r);
}

/**
 * Box-Muller over pairs [begin, end) (a multiple of W long): the
 * radius sqrt(-2 ln u1) from u1, with a zero u1 taken as 2^-53
 * (Rng::normal()'s guard), and the angle 2 pi u2 from u2; `cosines`
 * gets the first normal of each pair, `sines` the second.
 */
template <std::size_t W>
inline void
boxMuller(const double *u1, const double *u2, std::size_t begin,
          std::size_t end, double *cosines, double *sines)
{
    using P = Pack<double, W>;
    for (std::size_t p = begin; p < end; p += W) {
        const P radius =
            sqrt(P::broadcast(-2.0) *
                 log(max(P::load(u1 + p), P::broadcast(0x1p-53))));
        P sine, cosine;
        sinCos2Pi(P::load(u2 + p), sine, cosine);
        (radius * cosine).store(cosines + p);
        (radius * sine).store(sines + p);
    }
}

} // namespace uavf1::simd::inline UAVF1_SIMD_ISA

#endif // UAVF1_SIMD_MATH_HH
