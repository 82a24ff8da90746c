/**
 * @file
 * Portable width-W SIMD pack for the batch evaluation kernels.
 *
 * The batch kernels (core/f1_batch, platform/evaluation_plan,
 * workload/batch_eval) promise bit-identity to the scalar
 * evaluators, which they keep by using only IEEE-correctly-rounded
 * elementwise ops — add/sub/mul/div/sqrt — plus compares and
 * selects, in the same per-lane operand order as the scalar path.
 * Pack<double, W> packages exactly that op set, so a kernel written
 * over it produces the same bits at *every* width, including the
 * W = 1 scalar fallback: no op here reassociates, fuses
 * (multiply-add stays two roundings), reduces across lanes
 * numerically, or calls a non-correctly-rounded routine.
 * Two exponent-bit ops, scaleByPow2() and splitExponent(), are
 * exact too; they are what the libm-free math kernels in
 * simd/math.hh build exp and log from.
 *
 * Backends:
 *  - a generic array-of-lanes template valid at any W (this is the
 *    W = 1 fallback, and the reference semantics of every op);
 *  - Pack<double, 2> over SSE2 (x86-64) or NEON (AArch64);
 *  - Pack<double, 4> over AVX2 when the translation unit is
 *    compiled with it (see the UAVF1_MARCH CMake option).
 *
 * nativeWidth is the widest specialization the compile flags
 * enable. Kernels instantiate their block bodies at W = 1 and
 * W = nativeWidth and pick at runtime via simd::useNative(), which
 * honours the UAVF1_SIMD=scalar|native environment override
 * (simd.hh) — so a suspect result can always be re-run on the
 * scalar lanes without rebuilding.
 *
 * Everything here lives in an inline namespace named after the ISA
 * the translation unit is compiled for (UAVF1_SIMD_ISA: avx2, sse2,
 * neon or generic), as simdjson's and Highway's per-target
 * namespaces do. Code still spells simd::Pack, but a TU built with
 * wider flags than the rest (sim/normals_avx2.cc, at -mavx2) gets
 * its own mangled names for every inline and template function it
 * emits, so the linker can never hand its AVX-encoded copy of, say,
 * Pack<double, 2>::load to an SSE2 caller.
 *
 * Masks are opaque per-backend types produced by the comparison
 * operators; consume them with select()/count()/allTrue(). A NaN
 * operand makes every ordered comparison false, exactly as the
 * scalar `<` does, so ternaries ported as select() keep their NaN
 * behaviour. min()/max() are defined as select(b < a, b, a) /
 * select(a < b, b, a) — the scalar ternary's semantics, which is
 * also precisely what the x86/NEON min/max instructions compute
 * with the operands in that order.
 */

#ifndef UAVF1_SIMD_PACK_HH
#define UAVF1_SIMD_PACK_HH

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64))
#define UAVF1_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define UAVF1_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) || defined(_M_ARM64)
#define UAVF1_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if defined(UAVF1_SIMD_AVX2)
#define UAVF1_SIMD_ISA avx2
#elif defined(UAVF1_SIMD_SSE2)
#define UAVF1_SIMD_ISA sse2
#elif defined(UAVF1_SIMD_NEON)
#define UAVF1_SIMD_ISA neon
#else
#define UAVF1_SIMD_ISA generic
#endif

namespace uavf1::simd::inline UAVF1_SIMD_ISA {

/** Widest double-lane width the compile flags enable. */
inline constexpr std::size_t nativeWidth =
#if defined(UAVF1_SIMD_AVX2)
    4;
#elif defined(UAVF1_SIMD_SSE2) || defined(UAVF1_SIMD_NEON)
    2;
#else
    1;
#endif

/** Compile-time backend tag for diagnostics and bench artifacts. */
constexpr const char *
backendName()
{
#if defined(UAVF1_SIMD_AVX2)
    return "avx2";
#elif defined(UAVF1_SIMD_SSE2)
    return "sse2";
#elif defined(UAVF1_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

/**
 * 2^52 + 1023. For an integral double k in [-1023, 1024],
 * k + kExponentBias holds k + 1023 in its low fraction bits; for an
 * exponent field e, the double with the bits of 2^52 | e, less
 * kExponentBias, is e - 1023. The backends of scaleByPow2() and
 * splitExponent() move exponents between double lanes and exponent
 * fields this way, without a float-to-int conversion.
 */
inline constexpr double kExponentBias = 0x1p52 + 1023.0;

/**
 * Generic array-of-lanes pack: the reference semantics of every op
 * at any width, and the W = 1 scalar fallback the kernels dispatch
 * to. All ops are lane-local and correctly rounded, so the generic
 * pack is bit-identical to every specialized backend.
 */
template <typename T, std::size_t W>
struct Pack
{
    static_assert(W >= 1, "pack width must be at least 1");
    T lane[W];

    /** Boolean lane mask (produced by compares, fed to select).
     * The mask-only operations live here as hidden friends so
     * argument-dependent lookup finds them — a free template taking
     * `typename Pack<T, W>::Mask` could never deduce T and W. */
    struct Mask
    {
        bool lane[W];

        friend Mask
        operator&(Mask a, Mask b)
        {
            Mask m;
            for (std::size_t i = 0; i < W; ++i)
                m.lane[i] = a.lane[i] && b.lane[i];
            return m;
        }

        friend Mask
        operator|(Mask a, Mask b)
        {
            Mask m;
            for (std::size_t i = 0; i < W; ++i)
                m.lane[i] = a.lane[i] || b.lane[i];
            return m;
        }

        /** Lanes of `b` that are not set in `a` (b & ~a). */
        friend Mask
        andnot(Mask a, Mask b)
        {
            Mask m;
            for (std::size_t i = 0; i < W; ++i)
                m.lane[i] = !a.lane[i] && b.lane[i];
            return m;
        }

        friend bool
        allTrue(Mask m)
        {
            bool all = true;
            for (std::size_t i = 0; i < W; ++i)
                all = all && m.lane[i];
            return all;
        }

        /** Number of set lanes (for tally accumulation). */
        friend std::size_t
        count(Mask m)
        {
            std::size_t n = 0;
            for (std::size_t i = 0; i < W; ++i)
                n += m.lane[i] ? 1 : 0;
            return n;
        }
    };

    static Pack
    load(const T *p)
    {
        Pack r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = p[i];
        return r;
    }

    static Pack
    broadcast(T x)
    {
        Pack r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = x;
        return r;
    }

    void
    store(T *p) const
    {
        for (std::size_t i = 0; i < W; ++i)
            p[i] = lane[i];
    }

    friend Pack
    operator+(Pack a, Pack b)
    {
        Pack r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = a.lane[i] + b.lane[i];
        return r;
    }

    friend Pack
    operator-(Pack a, Pack b)
    {
        Pack r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = a.lane[i] - b.lane[i];
        return r;
    }

    friend Pack
    operator*(Pack a, Pack b)
    {
        Pack r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = a.lane[i] * b.lane[i];
        return r;
    }

    friend Pack
    operator/(Pack a, Pack b)
    {
        Pack r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = a.lane[i] / b.lane[i];
        return r;
    }

    friend Mask
    operator<(Pack a, Pack b)
    {
        Mask m;
        for (std::size_t i = 0; i < W; ++i)
            m.lane[i] = a.lane[i] < b.lane[i];
        return m;
    }

    friend Mask
    operator<=(Pack a, Pack b)
    {
        Mask m;
        for (std::size_t i = 0; i < W; ++i)
            m.lane[i] = a.lane[i] <= b.lane[i];
        return m;
    }

    friend Mask
    operator>(Pack a, Pack b)
    {
        Mask m;
        for (std::size_t i = 0; i < W; ++i)
            m.lane[i] = a.lane[i] > b.lane[i];
        return m;
    }

    friend Mask
    operator>=(Pack a, Pack b)
    {
        Mask m;
        for (std::size_t i = 0; i < W; ++i)
            m.lane[i] = a.lane[i] >= b.lane[i];
        return m;
    }

    friend Mask
    operator==(Pack a, Pack b)
    {
        Mask m;
        for (std::size_t i = 0; i < W; ++i)
            m.lane[i] = a.lane[i] == b.lane[i];
        return m;
    }
};

template <typename T, std::size_t W>
inline Pack<T, W>
sqrt(Pack<T, W> a)
{
    Pack<T, W> r;
    for (std::size_t i = 0; i < W; ++i)
        r.lane[i] = std::sqrt(a.lane[i]);
    return r;
}

template <typename T, std::size_t W>
inline Pack<T, W>
select(typename Pack<T, W>::Mask m, Pack<T, W> a, Pack<T, W> b)
{
    Pack<T, W> r;
    for (std::size_t i = 0; i < W; ++i)
        r.lane[i] = m.lane[i] ? a.lane[i] : b.lane[i];
    return r;
}

/** min/max with the scalar ternary's NaN semantics (see select). */
template <typename T, std::size_t W>
inline Pack<T, W>
min(Pack<T, W> a, Pack<T, W> b)
{
    return select(b < a, b, a);
}

template <typename T, std::size_t W>
inline Pack<T, W>
max(Pack<T, W> a, Pack<T, W> b)
{
    return select(a < b, b, a);
}

/**
 * x * 2^k for integral k in [-1022, 1023], the range where 2^k is a
 * normal double: one multiply by the exact power, so the result is
 * exact unless it leaves the normal range, where it rounds once
 * like any IEEE multiply. This generic form builds the power's bits
 * from k as an integer; the backends build the same bits from
 * k + kExponentBias shifted left by 52.
 */
template <std::size_t W>
inline Pack<double, W>
scaleByPow2(Pack<double, W> x, Pack<double, W> k)
{
    Pack<double, W> r;
    for (std::size_t i = 0; i < W; ++i) {
        const auto biased = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(k.lane[i]) + 1023);
        r.lane[i] = x.lane[i] * std::bit_cast<double>(biased << 52);
    }
    return r;
}

/**
 * Split x into its fraction and exponent fields: returns m in
 * [1, 2), x's fraction bits under the exponent of 1.0, and stores in
 * `exponent` x's biased exponent field less 1023 (an integral
 * double). For positive normal x, x = m * 2^exponent exactly; zero
 * and subnormals give exponent -1023, inf and NaN 1024, and the sign
 * is dropped, so callers select those lanes away.
 */
template <std::size_t W>
inline Pack<double, W>
splitExponent(Pack<double, W> x, Pack<double, W> &exponent)
{
    Pack<double, W> m;
    for (std::size_t i = 0; i < W; ++i) {
        const auto bits = std::bit_cast<std::uint64_t>(x.lane[i]);
        exponent.lane[i] =
            static_cast<double>(static_cast<int>((bits >> 52) & 0x7ff) -
                                1023);
        m.lane[i] = std::bit_cast<double>(
            (bits & 0x000fffffffffffffull) | 0x3ff0000000000000ull);
    }
    return m;
}

#if defined(UAVF1_SIMD_SSE2) || defined(UAVF1_SIMD_AVX2)

/** Two double lanes over SSE2 (baseline x86-64). */
template <>
struct Pack<double, 2>
{
    __m128d v;

    struct Mask
    {
        __m128d v; ///< All-ones / all-zeros per lane.
    };

    static Pack load(const double *p) { return {_mm_loadu_pd(p)}; }
    static Pack broadcast(double x) { return {_mm_set1_pd(x)}; }
    void store(double *p) const { _mm_storeu_pd(p, v); }

    friend Pack operator+(Pack a, Pack b)
    {
        return {_mm_add_pd(a.v, b.v)};
    }
    friend Pack operator-(Pack a, Pack b)
    {
        return {_mm_sub_pd(a.v, b.v)};
    }
    friend Pack operator*(Pack a, Pack b)
    {
        return {_mm_mul_pd(a.v, b.v)};
    }
    friend Pack operator/(Pack a, Pack b)
    {
        return {_mm_div_pd(a.v, b.v)};
    }
    friend Mask operator<(Pack a, Pack b)
    {
        return {_mm_cmplt_pd(a.v, b.v)};
    }
    friend Mask operator<=(Pack a, Pack b)
    {
        return {_mm_cmple_pd(a.v, b.v)};
    }
    friend Mask operator>(Pack a, Pack b)
    {
        return {_mm_cmpgt_pd(a.v, b.v)};
    }
    friend Mask operator>=(Pack a, Pack b)
    {
        return {_mm_cmpge_pd(a.v, b.v)};
    }
    friend Mask operator==(Pack a, Pack b)
    {
        return {_mm_cmpeq_pd(a.v, b.v)};
    }
};

inline Pack<double, 2>
sqrt(Pack<double, 2> a)
{
    return {_mm_sqrt_pd(a.v)};
}

inline Pack<double, 2>
select(Pack<double, 2>::Mask m, Pack<double, 2> a,
       Pack<double, 2> b)
{
    // Bitwise blend: compare masks are all-ones/all-zeros lanes.
    return {_mm_or_pd(_mm_and_pd(m.v, a.v),
                      _mm_andnot_pd(m.v, b.v))};
}

inline Pack<double, 2>::Mask
operator&(Pack<double, 2>::Mask a, Pack<double, 2>::Mask b)
{
    return {_mm_and_pd(a.v, b.v)};
}

inline Pack<double, 2>::Mask
operator|(Pack<double, 2>::Mask a, Pack<double, 2>::Mask b)
{
    return {_mm_or_pd(a.v, b.v)};
}

inline Pack<double, 2>::Mask
andnot(Pack<double, 2>::Mask a, Pack<double, 2>::Mask b)
{
    return {_mm_andnot_pd(a.v, b.v)};
}

inline bool
allTrue(Pack<double, 2>::Mask m)
{
    return _mm_movemask_pd(m.v) == 0x3;
}

inline std::size_t
count(Pack<double, 2>::Mask m)
{
    const int bits = _mm_movemask_pd(m.v);
    return static_cast<std::size_t>((bits & 1) + (bits >> 1));
}

inline Pack<double, 2>
min(Pack<double, 2> a, Pack<double, 2> b)
{
    // MINPD(x, y) = x < y ? x : y, with y on ties/NaN — so
    // MINPD(b, a) is exactly select(b < a, b, a).
    return {_mm_min_pd(b.v, a.v)};
}

inline Pack<double, 2>
max(Pack<double, 2> a, Pack<double, 2> b)
{
    // MAXPD(x, y) = x > y ? x : y, with y on ties/NaN — so
    // MAXPD(b, a) is exactly select(a < b, b, a).
    return {_mm_max_pd(b.v, a.v)};
}

inline Pack<double, 2>
scaleByPow2(Pack<double, 2> x, Pack<double, 2> k)
{
    const __m128d biased = _mm_add_pd(k.v, _mm_set1_pd(kExponentBias));
    const __m128d pow2 = _mm_castsi128_pd(
        _mm_slli_epi64(_mm_castpd_si128(biased), 52));
    return {_mm_mul_pd(x.v, pow2)};
}

inline Pack<double, 2>
splitExponent(Pack<double, 2> x, Pack<double, 2> &exponent)
{
    const __m128i bits = _mm_castpd_si128(x.v);
    const __m128i field = _mm_and_si128(_mm_srli_epi64(bits, 52),
                                        _mm_set1_epi64x(0x7ff));
    exponent.v = _mm_sub_pd(
        _mm_castsi128_pd(
            _mm_or_si128(field, _mm_set1_epi64x(0x4330000000000000))),
        _mm_set1_pd(kExponentBias));
    const __m128i fraction =
        _mm_and_si128(bits, _mm_set1_epi64x(0x000fffffffffffff));
    return {_mm_castsi128_pd(
        _mm_or_si128(fraction, _mm_set1_epi64x(0x3ff0000000000000)))};
}

#endif // SSE2 || AVX2

#if defined(UAVF1_SIMD_AVX2)

/** Four double lanes over AVX2. */
template <>
struct Pack<double, 4>
{
    __m256d v;

    struct Mask
    {
        __m256d v;
    };

    static Pack load(const double *p)
    {
        return {_mm256_loadu_pd(p)};
    }
    static Pack broadcast(double x)
    {
        return {_mm256_set1_pd(x)};
    }
    void store(double *p) const { _mm256_storeu_pd(p, v); }

    friend Pack operator+(Pack a, Pack b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }
    friend Pack operator-(Pack a, Pack b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }
    friend Pack operator*(Pack a, Pack b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }
    friend Pack operator/(Pack a, Pack b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }
    friend Mask operator<(Pack a, Pack b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
    }
    friend Mask operator<=(Pack a, Pack b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
    }
    friend Mask operator>(Pack a, Pack b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
    }
    friend Mask operator>=(Pack a, Pack b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
    }
    friend Mask operator==(Pack a, Pack b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
    }
};

inline Pack<double, 4>
sqrt(Pack<double, 4> a)
{
    return {_mm256_sqrt_pd(a.v)};
}

inline Pack<double, 4>
select(Pack<double, 4>::Mask m, Pack<double, 4> a,
       Pack<double, 4> b)
{
    return {_mm256_blendv_pd(b.v, a.v, m.v)};
}

inline Pack<double, 4>::Mask
operator&(Pack<double, 4>::Mask a, Pack<double, 4>::Mask b)
{
    return {_mm256_and_pd(a.v, b.v)};
}

inline Pack<double, 4>::Mask
operator|(Pack<double, 4>::Mask a, Pack<double, 4>::Mask b)
{
    return {_mm256_or_pd(a.v, b.v)};
}

inline Pack<double, 4>::Mask
andnot(Pack<double, 4>::Mask a, Pack<double, 4>::Mask b)
{
    return {_mm256_andnot_pd(a.v, b.v)};
}

inline bool
allTrue(Pack<double, 4>::Mask m)
{
    return _mm256_movemask_pd(m.v) == 0xF;
}

inline std::size_t
count(Pack<double, 4>::Mask m)
{
    return static_cast<std::size_t>(
        __builtin_popcount(
            static_cast<unsigned>(_mm256_movemask_pd(m.v))));
}

inline Pack<double, 4>
min(Pack<double, 4> a, Pack<double, 4> b)
{
    return {_mm256_min_pd(b.v, a.v)};
}

inline Pack<double, 4>
max(Pack<double, 4> a, Pack<double, 4> b)
{
    return {_mm256_max_pd(b.v, a.v)};
}

inline Pack<double, 4>
scaleByPow2(Pack<double, 4> x, Pack<double, 4> k)
{
    const __m256d biased =
        _mm256_add_pd(k.v, _mm256_set1_pd(kExponentBias));
    const __m256d pow2 = _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_castpd_si256(biased), 52));
    return {_mm256_mul_pd(x.v, pow2)};
}

inline Pack<double, 4>
splitExponent(Pack<double, 4> x, Pack<double, 4> &exponent)
{
    const __m256i bits = _mm256_castpd_si256(x.v);
    const __m256i field = _mm256_and_si256(
        _mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7ff));
    exponent.v = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            field, _mm256_set1_epi64x(0x4330000000000000))),
        _mm256_set1_pd(kExponentBias));
    const __m256i fraction = _mm256_and_si256(
        bits, _mm256_set1_epi64x(0x000fffffffffffff));
    return {_mm256_castsi256_pd(_mm256_or_si256(
        fraction, _mm256_set1_epi64x(0x3ff0000000000000)))};
}

#endif // AVX2

#if defined(UAVF1_SIMD_NEON)

/** Two double lanes over AArch64 NEON. */
template <>
struct Pack<double, 2>
{
    float64x2_t v;

    struct Mask
    {
        uint64x2_t v;
    };

    static Pack load(const double *p) { return {vld1q_f64(p)}; }
    static Pack broadcast(double x) { return {vdupq_n_f64(x)}; }
    void store(double *p) const { vst1q_f64(p, v); }

    friend Pack operator+(Pack a, Pack b)
    {
        return {vaddq_f64(a.v, b.v)};
    }
    friend Pack operator-(Pack a, Pack b)
    {
        return {vsubq_f64(a.v, b.v)};
    }
    friend Pack operator*(Pack a, Pack b)
    {
        return {vmulq_f64(a.v, b.v)};
    }
    friend Pack operator/(Pack a, Pack b)
    {
        return {vdivq_f64(a.v, b.v)};
    }
    friend Mask operator<(Pack a, Pack b)
    {
        return {vcltq_f64(a.v, b.v)};
    }
    friend Mask operator<=(Pack a, Pack b)
    {
        return {vcleq_f64(a.v, b.v)};
    }
    friend Mask operator>(Pack a, Pack b)
    {
        return {vcgtq_f64(a.v, b.v)};
    }
    friend Mask operator>=(Pack a, Pack b)
    {
        return {vcgeq_f64(a.v, b.v)};
    }
    friend Mask operator==(Pack a, Pack b)
    {
        return {vceqq_f64(a.v, b.v)};
    }
};

inline Pack<double, 2>
sqrt(Pack<double, 2> a)
{
    return {vsqrtq_f64(a.v)};
}

inline Pack<double, 2>
select(Pack<double, 2>::Mask m, Pack<double, 2> a,
       Pack<double, 2> b)
{
    return {vbslq_f64(m.v, a.v, b.v)};
}

inline Pack<double, 2>::Mask
operator&(Pack<double, 2>::Mask a, Pack<double, 2>::Mask b)
{
    return {vandq_u64(a.v, b.v)};
}

inline Pack<double, 2>::Mask
operator|(Pack<double, 2>::Mask a, Pack<double, 2>::Mask b)
{
    return {vorrq_u64(a.v, b.v)};
}

inline Pack<double, 2>::Mask
andnot(Pack<double, 2>::Mask a, Pack<double, 2>::Mask b)
{
    return {vbicq_u64(b.v, a.v)};
}

inline bool
allTrue(Pack<double, 2>::Mask m)
{
    return vgetq_lane_u64(m.v, 0) != 0 &&
           vgetq_lane_u64(m.v, 1) != 0;
}

inline std::size_t
count(Pack<double, 2>::Mask m)
{
    return (vgetq_lane_u64(m.v, 0) != 0 ? 1u : 0u) +
           (vgetq_lane_u64(m.v, 1) != 0 ? 1u : 0u);
}

inline Pack<double, 2>
min(Pack<double, 2> a, Pack<double, 2> b)
{
    return select(b < a, b, a);
}

inline Pack<double, 2>
max(Pack<double, 2> a, Pack<double, 2> b)
{
    return select(a < b, b, a);
}

inline Pack<double, 2>
scaleByPow2(Pack<double, 2> x, Pack<double, 2> k)
{
    const uint64x2_t biased = vreinterpretq_u64_f64(
        vaddq_f64(k.v, vdupq_n_f64(kExponentBias)));
    return {vmulq_f64(x.v,
                      vreinterpretq_f64_u64(vshlq_n_u64(biased, 52)))};
}

inline Pack<double, 2>
splitExponent(Pack<double, 2> x, Pack<double, 2> &exponent)
{
    const uint64x2_t bits = vreinterpretq_u64_f64(x.v);
    const uint64x2_t field =
        vandq_u64(vshrq_n_u64(bits, 52), vdupq_n_u64(0x7ff));
    exponent.v = vsubq_f64(
        vreinterpretq_f64_u64(
            vorrq_u64(field, vdupq_n_u64(0x4330000000000000))),
        vdupq_n_f64(kExponentBias));
    const uint64x2_t fraction =
        vandq_u64(bits, vdupq_n_u64(0x000fffffffffffff));
    return {vreinterpretq_f64_u64(
        vorrq_u64(fraction, vdupq_n_u64(0x3ff0000000000000)))};
}

#endif // NEON

} // namespace uavf1::simd::inline UAVF1_SIMD_ISA

#endif // UAVF1_SIMD_PACK_HH
