/**
 * @file
 * Width-invariance tests for the SIMD layer: simd::Pack ops are
 * bit-identical to the scalar expression lane by lane (including
 * NaN/inf/denormal operands and the select-based min/max
 * semantics), and every vectorized kernel produces the same bits
 * under UAVF1_SIMD-forced scalar and native dispatch at awkward
 * sample counts — 1, W-1 and W+1 (mod the 64-sample kernel block)
 * for the compiled native width — so the stride/tail split can
 * never leak into results. The math kernels (simd/math.hh) are also
 * held to their accuracy against long double references, and the
 * Monte-Carlo lognormal block draw to its sample-at-a-time twin.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "components/catalog.hh"
#include "core/f1_batch.hh"
#include "core/f1_model.hh"
#include "platform/evaluation_plan.hh"
#include "sim/lognormal.hh"
#include "simd/math.hh"
#include "simd/simd.hh"
#include "support/rng.hh"
#include "workload/algorithm.hh"
#include "workload/batch_eval.hh"
#include "workload/spa_pipeline.hh"

namespace {

using namespace uavf1;

/** Bitwise double equality: distinguishes ±0 and compares NaNs. */
bool
bitEq(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Restore the dispatch mode on scope exit, whatever a test set. */
struct ModeGuard
{
    simd::Mode saved = simd::activeMode();
    ~ModeGuard() { simd::setMode(saved); }
};

/** Operand pool: every special value class plus ordinary draws. */
std::vector<double>
operandPool()
{
    std::vector<double> pool = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        1.5,
        -2.75,
        1e-300,
        1e300,
        DBL_MIN,
        DBL_MAX,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    Rng rng(99);
    for (int i = 0; i < 50; ++i)
        pool.push_back(rng.uniform(-100.0, 100.0));
    return pool;
}

/** Every Pack op vs its scalar expression, lane by lane. */
template <std::size_t W>
void
checkPackOps()
{
    using P = simd::Pack<double, W>;
    const std::vector<double> pool = operandPool();

    double a[W], b[W], out[W];
    for (std::size_t trial = 0; trial + W < pool.size(); ++trial) {
        for (std::size_t l = 0; l < W; ++l) {
            a[l] = pool[(trial + l) % pool.size()];
            b[l] = pool[(trial * 7 + l * 3 + 1) % pool.size()];
        }
        const P pa = P::load(a);
        const P pb = P::load(b);

        (pa + pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] + b[l]));
        (pa - pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] - b[l]));
        (pa * pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] * b[l]));
        (pa / pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] / b[l]));
        sqrt(pa).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], std::sqrt(a[l])));

        // min/max follow the scalar ternary, NaN operands included.
        min(pa, pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], b[l] < a[l] ? b[l] : a[l]));
        max(pa, pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] < b[l] ? b[l] : a[l]));

        // Compares (false on NaN, like the scalar operators),
        // select, and the mask reductions/combinators.
        select(pa < pb, pa, pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] < b[l] ? a[l] : b[l]));
        select(pa >= pb, pb, pa).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] >= b[l] ? b[l] : a[l]));

        bool scalar_all = true;
        std::size_t scalar_count = 0;
        std::size_t scalar_andnot = 0;
        std::size_t scalar_or = 0;
        for (std::size_t l = 0; l < W; ++l) {
            const bool le = a[l] <= b[l];
            const bool gt = a[l] > b[l];
            const bool eq = a[l] == b[l];
            scalar_all = scalar_all && le;
            scalar_count += le && gt ? 1 : 0;
            scalar_andnot += !le && eq ? 1 : 0;
            scalar_or += le || gt ? 1 : 0;
        }
        EXPECT_EQ(allTrue(pa <= pb), scalar_all);
        EXPECT_EQ(count((pa <= pb) & (pa > pb)), scalar_count);
        EXPECT_EQ(count(andnot(pa <= pb, pa == pb)),
                  scalar_andnot);
        EXPECT_EQ(count((pa <= pb) | (pa > pb)), scalar_or);
    }
}

TEST(SimdPack, OpsMatchScalarLaneByLane)
{
    checkPackOps<1>(); // Generic fallback.
    if constexpr (simd::nativeWidth > 1)
        checkPackOps<simd::nativeWidth>(); // Compiled backend.
    checkPackOps<3>(); // Generic, odd width.
    checkPackOps<8>(); // Generic, wider than any backend.
}

TEST(SimdMode, SetModeControlsDispatch)
{
    ModeGuard guard;
    simd::setMode(simd::Mode::Scalar);
    EXPECT_EQ(simd::activeMode(), simd::Mode::Scalar);
    EXPECT_FALSE(simd::useNative());
    simd::setMode(simd::Mode::Native);
    EXPECT_EQ(simd::activeMode(), simd::Mode::Native);
    EXPECT_EQ(simd::useNative(), simd::nativeWidth > 1);
}

/** The tail-exercising sample counts: 1, W-1, W+1 (mod the
 * 64-sample kernel block) for the compiled width, plus the block
 * boundary itself. */
std::vector<std::size_t>
tailCounts(std::size_t max)
{
    const std::size_t w = simd::nativeWidth;
    std::set<std::size_t> counts = {1, 63, 64, 65};
    if (w > 1) {
        counts.insert(w - 1);
        counts.insert(w + 1);
        counts.insert(64 + w - 1);
        counts.insert(64 + w + 1);
    }
    std::vector<std::size_t> out;
    for (std::size_t n : counts)
        if (n >= 1 && n <= max)
            out.push_back(n);
    return out;
}

TEST(SimdKernels, AnalyzeBlockScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    constexpr std::size_t maxN = 130;
    Rng rng(11);
    double a_max[maxN], range[maxN], sensor[maxN], compute[maxN];
    for (std::size_t i = 0; i < maxN; ++i) {
        a_max[i] = rng.uniform(1.0, 30.0);
        range[i] = rng.uniform(5.0, 200.0);
        sensor[i] = rng.uniform(1.0, 120.0);
        compute[i] = rng.uniform(1.0, 120.0);
    }
    for (std::size_t n : tailCounts(maxN)) {
        double s_vs[maxN], s_knee[maxN], s_roof[maxN];
        double n_vs[maxN], n_knee[maxN], n_roof[maxN];
        std::uint8_t s_bound[maxN], n_bound[maxN];

        simd::setMode(simd::Mode::Scalar);
        const bool s_ok = core::analyzeBlock(
            a_max, range, sensor, compute, 1000.0, 0.5, n, s_vs,
            s_knee, s_roof, s_bound);
        simd::setMode(simd::Mode::Native);
        const bool n_ok = core::analyzeBlock(
            a_max, range, sensor, compute, 1000.0, 0.5, n, n_vs,
            n_knee, n_roof, n_bound);

        EXPECT_EQ(s_ok, n_ok) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(bitEq(s_vs[i], n_vs[i])) << "n=" << n;
            EXPECT_TRUE(bitEq(s_knee[i], n_knee[i])) << "n=" << n;
            EXPECT_TRUE(bitEq(s_roof[i], n_roof[i])) << "n=" << n;
            EXPECT_EQ(s_bound[i], n_bound[i]) << "n=" << n;
        }

        // A bad sample trips the flag identically in both modes.
        double bad[maxN];
        std::memcpy(bad, sensor, sizeof bad);
        bad[n - 1] = -1.0;
        simd::setMode(simd::Mode::Scalar);
        const bool s_bad = core::analyzeBlock(
            a_max, range, bad, compute, 1000.0, 0.5, n, s_vs,
            s_knee, s_roof, s_bound);
        simd::setMode(simd::Mode::Native);
        const bool n_bad = core::analyzeBlock(
            a_max, range, bad, compute, 1000.0, 0.5, n, n_vs,
            n_knee, n_roof, n_bound);
        EXPECT_FALSE(s_bad);
        EXPECT_FALSE(n_bad);
    }
}

TEST(SimdKernels, AnalyzeVSafeBlockScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    constexpr std::size_t maxN = 130;
    Rng rng(13);
    double sensor[maxN], compute[maxN];
    for (std::size_t i = 0; i < maxN; ++i) {
        sensor[i] = rng.uniform(1.0, 120.0);
        compute[i] = rng.uniform(1.0, 120.0);
    }
    for (std::size_t n : tailCounts(maxN)) {
        double s_vs[maxN], n_vs[maxN];
        simd::setMode(simd::Mode::Scalar);
        const bool s_ok = core::analyzeVSafeBlock(
            9.8, 40.0, sensor, compute, 1000.0, n, s_vs);
        simd::setMode(simd::Mode::Native);
        const bool n_ok = core::analyzeVSafeBlock(
            9.8, 40.0, sensor, compute, 1000.0, n, n_vs);
        EXPECT_EQ(s_ok, n_ok) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(bitEq(s_vs[i], n_vs[i])) << "n=" << n;
    }
}

TEST(SimdKernels, EvaluationPlanScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    const auto catalog = components::Catalog::standard();
    const platform::RooflinePlatform &tx2 =
        catalog.rooflines().byName("Nvidia TX2");
    platform::WorkloadProfile profile;
    profile.ai = units::OpsPerByte(1.0);
    const platform::EvaluationPlan plan(tx2, profile);

    constexpr std::size_t maxN = 130;
    Rng rng(19);
    double ai[maxN];
    for (std::size_t i = 0; i < maxN; ++i)
        ai[i] = rng.uniform(0.01, 80.0);
    ai[0] = 22.3; // The TX2 knee, where tie rules matter.

    for (std::size_t n : tailCounts(maxN)) {
        for (std::size_t op = 0; op < plan.operatingPointCount();
             ++op) {
            double s_att[maxN], n_att[maxN];
            std::uint32_t s_slot[maxN], n_slot[maxN];
            simd::setMode(simd::Mode::Scalar);
            plan.evaluateBlock(op, ai, n, s_att, s_slot);
            simd::setMode(simd::Mode::Native);
            plan.evaluateBlock(op, ai, n, n_att, n_slot);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(bitEq(s_att[i], n_att[i]))
                    << "n=" << n << " op=" << op;
                EXPECT_EQ(s_slot[i], n_slot[i])
                    << "n=" << n << " op=" << op;
            }
        }
    }
}

TEST(SimdKernels, StagePipelinePlanScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    const auto catalog = components::Catalog::standard();
    const workload::SpaPipeline pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    for (const char *platform_name :
         {"Nvidia TX2", "TX2-CPU + Navion"}) {
        const platform::RooflinePlatform &machine =
            catalog.rooflines().byName(platform_name);
        const workload::StagePipelinePlan plan(pipeline, machine);
        const std::size_t stages = plan.stageCount();

        constexpr std::size_t maxN =
            workload::StagePipelinePlan::blockSize;
        Rng rng(23);
        double ai_scale[maxN];
        for (std::size_t i = 0; i < maxN; ++i)
            ai_scale[i] = rng.uniform(0.5, 2.0);
        // Extremes defeat the whole-block fast path so the
        // per-stage slow loops run too.
        ai_scale[maxN - 1] = 1e-9;
        ai_scale[maxN - 2] = 1e9;

        workload::StagePipelinePlan::Scratch scratch;
        for (std::size_t n : tailCounts(maxN)) {
            for (bool measured_first : {false, true}) {
                double s_thr[maxN], n_thr[maxN];
                std::uint32_t s_slot[maxN], n_slot[maxN];
                std::vector<std::uint64_t> s_counts(stages * 3,
                                                    0);
                std::vector<std::uint64_t> n_counts(stages * 3,
                                                    0);
                simd::setMode(simd::Mode::Scalar);
                plan.evaluateBlock(0, measured_first, ai_scale, n,
                                   s_thr, s_slot, s_counts.data(),
                                   scratch);
                simd::setMode(simd::Mode::Native);
                plan.evaluateBlock(0, measured_first, ai_scale, n,
                                   n_thr, n_slot, n_counts.data(),
                                   scratch);
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_TRUE(bitEq(s_thr[i], n_thr[i]))
                        << platform_name << " n=" << n;
                    EXPECT_EQ(s_slot[i], n_slot[i])
                        << platform_name << " n=" << n;
                }
                EXPECT_EQ(s_counts, n_counts)
                    << platform_name << " n=" << n;
            }
        }
    }
}

/** scaleByPow2 and splitExponent against ldexp/frexp over their
 * domains, and splitExponent's field semantics outside it. */
template <std::size_t W>
void
checkExponentOps()
{
    using P = simd::Pack<double, W>;
    Rng rng(29);
    double x[W], k[W], out[W], exponent[W];
    for (int trial = 0; trial < 4000; ++trial) {
        for (std::size_t l = 0; l < W; ++l) {
            x[l] = rng.uniform(-4.0, 4.0);
            k[l] = std::floor(rng.uniform(-1022.0, 1024.0));
        }
        if (trial == 0) {
            x[0] = 1.0;
            k[0] = -1022.0; // DBL_MIN.
        } else if (trial == 1) {
            x[0] = 1.5;
            k[0] = 1023.0;
        }
        simd::scaleByPow2(P::load(x), P::load(k)).store(out);
        for (std::size_t l = 0; l < W; ++l) {
            EXPECT_TRUE(bitEq(out[l],
                              std::ldexp(x[l], static_cast<int>(k[l]))))
                << x[l] << " * 2^" << k[l];
        }

        for (std::size_t l = 0; l < W; ++l) {
            x[l] = std::ldexp(
                rng.uniform(1.0, 2.0),
                static_cast<int>(std::floor(rng.uniform(-1022.0, 1024.0))));
        }
        P e;
        simd::splitExponent(P::load(x), e).store(out);
        e.store(exponent);
        for (std::size_t l = 0; l < W; ++l) {
            int ref_exponent = 0;
            const double fraction = std::frexp(x[l], &ref_exponent);
            EXPECT_TRUE(bitEq(out[l], 2.0 * fraction)) << x[l];
            EXPECT_EQ(exponent[l], ref_exponent - 1) << x[l];
        }
    }

    // Outside positive normals: the raw fields, sign dropped.
    const double inf = std::numeric_limits<double>::infinity();
    const double in[][3] = {
        // x, m, exponent
        {-3.0, 1.5, 1.0},
        {0.0, 1.0, -1023.0},
        {-0.0, 1.0, -1023.0},
        {std::numeric_limits<double>::denorm_min(), 1.0 + 0x1p-52,
         -1023.0},
        {inf, 1.0, 1024.0},
        {-inf, 1.0, 1024.0},
    };
    for (const auto &row : in) {
        P e;
        const P m = simd::splitExponent(P::broadcast(row[0]), e);
        m.store(out);
        e.store(exponent);
        for (std::size_t l = 0; l < W; ++l) {
            EXPECT_TRUE(bitEq(out[l], row[1])) << row[0];
            EXPECT_EQ(exponent[l], row[2]) << row[0];
        }
    }
    P e;
    simd::splitExponent(
        P::broadcast(std::numeric_limits<double>::quiet_NaN()), e)
        .store(out);
    e.store(exponent);
    for (std::size_t l = 0; l < W; ++l)
        EXPECT_EQ(exponent[l], 1024.0);
}

TEST(SimdPack, ExponentOpsMatchTheirDefinitions)
{
    checkExponentOps<1>();
    if constexpr (simd::nativeWidth > 1)
        checkExponentOps<simd::nativeWidth>();
    checkExponentOps<3>();
}

/** kernel over x[begin, end) in width-W strides. */
template <std::size_t W, typename Kernel>
void
mapAt(Kernel kernel, const double *x, std::size_t begin,
      std::size_t end, double *out)
{
    using P = simd::Pack<double, W>;
    for (std::size_t i = begin; i < end; i += W)
        kernel(P::load(x + i)).store(out + i);
}

/** A Pack-generic unary kernel over x as the block kernels dispatch:
 * native strides with a W = 1 tail, or W = 1 throughout. */
template <typename Kernel>
std::vector<double>
mapKernel(Kernel kernel, const std::vector<double> &x, bool native)
{
    std::vector<double> out(x.size());
    std::size_t main = 0;
    if (native) {
        main = x.size() - x.size() % simd::nativeWidth;
        mapAt<simd::nativeWidth>(kernel, x.data(), 0, main, out.data());
    }
    mapAt<1>(kernel, x.data(), main, x.size(), out.data());
    return out;
}

const auto expKernel = [](auto p) { return simd::exp(p); };
const auto logKernel = [](auto p) { return simd::log(p); };
const auto sinKernel = [](auto p) {
    decltype(p) sine, cosine;
    simd::sinCos2Pi(p, sine, cosine);
    return sine;
};
const auto cosKernel = [](auto p) {
    decltype(p) sine, cosine;
    simd::sinCos2Pi(p, sine, cosine);
    return cosine;
};

/** One ulp at the double nearest `ref`: its binade's spacing, or the
 * subnormal spacing below DBL_MIN. */
double
ulpAt(long double ref)
{
    const double d = std::fabs(static_cast<double>(ref));
    if (d < DBL_MIN)
        return std::numeric_limits<double>::denorm_min();
    return std::ldexp(1.0, std::ilogb(d) - 52);
}

/** Largest error of `got` against `reference`, in ulps. */
double
worstUlps(const std::vector<double> &x, const std::vector<double> &got,
          long double (*reference)(long double))
{
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const long double ref = reference(x[i]);
        const double error =
            static_cast<double>(std::fabs(got[i] - ref)) / ulpAt(ref);
        EXPECT_LE(error, 4.0) << "x = " << x[i];
        worst = std::max(worst, error);
    }
    return worst;
}

TEST(SimdMath, ExpAndLogWithinFourUlpOfLongDouble)
{
    constexpr std::size_t n = std::size_t{1} << 21;
    Rng rng(31);
    // exp: jittered sweeps over every argument with a finite,
    // non-zero result, and finer over [-1, 1].
    std::vector<double> x;
    for (std::size_t i = 0; i < n; ++i) {
        x.push_back(-745.0 + 1454.78 *
                                 (static_cast<double>(i) + rng.uniform()) /
                                 static_cast<double>(n));
    }
    for (std::size_t i = 0; i < n / 2; ++i) {
        x.push_back(-1.0 + 2.0 *
                               (static_cast<double>(i) + rng.uniform()) /
                               static_cast<double>(n / 2));
    }
    EXPECT_LE(worstUlps(x, mapKernel(expKernel, x, true),
                        [](long double v) { return std::exp(v); }),
              4.0);

    // log: 512 draws in every binade from the subnormals up, and a
    // jittered sweep over [0.5, 2], where log crosses zero.
    x.clear();
    for (int e = -1074; e <= 1023; ++e) {
        for (int j = 0; j < 512; ++j)
            x.push_back(std::ldexp(rng.uniform(1.0, 2.0), e));
    }
    for (std::size_t i = 0; i < n; ++i) {
        x.push_back(0.5 + 1.5 * (static_cast<double>(i) + rng.uniform()) /
                              static_cast<double>(n));
    }
    EXPECT_LE(worstUlps(x, mapKernel(logKernel, x, true),
                        [](long double v) { return std::log(v); }),
              4.0);
}

TEST(SimdMath, SinCos2PiWithinTwoToTheMinus52OnTheUnitInterval)
{
    constexpr std::size_t n = std::size_t{1} << 21;
    constexpr long double two_pi = 6.283185307179586476925286766559L;
    Rng rng(37);
    std::vector<double> u;
    for (std::size_t i = 0; i < n; ++i)
        u.push_back((static_cast<double>(i) + rng.uniform()) /
                    static_cast<double>(n));
    // The quadrant points and their neighbours, where the reduction
    // switches quadrant.
    for (int k = 0; k < 4; ++k) {
        const double at = k / 4.0;
        u.push_back(at);
        u.push_back(std::nextafter(at, 1.0));
        if (k > 0)
            u.push_back(std::nextafter(at, 0.0));
    }
    u.push_back(std::nextafter(1.0, 0.0));
    const std::vector<double> sine = mapKernel(sinKernel, u, true);
    const std::vector<double> cosine = mapKernel(cosKernel, u, true);
    for (std::size_t i = 0; i < u.size(); ++i) {
        const long double angle = two_pi * u[i];
        EXPECT_LE(std::fabs(sine[i] - std::sin(angle)), 0x1p-52L)
            << "u = " << u[i];
        EXPECT_LE(std::fabs(cosine[i] - std::cos(angle)), 0x1p-52L)
            << "u = " << u[i];
    }

    // The quadrant points are exact.
    const std::vector<double> quadrants = {0.0, 0.25, 0.5, 0.75};
    const std::vector<double> s = mapKernel(sinKernel, quadrants, true);
    const std::vector<double> c = mapKernel(cosKernel, quadrants, true);
    EXPECT_EQ(s, (std::vector<double>{0.0, 1.0, 0.0, -1.0}));
    EXPECT_EQ(c, (std::vector<double>{1.0, 0.0, -1.0, 0.0}));
}

TEST(SimdMath, ExpAndLogGiveIeeeResultsAtTheEdges)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const auto exp1 = [](double x) {
        return mapKernel(expKernel, {x}, false)[0];
    };
    const auto log1 = [](double x) {
        return mapKernel(logKernel, {x}, false)[0];
    };

    // Overflow: the largest argument with a finite result stays
    // finite, the next one up and beyond is +inf.
    const double overflow = 0x1.62e42fefa39efp+9; // ~709.78
    EXPECT_LT(exp1(overflow), inf);
    EXPECT_NEAR(exp1(overflow), DBL_MAX, 1e-12 * DBL_MAX);
    EXPECT_EQ(exp1(std::nextafter(overflow, inf)), inf);
    EXPECT_EQ(exp1(1000.0), inf);
    EXPECT_EQ(exp1(inf), inf);

    // Gradual underflow: subnormal results within an ulp of the
    // long double value, then +0.
    for (const double x : {-708.5, -720.0, -740.0, -744.4, -745.0}) {
        const double got = exp1(x);
        EXPECT_LT(got, DBL_MIN) << x;
        EXPECT_GT(got, 0.0) << x;
        EXPECT_LE(std::fabs(got - std::exp(static_cast<long double>(x))),
                  tiny)
            << x;
    }
    for (const double x : {-745.2, -1000.0, -inf}) {
        EXPECT_EQ(exp1(x), 0.0) << x;
        EXPECT_FALSE(std::signbit(exp1(x))) << x;
    }
    EXPECT_EQ(exp1(0.0), 1.0);
    EXPECT_EQ(exp1(-0.0), 1.0);
    EXPECT_TRUE(std::isnan(exp1(nan)));

    EXPECT_TRUE(bitEq(log1(1.0), 0.0));
    EXPECT_EQ(log1(0.0), -inf);
    EXPECT_EQ(log1(-0.0), -inf);
    EXPECT_EQ(log1(inf), inf);
    EXPECT_TRUE(std::isnan(log1(-1.0)));
    EXPECT_TRUE(std::isnan(log1(-inf)));
    EXPECT_TRUE(std::isnan(log1(nan)));
    for (const double x : {tiny, DBL_MIN, DBL_MAX}) {
        const long double ref = std::log(static_cast<long double>(x));
        EXPECT_LE(std::fabs(log1(x) - ref), 4 * ulpAt(ref)) << x;
    }
}

/** A math kernel gives the same bits natively and forced scalar. */
template <typename Kernel>
void
expectWidthInvariant(Kernel kernel, const std::vector<double> &x,
                     const char *name)
{
    const std::vector<double> scalar = mapKernel(kernel, x, false);
    const std::vector<double> native = mapKernel(kernel, x, true);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_TRUE(bitEq(scalar[i], native[i]))
            << name << " n=" << x.size() << " x=" << x[i];
    }
}

TEST(SimdMath, NativeAndScalarBitIdentical)
{
    std::vector<double> pool = operandPool();
    Rng rng(41);
    while (pool.size() < 130) {
        pool.push_back(rng.uniform(-800.0, 800.0));
        pool.push_back(rng.uniform());
    }
    for (std::size_t n : tailCounts(pool.size())) {
        const std::vector<double> x(pool.begin(),
                                    pool.begin() +
                                        static_cast<std::ptrdiff_t>(n));
        expectWidthInvariant(expKernel, x, "exp");
        expectWidthInvariant(logKernel, x, "log");
        expectWidthInvariant(sinKernel, x, "sin");
        expectWidthInvariant(cosKernel, x, "cos");
    }
}

/** simd::boxMuller at width W over pairs [0, n): W-wide strides,
 * then a W = 1 tail. */
template <std::size_t W>
void
boxMullerAt(const std::vector<double> &u1, const std::vector<double> &u2,
            std::size_t n, std::vector<double> &cosines,
            std::vector<double> &sines)
{
    const std::size_t main = n - n % W;
    simd::boxMuller<W>(u1.data(), u2.data(), 0, main, cosines.data(),
                       sines.data());
    simd::boxMuller<1>(u1.data(), u2.data(), main, n, cosines.data(),
                       sines.data());
}

TEST(SimdMath, BoxMullerBitIdenticalAtWidthsOneTwoFour)
{
    // W = 2 is called directly: on an AVX2 CPU drawNormalPairs runs
    // it only on a pass's last two or three pairs. W = 4 is the AVX2
    // backend in an x86-64-v3 build and the generic pack otherwise.
    constexpr std::size_t maxPairs = 64;
    std::vector<double> u1(maxPairs), u2(maxPairs);
    Rng rng(23);
    for (std::size_t p = 0; p < maxPairs; ++p) {
        u1[p] = rng.uniform();
        u2[p] = rng.uniform();
    }
    // The zero-radius guard, and angles on the quadrant boundaries.
    u1[0] = 0.0;
    u1[1] = 0x1p-53;
    u1[2] = 1.0 - 0x1p-53;
    for (std::size_t p = 0; p < 5; ++p)
        u2[p] = 0.25 * static_cast<double>(p);

    for (std::size_t n : {1u, 3u, 4u, 5u, 31u, 32u, 33u, 64u}) {
        std::vector<double> c1(n), s1(n), c2(n), s2(n), c4(n), s4(n);
        boxMullerAt<1>(u1, u2, n, c1, s1);
        boxMullerAt<2>(u1, u2, n, c2, s2);
        boxMullerAt<4>(u1, u2, n, c4, s4);
        for (std::size_t p = 0; p < n; ++p) {
            EXPECT_TRUE(std::isfinite(c1[p]) && std::isfinite(s1[p]))
                << "n=" << n << " pair " << p;
            EXPECT_TRUE(bitEq(c2[p], c1[p]) && bitEq(s2[p], s1[p]))
                << "W=2 n=" << n << " pair " << p;
            EXPECT_TRUE(bitEq(c4[p], c1[p]) && bitEq(s4[p], s1[p]))
                << "W=4 n=" << n << " pair " << p;
        }
    }
}

TEST(LognormalDraw, BlockDrawMatchesSampleDrawsInEveryMode)
{
    ModeGuard guard;
    constexpr std::size_t maxN = 130;
    // Five, four, three (odd) and no active factors, and a single
    // factor, so pairs straddle samples in every phase.
    const std::vector<std::vector<double>> spread_sets = {
        {0.10, 0.05, 0.40, 0.10, 0.25},
        {0.10, 0.05, 0.40, 0.10, 0.0},
        {0.10, 0.05, 0.0, 0.10, 0.0},
        {0.0, 0.0, 0.0, 0.0, 0.0},
        {0.30},
    };
    for (const std::vector<double> &spreads : spread_sets) {
        const sim::LognormalDraw draw(spreads);
        const std::size_t f_count = draw.factorCount();
        for (std::size_t n : tailCounts(maxN)) {
            std::vector<std::vector<double>> scalar(
                f_count, std::vector<double>(n));
            std::vector<std::vector<double>> native = scalar;
            std::vector<double *> s_cols, n_cols;
            for (std::size_t f = 0; f < f_count; ++f) {
                s_cols.push_back(scalar[f].data());
                n_cols.push_back(native[f].data());
            }
            Rng s_rng(43), n_rng(43), one_rng(43);
            simd::setMode(simd::Mode::Scalar);
            draw.drawBlock(s_rng, n, s_cols.data());
            simd::setMode(simd::Mode::Native);
            draw.drawBlock(n_rng, n, n_cols.data());

            sim::LognormalDraw::Carry carry;
            double factors[sim::LognormalDraw::maxFactors];
            for (std::size_t i = 0; i < n; ++i) {
                draw.drawSample(one_rng, carry, factors);
                for (std::size_t f = 0; f < f_count; ++f) {
                    EXPECT_TRUE(bitEq(scalar[f][i], factors[f]))
                        << "n=" << n << " sample " << i << " factor "
                        << f;
                    EXPECT_TRUE(bitEq(native[f][i], factors[f]))
                        << "n=" << n << " sample " << i << " factor "
                        << f;
                }
            }
            // All three consumed the same uniforms.
            const std::uint64_t next = one_rng.nextU64();
            EXPECT_EQ(s_rng.nextU64(), next) << "n=" << n;
            EXPECT_EQ(n_rng.nextU64(), next) << "n=" << n;
        }
    }
}

} // namespace
