/**
 * @file
 * Tests for the extension modules that implement the paper's
 * prescribed-but-unevaluated remedies: DVFS derating, the Skyline
 * knob sweep and config, and the Monte-Carlo analyzer.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "components/catalog.hh"
#include "sim/monte_carlo.hh"
#include "skyline/session.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "workload/dvfs.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::units::literals;

TEST(Dvfs, FullFrequencyKeepsNominalTdp)
{
    const workload::DvfsModel dvfs;
    EXPECT_NEAR(dvfs.scaledTdp(30.0_w, 1.0).value(), 30.0, 1e-12);
}

TEST(Dvfs, CubicScalingWithLeakageFloor)
{
    // alpha = 3, 10% leakage: at half frequency,
    // P = 0.1 * 30 + 0.9 * 30 * 0.125 = 3 + 3.375.
    const workload::DvfsModel dvfs;
    EXPECT_NEAR(dvfs.scaledTdp(30.0_w, 0.5).value(), 6.375, 1e-9);
}

TEST(Dvfs, LinearExponentVariant)
{
    workload::DvfsModel::Params params;
    params.exponent = 1.0;
    params.leakageFraction = 0.0;
    const workload::DvfsModel dvfs(params);
    EXPECT_NEAR(dvfs.scaledTdp(30.0_w, 0.5).value(), 15.0, 1e-9);
}

TEST(Dvfs, RangeValidation)
{
    const workload::DvfsModel dvfs;
    EXPECT_THROW(dvfs.scaledTdp(30.0_w, 0.05), ModelError);
    EXPECT_THROW(dvfs.scaledTdp(30.0_w, 1.5), ModelError);
    workload::DvfsModel::Params bad;
    bad.exponent = 5.0;
    EXPECT_THROW(workload::DvfsModel{bad}, ModelError);
}

TEST(SkylineSweep, TdpSweepIsMonotoneInVelocity)
{
    const skyline::SkylineSession session;
    const auto points = session.sweep("compute_tdp", 2.0, 30.0, 8);
    ASSERT_EQ(points.size(), 8u);
    for (std::size_t i = 1; i < points.size(); ++i) {
        ASSERT_TRUE(points[i].feasible);
        // More TDP -> heavier heat sink -> lower roof.
        EXPECT_LT(points[i].roofVelocity,
                  points[i - 1].roofVelocity);
    }
    EXPECT_DOUBLE_EQ(points.front().knobValue, 2.0);
    EXPECT_DOUBLE_EQ(points.back().knobValue, 30.0);
}

TEST(SkylineSweep, PayloadSweepHitsInfeasibleRegion)
{
    const skyline::SkylineSession session;
    const auto points =
        session.sweep("payload_weight", 100.0, 4000.0, 12);
    bool saw_feasible = false;
    bool saw_infeasible = false;
    for (const auto &point : points) {
        saw_feasible |= point.feasible;
        saw_infeasible |= !point.feasible;
    }
    EXPECT_TRUE(saw_feasible);
    EXPECT_TRUE(saw_infeasible);
}

TEST(SkylineSweep, Validation)
{
    const skyline::SkylineSession session;
    EXPECT_THROW(session.sweep("algorithm", 0.0, 1.0, 4),
                 ModelError);
    EXPECT_THROW(session.sweep("compute_tdp", 1.0, 2.0, 1),
                 ModelError);
    EXPECT_THROW(session.sweep("bogus", 1.0, 2.0, 4), ModelError);
}

TEST(SkylineSweep, ReverseRangeWorks)
{
    const skyline::SkylineSession session;
    const auto points =
        session.sweep("sensor_range", 10.0, 2.0, 5);
    ASSERT_EQ(points.size(), 5u);
    EXPECT_DOUBLE_EQ(points.front().knobValue, 10.0);
    EXPECT_DOUBLE_EQ(points.back().knobValue, 2.0);
    // Shorter range -> lower roof.
    EXPECT_GT(points.front().roofVelocity,
              points.back().roofVelocity);
}

TEST(SessionConfig, SaveLoadRoundTrip)
{
    skyline::SkylineSession session;
    session.set("compute_tdp", "22.5");
    session.set("algorithm", "TrailNet");
    session.set("sensor_range", "7.25");

    skyline::SkylineSession restored;
    restored.loadConfig(session.saveConfig());
    EXPECT_DOUBLE_EQ(restored.knobs().computeTdp.value(), 22.5);
    EXPECT_EQ(restored.knobs().algorithm, "TrailNet");
    EXPECT_DOUBLE_EQ(restored.knobs().sensorRange.value(), 7.25);
    // The restored session produces the identical analysis.
    EXPECT_DOUBLE_EQ(
        restored.analyze().f1.safeVelocity.value(),
        session.analyze().f1.safeVelocity.value());
}

TEST(SessionConfig, LoadSkipsCommentsAndBlankLines)
{
    skyline::SkylineSession session;
    session.loadConfig("# comment\n\n  compute_tdp = 12\n");
    EXPECT_DOUBLE_EQ(session.knobs().computeTdp.value(), 12.0);
}

TEST(SessionConfig, LoadRejectsMalformedLines)
{
    skyline::SkylineSession session;
    EXPECT_THROW(session.loadConfig("compute_tdp 12"), ModelError);
    EXPECT_THROW(session.loadConfig("warp = 9"), ModelError);
}

TEST(MonteCarlo, ZeroUncertaintyCollapsesToNominal)
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(178.0));
    spec.aMaxRelStd = 0.0;
    spec.rangeRelStd = 0.0;
    spec.computeRelStd = 0.0;
    const auto result =
        sim::MonteCarloAnalyzer(spec).run(100, 1);
    const auto nominal =
        core::F1Model(spec.nominal).analyze();
    EXPECT_NEAR(result.safeVelocity.mean,
                nominal.safeVelocity.value(), 1e-12);
    EXPECT_NEAR(result.safeVelocity.stddev, 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(result.probPhysicsBound, 1.0);
}

TEST(MonteCarlo, UnbiasedPerturbations)
{
    // E[factor] = 1 by construction: the output mean should sit
    // near the nominal for mild uncertainty.
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(178.0));
    const auto result =
        sim::MonteCarloAnalyzer(spec).run(40000, 3);
    const double nominal_v =
        core::F1Model(spec.nominal).analyze().safeVelocity.value();
    EXPECT_NEAR(result.safeVelocity.mean, nominal_v,
                0.02 * nominal_v);
    // Percentiles are ordered.
    EXPECT_LE(result.safeVelocity.p5, result.safeVelocity.p50);
    EXPECT_LE(result.safeVelocity.p50, result.safeVelocity.p95);
    // Bound probabilities sum to one.
    EXPECT_NEAR(result.probComputeBound + result.probSensorBound +
                    result.probControlBound +
                    result.probPhysicsBound,
                1.0, 1e-12);
}

TEST(MonteCarlo, MarginalDesignsAreUncertain)
{
    // TrailNet sits 1.27x past the knee: input noise must produce
    // a non-trivial compute-bound probability.
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(55.0));
    const auto result =
        sim::MonteCarloAnalyzer(spec).run(20000, 5);
    EXPECT_GT(result.probComputeBound, 0.01);
    EXPECT_GT(result.probPhysicsBound, 0.5);
    // A robust design (DroNet's 4.1x margin) is near-certain.
    sim::UncertaintySpec robust;
    robust.nominal = studies::pelicanInputs(units::Hertz(178.0));
    const auto robust_result =
        sim::MonteCarloAnalyzer(robust).run(20000, 5);
    EXPECT_GT(robust_result.probPhysicsBound,
              result.probPhysicsBound);
    // Nano + PULP at 6 Hz sits far below its knee: robustly
    // compute-bound.
    sim::UncertaintySpec nano;
    nano.nominal = studies::nanoInputs(units::Hertz(6.0));
    EXPECT_GT(sim::MonteCarloAnalyzer(nano).run(20000, 5)
                  .probComputeBound,
              0.99);
}

TEST(MonteCarlo, DeterministicForSeed)
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(55.0));
    const sim::MonteCarloAnalyzer analyzer(spec);
    const auto a = analyzer.run(500, 9);
    const auto b = analyzer.run(500, 9);
    EXPECT_DOUBLE_EQ(a.safeVelocity.mean, b.safeVelocity.mean);
    EXPECT_DOUBLE_EQ(a.probComputeBound, b.probComputeBound);
}

TEST(MonteCarlo, Validation)
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(55.0));
    EXPECT_THROW(sim::MonteCarloAnalyzer(spec).run(5, 1),
                 ModelError);
    spec.aMaxRelStd = -0.1;
    EXPECT_THROW(sim::MonteCarloAnalyzer{spec}, ModelError);
    EXPECT_THROW(sim::Distribution::fromSamples({}), ModelError);

    // Every spread the spec's path draws is rejected by name when
    // log(1 + s^2) would not be finite: NaN, +-inf, and s^2 past
    // DBL_MAX. aiRelStd is drawn only with a platform.
    sim::UncertaintySpec platform_spec = spec;
    platform_spec.aMaxRelStd = 0.1;
    platform_spec.platform =
        components::Catalog::standard().rooflines().byName(
            "Nvidia TX2");
    platform_spec.profile.ai = units::OpsPerByte(22.3);
    platform_spec.workPerFrameGop = 0.04;
    const struct
    {
        const char *name;
        double sim::UncertaintySpec::*field;
    } spreads[] = {
        {"aMaxRelStd", &sim::UncertaintySpec::aMaxRelStd},
        {"rangeRelStd", &sim::UncertaintySpec::rangeRelStd},
        {"computeRelStd", &sim::UncertaintySpec::computeRelStd},
        {"sensorRelStd", &sim::UncertaintySpec::sensorRelStd},
        {"aiRelStd", &sim::UncertaintySpec::aiRelStd},
    };
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto &spread : spreads) {
        for (const double bad :
             {std::numeric_limits<double>::quiet_NaN(), inf, -inf,
              1e200, 1.35e154}) {
            sim::UncertaintySpec bad_spec = platform_spec;
            bad_spec.*spread.field = bad;
            try {
                sim::MonteCarloAnalyzer analyzer(bad_spec);
                ADD_FAILURE() << spread.name << " = " << bad
                              << " was accepted";
            } catch (const ModelError &e) {
                EXPECT_NE(std::string(e.what()).find(spread.name),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    // The largest spread with a finite log(1 + s^2) is accepted.
    platform_spec.rangeRelStd = 1.3e154;
    EXPECT_NO_THROW(sim::MonteCarloAnalyzer{platform_spec});
    // Without a platform the AI spread is never drawn.
    sim::UncertaintySpec legacy = spec;
    legacy.aMaxRelStd = 0.1;
    legacy.aiRelStd = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NO_THROW(sim::MonteCarloAnalyzer{legacy});

    // A count past 2^53 throws a ModelError naming it before any
    // block arithmetic or allocation, on both run flavours.
    const sim::MonteCarloAnalyzer analyzer(legacy);
    for (const std::size_t count :
         {std::numeric_limits<std::size_t>::max(),
          std::numeric_limits<std::size_t>::max() - 100,
          (std::size_t{1} << 53) + 1}) {
        for (const bool reference : {false, true}) {
            try {
                if (reference)
                    (void)analyzer.runReference(count, 1);
                else
                    (void)analyzer.run(count, 1);
                ADD_FAILURE() << "count " << count << " was accepted";
            } catch (const ModelError &e) {
                EXPECT_NE(std::string(e.what()).find("count"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

} // namespace
