/**
 * @file
 * Tests for the extension modules that implement the paper's
 * prescribed-but-unevaluated remedies: DVFS derating, redundancy
 * reliability, momentum-theory hover power, and the Skyline knob
 * sweep.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "components/catalog.hh"
#include "core/safety_model.hh"
#include "physics/rotor_aero.hh"
#include "pipeline/reliability.hh"
#include "sim/monte_carlo.hh"
#include "skyline/session.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "workload/dvfs.hh"
#include "workload/latency_trace.hh"
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

TEST(Dvfs, DerateToThroughputShrinksHeatsink)
{
    // The paper's Fig. 14 remedy: a TX2 at ~1/5 throughput fits a
    // far smaller power/heat-sink envelope.
    const auto catalog = components::Catalog::standard();
    const auto &tx2 = catalog.computes().byName("Nvidia TX2");
    const workload::DvfsModel dvfs;

    const auto derated = dvfs.derateToThroughput(
        tx2, Hertz(178.0), Hertz(43.0), " @knee");
    EXPECT_EQ(derated.name(), "Nvidia TX2 @knee");
    EXPECT_LT(derated.tdp().value(), tx2.tdp().value() / 3.0);

    const thermal::HeatsinkModel heatsink;
    EXPECT_LT(derated.heatsinkMass(heatsink).value(),
              tx2.heatsinkMass(heatsink).value());
}

TEST(Dvfs, RangeValidation)
{
    const workload::DvfsModel dvfs;
    EXPECT_THROW(dvfs.scaledTdp(30.0_w, 0.05), ModelError);
    EXPECT_THROW(dvfs.scaledTdp(30.0_w, 1.5), ModelError);
    const auto catalog = components::Catalog::standard();
    const auto &tx2 = catalog.computes().byName("Nvidia TX2");
    EXPECT_THROW(dvfs.derateToThroughput(tx2, Hertz(178.0),
                                         Hertz(300.0), "x"),
                 ModelError);
    workload::DvfsModel::Params bad;
    bad.exponent = 5.0;
    EXPECT_THROW(workload::DvfsModel{bad}, ModelError);
}

TEST(Reliability, ModuleSurvivalIsExponential)
{
    const pipeline::ReliabilityModel model(0.1); // 0.1 / hour.
    // One hour mission: exp(-0.1).
    EXPECT_NEAR(model.moduleSurvival(Seconds(3600.0)),
                std::exp(-0.1), 1e-12);
    // Zero-length mission never fails.
    EXPECT_DOUBLE_EQ(model.moduleSurvival(Seconds(0.0)), 1.0);
}

TEST(Reliability, TmrMasksOneFault)
{
    const pipeline::ReliabilityModel model(0.5);
    const Seconds mission(3600.0);
    const double p = model.moduleSurvival(mission);
    const double tmr = model.missionSuccess(
        pipeline::RedundancyScheme::Triple, mission);
    EXPECT_NEAR(tmr, p * p * p + 3.0 * p * p * (1.0 - p), 1e-12);
    // TMR beats simplex beats DMR on mission success (DMR aborts on
    // any single failure).
    const double simplex = model.missionSuccess(
        pipeline::RedundancyScheme::None, mission);
    const double dmr = model.missionSuccess(
        pipeline::RedundancyScheme::Dual, mission);
    EXPECT_GT(tmr, simplex);
    EXPECT_LT(dmr, simplex);
}

TEST(Reliability, RedundancyCutsUnsafeFailures)
{
    const pipeline::ReliabilityModel model(0.2);
    const Seconds mission(1800.0);
    const double simplex = model.unsafeFailure(
        pipeline::RedundancyScheme::None, mission);
    const double dmr = model.unsafeFailure(
        pipeline::RedundancyScheme::Dual, mission);
    const double tmr = model.unsafeFailure(
        pipeline::RedundancyScheme::Triple, mission);
    EXPECT_LT(dmr, simplex);
    EXPECT_LT(tmr, simplex);
    // DMR's detect-and-abort squares the unsafe probability.
    EXPECT_NEAR(dmr, simplex * simplex, 1e-12);
}

TEST(Reliability, RejectsBadRate)
{
    EXPECT_THROW(pipeline::ReliabilityModel(0.0), ModelError);
    EXPECT_THROW(pipeline::ReliabilityModel(-1.0), ModelError);
}

TEST(RotorAero, DiskAreaAndHoverPower)
{
    // 4 rotors of 0.24 m diameter: A = 4 * pi * 0.12^2.
    const physics::RotorAero aero(4, 0.24, 0.65);
    EXPECT_NEAR(aero.diskAreaM2(), 4.0 * M_PI * 0.12 * 0.12, 1e-12);

    // Ideal momentum theory, checked against the closed form.
    const Kilograms mass(1.2);
    const double weight = 1.2 * 9.80665;
    const double ideal = std::pow(weight, 1.5) /
                         std::sqrt(2.0 * 1.225 * aero.diskAreaM2());
    EXPECT_NEAR(aero.hoverPower(mass).value(), ideal / 0.65, 1e-9);
}

TEST(RotorAero, HeavierNeedsSuperlinearPower)
{
    const physics::RotorAero aero(4, 0.24);
    const double p1 = aero.hoverPower(1.0_kg).value();
    const double p2 = aero.hoverPower(2.0_kg).value();
    // P ~ m^1.5: doubling mass costs ~2.83x power.
    EXPECT_NEAR(p2 / p1, std::pow(2.0, 1.5), 1e-9);
}

TEST(RotorAero, EnduranceMatchesEnergyBudget)
{
    const physics::RotorAero aero(4, 0.24, 0.65);
    const Kilograms mass(1.0);
    const WattHours energy(44.4);
    const auto endurance =
        aero.hoverEndurance(mass, energy, Watts(5.0));
    const double total =
        aero.hoverPower(mass).value() + 5.0;
    EXPECT_NEAR(endurance.value(), 44.4 * 3600.0 / total, 1e-6);
}

TEST(RotorAero, RejectsBadArguments)
{
    EXPECT_THROW(physics::RotorAero(0, 0.24), ModelError);
    EXPECT_THROW(physics::RotorAero(4, -0.1), ModelError);
    EXPECT_THROW(physics::RotorAero(4, 0.24, 1.5), ModelError);
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

TEST(LatencyTrace, FromSamplesStatistics)
{
    const workload::LatencyTrace trace(
        "t", {Seconds(0.1), Seconds(0.3), Seconds(0.2)});
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_NEAR(trace.mean().value(), 0.2, 1e-12);
    EXPECT_NEAR(trace.worst().value(), 0.3, 1e-12);
    // Sorted ascending.
    EXPECT_DOUBLE_EQ(trace.sortedSeconds().front(), 0.1);
    EXPECT_DOUBLE_EQ(trace.sortedSeconds().back(), 0.3);
    // Percentiles interpolate: p50 is the middle sample.
    EXPECT_NEAR(trace.percentile(50.0).value(), 0.2, 1e-12);
    EXPECT_NEAR(trace.percentile(0.0).value(), 0.1, 1e-12);
    EXPECT_NEAR(trace.percentile(100.0).value(), 0.3, 1e-12);
}

TEST(LatencyTrace, SynthesizedLognormalHitsTargetMean)
{
    const auto trace = workload::LatencyTrace::synthesize(
        "planner", Seconds(0.9), 0.6, 20000, 42);
    EXPECT_NEAR(trace.mean().value(), 0.9, 0.02);
    // Heavy tail: p99 well above the mean.
    EXPECT_GT(trace.percentile(99.0).value(),
              1.5 * trace.mean().value());
    // Percentiles are monotone.
    double previous = 0.0;
    for (double p : {10.0, 50.0, 90.0, 99.0, 100.0}) {
        const double value = trace.percentile(p).value();
        EXPECT_GE(value, previous);
        previous = value;
    }
}

TEST(LatencyTrace, ZeroCvIsConstant)
{
    const auto trace = workload::LatencyTrace::synthesize(
        "const", Seconds(0.5), 0.0, 64, 1);
    EXPECT_NEAR(trace.percentile(0.0).value(), 0.5, 1e-12);
    EXPECT_NEAR(trace.percentile(100.0).value(), 0.5, 1e-12);
    EXPECT_NEAR(trace.meanThroughput().value(), 2.0, 1e-9);
}

TEST(LatencyTrace, DeterministicForSeed)
{
    const auto a = workload::LatencyTrace::synthesize(
        "a", Seconds(0.9), 0.6, 256, 7);
    const auto b = workload::LatencyTrace::synthesize(
        "b", Seconds(0.9), 0.6, 256, 7);
    EXPECT_EQ(a.sortedSeconds(), b.sortedSeconds());
}

TEST(LatencyTrace, ScaledByAndValidation)
{
    const auto trace = workload::LatencyTrace::synthesize(
        "t", Seconds(0.2), 0.3, 128, 3);
    const auto slower = trace.scaledBy(2.0, " (slow host)");
    EXPECT_NEAR(slower.mean().value(), 2.0 * trace.mean().value(),
                1e-12);
    EXPECT_THROW(trace.scaledBy(0.0, "x"), ModelError);
    EXPECT_THROW(trace.percentile(101.0), ModelError);
    EXPECT_THROW(workload::LatencyTrace("empty", {}), ModelError);
    EXPECT_THROW(
        workload::LatencyTrace("neg", {Seconds(-0.1)}), ModelError);
}

TEST(LatencyTrace, TailSizingLowersSafeVelocity)
{
    // The ablation's core claim as a test: p99 sizing never exceeds
    // mean sizing in safe velocity.
    const auto trace = workload::LatencyTrace::synthesize(
        "planner", Seconds(0.9), 0.6, 4096, 7);
    const core::SafetyModel safety(MetersPerSecondSquared(4.12),
                                   Meters(2.73));
    const double v_mean =
        safety.safeVelocityAtRate(trace.meanThroughput()).value();
    const double v_p99 =
        safety.safeVelocityAtRate(trace.percentileThroughput(99.0))
            .value();
    EXPECT_LT(v_p99, v_mean);
}

TEST(OracleCsv, RoundTrip)
{
    const auto original = workload::ThroughputOracle::standard();
    const auto restored =
        workload::ThroughputOracle::fromCsv(original.toCsv());
    EXPECT_DOUBLE_EQ(
        restored.measured("DroNet", "Nvidia TX2").value(), 178.0);
    EXPECT_DOUBLE_EQ(
        restored.measured("CAD2RL", "Ras-Pi4").value(), 0.0652);
    EXPECT_TRUE(
        restored.hasMeasurement("SPA package delivery",
                                "Nvidia TX2"));
}

TEST(OracleCsv, ParsesCommentsAndWhitespace)
{
    const auto oracle = workload::ThroughputOracle::fromCsv(
        "# my measurements\n"
        "algorithm,platform,throughput_hz\n"
        "\n"
        "  MyNet ,  MyChip , 42.5 \n");
    EXPECT_DOUBLE_EQ(oracle.measured("MyNet", "MyChip").value(),
                     42.5);
}

TEST(OracleCsv, RejectsMalformedInput)
{
    EXPECT_THROW(workload::ThroughputOracle::fromCsv(""),
                 ModelError);
    EXPECT_THROW(workload::ThroughputOracle::fromCsv(
                     "algorithm,platform,throughput_hz\na,b\n"),
                 ModelError);
    EXPECT_THROW(workload::ThroughputOracle::fromCsv(
                     "algorithm,platform,throughput_hz\n"
                     "a,b,not-a-number\n"),
                 ModelError);
    EXPECT_THROW(workload::ThroughputOracle::fromCsv(
                     "x,y,z\na,b,1\n"),
                 ModelError);
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
