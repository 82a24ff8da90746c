/**
 * @file
 * Cross-module property tests: invariants that must hold across
 * wide parameter sweeps, exercised with parameterized gtest suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/f1_model.hh"
#include "core/safety_model.hh"
#include "physics/acceleration.hh"
#include "sim/flight_sim.hh"
#include "sim/vehicle.hh"
#include "thermal/heatsink.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;

/** (f_sensor, f_compute, f_control) triples for pipeline sweeps. */
struct Rates
{
    double sensor;
    double compute;
    double control;
};

/** The Eq. 3 analysis of a rate triple at fixed (Pelican) physics. */
core::F1Analysis
analyzeRates(double sensor, double compute, double control)
{
    core::F1Inputs inputs;
    inputs.aMax = MetersPerSecondSquared(4.12);
    inputs.sensingRange = Meters(2.73);
    inputs.sensorRate = Hertz(sensor);
    inputs.computeRate = Hertz(compute);
    inputs.controlRate = Hertz(control);
    core::F1Analysis out;
    core::F1Model::analyzeInto(inputs, out);
    return out;
}

class PipelinePropertyTest : public ::testing::TestWithParam<Rates>
{
};

TEST_P(PipelinePropertyTest, Eq3IsTheMinimum)
{
    const Rates r = GetParam();
    const double expected =
        std::min({r.sensor, r.compute, r.control});
    EXPECT_DOUBLE_EQ(
        analyzeRates(r.sensor, r.compute, r.control)
            .actionThroughput.value(),
        expected);
}

TEST_P(PipelinePropertyTest, SpeedingUpANonBottleneckChangesNothing)
{
    using core::BottleneckStage;
    const Rates r = GetParam();
    const core::F1Analysis base =
        analyzeRates(r.sensor, r.compute, r.control);
    const BottleneckStage bottleneck = base.bottleneckStage;
    // Double every non-bottleneck stage: action throughput must be
    // unchanged.
    const double s = bottleneck == BottleneckStage::Sensor
                         ? r.sensor
                         : r.sensor * 2.0;
    const double c = bottleneck == BottleneckStage::Compute
                         ? r.compute
                         : r.compute * 2.0;
    const double k = bottleneck == BottleneckStage::Control
                         ? r.control
                         : r.control * 2.0;
    EXPECT_DOUBLE_EQ(analyzeRates(s, c, k).actionThroughput.value(),
                     base.actionThroughput.value());
}

INSTANTIATE_TEST_SUITE_P(
    RateSweep, PipelinePropertyTest,
    ::testing::Values(Rates{60.0, 178.0, 1000.0},
                      Rates{60.0, 1.1, 1000.0},
                      Rates{10.0, 150.0, 1000.0},
                      Rates{60.0, 6.0, 100.0},
                      Rates{30.0, 30.0, 30.0},
                      Rates{240.0, 0.065, 8000.0}));

/** F-1 invariants over a grid of physics and rates. */
struct F1Sweep
{
    double aMax;
    double range;
    double compute;
};

class F1PropertyTest : public ::testing::TestWithParam<F1Sweep>
{
};

TEST_P(F1PropertyTest, SafeVelocityNeverExceedsRoof)
{
    const F1Sweep p = GetParam();
    core::F1Inputs inputs;
    inputs.aMax = MetersPerSecondSquared(p.aMax);
    inputs.sensingRange = Meters(p.range);
    inputs.sensorRate = Hertz(60.0);
    inputs.computeRate = Hertz(p.compute);
    const auto analysis = core::F1Model(inputs).analyze();
    EXPECT_LE(analysis.safeVelocity.value(),
              analysis.roofVelocity.value());
    EXPECT_LE(analysis.kneeVelocity.value(),
              analysis.roofVelocity.value());
    EXPECT_GT(analysis.safeVelocity.value(), 0.0);
}

TEST_P(F1PropertyTest, FasterComputeNeverHurts)
{
    const F1Sweep p = GetParam();
    core::F1Inputs inputs;
    inputs.aMax = MetersPerSecondSquared(p.aMax);
    inputs.sensingRange = Meters(p.range);
    inputs.sensorRate = Hertz(60.0);
    inputs.computeRate = Hertz(p.compute);
    const auto base = core::F1Model(inputs).analyze();
    inputs.computeRate = Hertz(p.compute * 2.0);
    const auto faster = core::F1Model(inputs).analyze();
    EXPECT_GE(faster.safeVelocity.value(),
              base.safeVelocity.value() - 1e-12);
}

TEST_P(F1PropertyTest, ExactlyOneBoundHolds)
{
    const F1Sweep p = GetParam();
    core::F1Inputs inputs;
    inputs.aMax = MetersPerSecondSquared(p.aMax);
    inputs.sensingRange = Meters(p.range);
    inputs.sensorRate = Hertz(60.0);
    inputs.computeRate = Hertz(p.compute);
    const auto analysis = core::F1Model(inputs).analyze();
    if (analysis.bound == core::BoundType::PhysicsBound) {
        EXPECT_GE(analysis.actionThroughput.value(),
                  analysis.kneeThroughput.value());
        EXPECT_GE(analysis.overProvisionFactor, 1.0);
        EXPECT_DOUBLE_EQ(analysis.requiredSpeedup, 1.0);
    } else {
        EXPECT_LT(analysis.actionThroughput.value(),
                  analysis.kneeThroughput.value());
        EXPECT_GT(analysis.requiredSpeedup, 1.0);
        EXPECT_DOUBLE_EQ(analysis.overProvisionFactor, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, F1PropertyTest,
    ::testing::Values(F1Sweep{0.5, 3.0, 1.1}, F1Sweep{0.5, 3.0, 178.0},
                      F1Sweep{4.12, 2.73, 55.0},
                      F1Sweep{4.12, 2.73, 6.0},
                      F1Sweep{8.082, 11.0, 178.0},
                      F1Sweep{50.0, 10.0, 100.0},
                      F1Sweep{3.31, 6.0, 0.065},
                      F1Sweep{20.0, 1.0, 500.0}));

/** Acceleration-law invariants over thrust-to-weight ratios. */
class AccelLawTest : public ::testing::TestWithParam<double>
{
};

TEST_P(AccelLawTest, HoverConstrainedDominatesVerticalExcess)
{
    const double twr = GetParam();
    const Newtons thrust(twr * 9.80665);
    const Kilograms mass(1.0);
    const auto hover = physics::maxAcceleration(
        thrust, mass,
        {.law = physics::AccelerationLaw::HoverConstrained});
    const auto excess = physics::maxAcceleration(
        thrust, mass,
        {.law = physics::AccelerationLaw::VerticalExcess});
    // sqrt(twr^2 - 1) >= twr - 1 for all twr >= 1.
    EXPECT_GE(hover.value(), excess.value() - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(TwrSweep, AccelLawTest,
                         ::testing::Values(1.01, 1.05, 1.15, 1.5,
                                           2.0, 3.0, 5.0));

/** Simulator monotonicity: heavier payload -> lower observed safe
 * velocity. */
class SimPayloadTest : public ::testing::TestWithParam<double>
{
};

TEST_P(SimPayloadTest, HeavierIsNeverSaferAtTheSameSpeed)
{
    const double extra_kg = GetParam();
    sim::VehicleParams light;
    light.mass = Kilograms(1.62);
    light.usableThrust =
        gramsForceToNewtons(Grams(1870.0));
    light.actuationLag = Seconds(0.15);
    sim::VehicleParams heavy = light;
    heavy.mass = Kilograms(1.62 + extra_kg);

    sim::StopScenario scenario;
    scenario.commandedVelocity = MetersPerSecond(1.6);

    Rng rng_a(3);
    Rng rng_b(3);
    const auto light_trial = sim::FlightSimulator(
        sim::VehicleModel(light))
        .run(scenario, sim::NoiseParams::none(), rng_a);
    const auto heavy_trial = sim::FlightSimulator(
        sim::VehicleModel(heavy))
        .run(scenario, sim::NoiseParams::none(), rng_b);
    // The heavier vehicle stops later (larger margin toward the
    // obstacle) at the same commanded speed.
    EXPECT_GE(heavy_trial.stopMargin, light_trial.stopMargin - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PayloadSweep, SimPayloadTest,
                         ::testing::Values(0.02, 0.05, 0.1, 0.15));

/** Heat-sink model: scaling TDP by k scales mass by ~k (gamma ~ 1),
 * and the mass is superlinear-free (no pathological jumps). */
class HeatsinkScalingTest : public ::testing::TestWithParam<double>
{
};

TEST_P(HeatsinkScalingTest, NearLinearScaling)
{
    const double tdp = GetParam();
    const thermal::HeatsinkModel model;
    const double m1 = model.mass(Watts(tdp)).value();
    const double m2 = model.mass(Watts(2.0 * tdp)).value();
    EXPECT_GT(m2 / m1, 1.8);
    EXPECT_LT(m2 / m1, 2.2);
}

INSTANTIATE_TEST_SUITE_P(TdpSweep, HeatsinkScalingTest,
                         ::testing::Values(2.0, 5.0, 10.0, 15.0,
                                           30.0));

} // namespace
