/**
 * @file
 * Unit tests for the flight simulator: vehicle integration, the
 * dash-and-stop protocol and its input checks, interleaved trial
 * lanes against single runs, the validation harness and the pinned
 * fig07 sweeps, the Monte-Carlo per-ceiling binding tallies, the
 * statistics of the analyzer's lognormal factor draw, and the
 * pairing of the block normal stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>
#include <string>
#include <vector>

#include "components/catalog.hh"
#include "exec/thread_pool.hh"
#include "sim/flight_sim.hh"
#include "sim/lognormal.hh"
#include "sim/monte_carlo.hh"
#include "sim/normals.hh"
#include "sim/table1.hh"
#include "sim/validation.hh"
#include "sim/vehicle.hh"
#include "simd/math.hh"
#include "simd/simd.hh"
#include "studies/presets.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::units::literals;
using namespace uavf1::sim;

/** A light test vehicle: 1 kg, T/W 1.5, no drag, no lag. */
VehicleParams
idealVehicle()
{
    VehicleParams params;
    params.mass = 1.0_kg;
    params.usableThrust = Newtons(1.5 * 9.80665);
    params.drag = physics::DragModel::none();
    params.actuationLag = Seconds(0.0);
    params.brakeMargin = 1.0;
    return params;
}

TEST(Vehicle, AvailableAccelerationVerticalExcess)
{
    const VehicleModel vehicle(idealVehicle());
    // twr 1.5 -> a = 0.5 g.
    EXPECT_NEAR(vehicle.availableAcceleration().value(),
                0.5 * 9.80665, 1e-9);
}

TEST(Vehicle, CannotHoverThrows)
{
    VehicleParams params = idealVehicle();
    params.usableThrust = Newtons(9.0);
    EXPECT_THROW(VehicleModel{params}, InfeasibleError);
}

TEST(Vehicle, StepIntegratesConstantAcceleration)
{
    VehicleModel vehicle(idealVehicle());
    vehicle.reset();
    const double a = vehicle.availableAcceleration().value();
    // 1 s of full command at dt = 1 ms.
    for (int i = 0; i < 1000; ++i)
        vehicle.step(Seconds(0.001), a);
    // v = a t; x ~ a t^2 / 2 (semi-implicit Euler is close).
    EXPECT_NEAR(vehicle.state().velocity, a, 1e-9);
    EXPECT_NEAR(vehicle.state().position, 0.5 * a, 0.01);
}

TEST(Vehicle, CommandIsClippedToAvailable)
{
    VehicleModel vehicle(idealVehicle());
    vehicle.reset();
    vehicle.step(Seconds(0.001), 1e6);
    EXPECT_NEAR(vehicle.state().acceleration,
                vehicle.availableAcceleration().value(), 1e-9);
    vehicle.reset();
    vehicle.step(Seconds(0.001), -1e6);
    EXPECT_NEAR(vehicle.state().acceleration,
                -vehicle.availableAcceleration().value(), 1e-9);
}

TEST(Vehicle, ActuationLagDelaysResponse)
{
    VehicleParams lagged = idealVehicle();
    lagged.actuationLag = Seconds(0.2);
    VehicleModel vehicle(lagged);
    vehicle.reset();
    vehicle.step(Seconds(0.001), 1.0);
    // After one millisecond the realized acceleration is far from
    // the command.
    EXPECT_LT(vehicle.state().acceleration, 0.1);
    // After many time constants it converges.
    for (int i = 0; i < 5000; ++i)
        vehicle.step(Seconds(0.001), 1.0);
    EXPECT_NEAR(vehicle.state().acceleration, 1.0, 0.02);
}

TEST(Vehicle, DragOpposesMotion)
{
    VehicleParams draggy = idealVehicle();
    draggy.drag = physics::DragModel(1.0, 0.1);
    VehicleModel vehicle(draggy);
    vehicle.reset();
    // Coast at 5 m/s with zero command: drag must decelerate.
    for (int i = 0; i < 100; ++i)
        vehicle.step(Seconds(0.001), 0.0);
    EXPECT_DOUBLE_EQ(vehicle.state().velocity, 0.0);

    // Manually inject speed by resetting state through steps.
    VehicleModel coaster(draggy);
    coaster.reset();
    const double a = coaster.availableAcceleration().value();
    while (coaster.state().velocity < 3.0)
        coaster.step(Seconds(0.001), a);
    const double v0 = coaster.state().velocity;
    for (int i = 0; i < 1000; ++i)
        coaster.step(Seconds(0.001), 0.0);
    EXPECT_LT(coaster.state().velocity, v0);
}

TEST(FlightSim, SlowCommandStopsSafely)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    StopScenario scenario;
    scenario.commandedVelocity = 1.0_mps; // Far below safe.
    Rng rng(1);
    const TrialResult trial =
        simulator.run(scenario, NoiseParams::none(), rng);
    EXPECT_FALSE(trial.infraction);
    EXPECT_LT(trial.stopMargin, 0.0);
    EXPECT_GT(trial.brakeTime, 0.0);
    // PI velocity tracking overshoots a little; ~10% is expected.
    EXPECT_NEAR(trial.peakVelocity, 1.0, 0.15);
}

TEST(FlightSim, ExcessiveCommandCollides)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    // v_safe at 10 Hz with a ~ 4.9, d = 3 is ~5 m/s; 7 m/s must
    // infract.
    StopScenario scenario;
    scenario.commandedVelocity = 7.0_mps;
    Rng rng(1);
    const TrialResult trial =
        simulator.run(scenario, NoiseParams::none(), rng);
    EXPECT_TRUE(trial.infraction);
    EXPECT_GT(trial.stopMargin, 0.0);
}

TEST(FlightSim, DeterministicWithoutNoise)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    StopScenario scenario;
    scenario.commandedVelocity = 3.0_mps;
    Rng rng_a(1);
    Rng rng_b(2); // Different seed must not matter without noise.
    const TrialResult a =
        simulator.run(scenario, NoiseParams::none(), rng_a);
    const TrialResult b =
        simulator.run(scenario, NoiseParams::none(), rng_b);
    EXPECT_DOUBLE_EQ(a.stopMargin, b.stopMargin);
    EXPECT_DOUBLE_EQ(a.peakVelocity, b.peakVelocity);
}

TEST(FlightSim, TrajectoryRecordingCoversTheDash)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    StopScenario scenario;
    scenario.commandedVelocity = 2.0_mps;
    Rng rng(1);
    const TrialResult trial =
        simulator.run(scenario, NoiseParams::none(), rng, true);
    ASSERT_GT(trial.trajectory.size(), 100u);
    // Time and position are non-decreasing.
    for (std::size_t i = 1; i < trial.trajectory.size(); ++i) {
        EXPECT_GE(trial.trajectory[i].time,
                  trial.trajectory[i - 1].time);
        EXPECT_GE(trial.trajectory[i].position,
                  trial.trajectory[i - 1].position - 1e-9);
    }
    // The dash ends where the vehicle stopped.
    EXPECT_NEAR(trial.trajectory.back().position,
                scenario.runUp.value() +
                    scenario.obstacleDistance.value() +
                    trial.stopMargin,
                1e-6);
}

TEST(FlightSim, ClockIndexesByIntegerStep)
{
    // Every 10th step is recorded, so sample i sits at step 10 i. The
    // clock is `step * dt`, not a running `time += dt`, which drifts
    // an ulp per step and misses these values after a few thousand
    // steps.
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    StopScenario scenario;
    scenario.commandedVelocity = 2.0_mps;
    Rng rng(1);
    const TrialResult trial =
        simulator.run(scenario, NoiseParams::none(), rng, true);
    const double dt = scenario.timestep.value();
    ASSERT_GT(trial.trajectory.size(), 300u);
    // The final sample is the post-stop state, off the 10-step grid.
    for (std::size_t i = 0; i + 1 < trial.trajectory.size(); ++i) {
        ASSERT_EQ(trial.trajectory[i].time,
                  static_cast<double>(10 * i) * dt)
            << "sample " << i;
    }
}

TEST(FlightSim, InfractionMonotoneInCommandedVelocity)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    bool seen_infraction = false;
    for (double v = 1.0; v <= 8.0; v += 0.5) {
        StopScenario scenario;
        scenario.commandedVelocity = MetersPerSecond(v);
        Rng rng(1);
        const TrialResult trial =
            simulator.run(scenario, NoiseParams::none(), rng);
        if (seen_infraction) {
            EXPECT_TRUE(trial.infraction)
                << "safe again at v = " << v;
        }
        seen_infraction = seen_infraction || trial.infraction;
    }
    EXPECT_TRUE(seen_infraction);
}

/** Bit pattern of a double, so NaN and -0 compare exactly. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Exact equality across every field of two trial results. */
void
expectSameTrial(const TrialResult &a, const TrialResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.infraction, b.infraction) << what;
    EXPECT_EQ(bits(a.stopMargin), bits(b.stopMargin)) << what;
    EXPECT_EQ(bits(a.peakVelocity), bits(b.peakVelocity)) << what;
    EXPECT_EQ(bits(a.peakAcceleration), bits(b.peakAcceleration))
        << what;
    EXPECT_EQ(bits(a.brakeTime), bits(b.brakeTime)) << what;
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << what;
    for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
        const TrajectorySample &x = a.trajectory[i];
        const TrajectorySample &y = b.trajectory[i];
        EXPECT_EQ(bits(x.time), bits(y.time)) << what << " sample " << i;
        EXPECT_EQ(bits(x.position), bits(y.position)) << what;
        EXPECT_EQ(bits(x.velocity), bits(y.velocity)) << what;
        EXPECT_EQ(bits(x.acceleration), bits(y.acceleration)) << what;
    }
}

/** Restore the SIMD dispatch mode on scope exit. */
struct SimdModeGuard
{
    simd::Mode saved = simd::activeMode();
    ~SimdModeGuard() { simd::setMode(saved); }
};

/** A lane-test trial: its simulator, scenario, noise and seed. */
struct LaneCase
{
    std::string what;
    FlightSimulator simulator;
    StopScenario scenario;
    NoiseParams noise;
    std::uint64_t seed;
};

/**
 * Trials that end on different steps and in different ways: the
 * four Table-I builds at safe and colliding set-points, a vehicle
 * without actuation lag, a noise-free trial, a trial capped by
 * maxDuration before it detects, and one that never sees the
 * obstacle and sails past it.
 */
std::vector<LaneCase>
laneCases()
{
    const auto table1 = table1ValidationCases();
    std::vector<LaneCase> lanes;
    const auto add = [&](std::string what, const VehicleParams &vehicle,
                         StopScenario scenario, double velocity,
                         NoiseParams noise, std::uint64_t seed) {
        scenario.commandedVelocity = MetersPerSecond(velocity);
        lanes.push_back({std::move(what),
                         FlightSimulator(VehicleModel(vehicle)),
                         scenario, noise, seed});
    };
    const double velocities[] = {2.0, 1.3, 2.6, 1.0};
    for (std::size_t c = 0; c < table1.size(); ++c) {
        add(table1[c].name, table1[c].vehicle, table1[c].scenario,
            velocities[c], table1[c].noise, table1[c].seed + c);
    }
    const ValidationCase &a = table1[0];
    add("UAV-A at 4 m/s", a.vehicle, a.scenario, 4.0, a.noise, 3);
    add("no lag", idealVehicle(), a.scenario, 3.0, a.noise, 5);
    add("no noise", a.vehicle, a.scenario, 2.2, NoiseParams::none(), 9);
    StopScenario capped = a.scenario;
    capped.maxDuration = Seconds(1.5);
    add("capped", a.vehicle, capped, 2.0, a.noise, 11);
    StopScenario blind = a.scenario;
    blind.sensorRate = Hertz(0.01);
    add("sails past", a.vehicle, blind, 2.0, a.noise, 13);
    return lanes;
}

TEST(FlightSim, LanesAreSingleTrialRunsBitForBit)
{
    const std::vector<LaneCase> cases = laneCases();
    std::vector<TrialResult> single;
    for (const LaneCase &lane : cases) {
        Rng rng(lane.seed);
        single.push_back(lane.simulator.run(lane.scenario, lane.noise, rng));
    }
    // The set covers each way a trial ends.
    const TrialResult &capped = single[cases.size() - 2];
    EXPECT_LT(capped.brakeTime, 0.0);
    EXPECT_LT(capped.stopMargin, -5.0);
    EXPECT_GT(single.back().stopMargin, 5.0);
    EXPECT_TRUE(single[4].infraction);
    EXPECT_FALSE(single[0].infraction);

    // Every window of 1 .. lanes consecutive trials (so partial
    // chunks too), at every offset.
    for (std::size_t n = 1; n <= FlightSimulator::lanes; ++n) {
        for (std::size_t first = 0; first + n <= cases.size(); ++first) {
            std::vector<LaneTrial> trials;
            for (std::size_t i = first; i < first + n; ++i) {
                trials.push_back({&cases[i].simulator, cases[i].scenario,
                                  &cases[i].noise, Rng(cases[i].seed)});
            }
            std::vector<TrialResult> flown(n);
            FlightSimulator::flyLanes(trials, flown);
            for (std::size_t i = 0; i < n; ++i) {
                expectSameTrial(flown[i], single[first + i],
                                cases[first + i].what + " in a batch of " +
                                    std::to_string(n));
            }
        }
    }

    std::vector<LaneTrial> too_many(FlightSimulator::lanes + 1,
                                    {&cases[0].simulator, cases[0].scenario,
                                     &cases[0].noise, Rng(1)});
    std::vector<TrialResult> out(too_many.size());
    EXPECT_THROW(FlightSimulator::flyLanes(too_many, out), ModelError);
    EXPECT_THROW(FlightSimulator::flyLanes({too_many.data(), 2},
                                           {out.data(), 1}),
                 ModelError);
}

TEST(FlightSim, TrialsAreTheSameNativeAndForcedScalar)
{
    // The noise normals come from the width-invariant kernels, so a
    // trial, trajectory included, has the same bits at W = 1.
    const SimdModeGuard guard;
    for (const LaneCase &lane : laneCases()) {
        simd::setMode(simd::Mode::Native);
        Rng native_rng(lane.seed);
        const TrialResult native = lane.simulator.run(
            lane.scenario, lane.noise, native_rng, true);
        simd::setMode(simd::Mode::Scalar);
        Rng scalar_rng(lane.seed);
        const TrialResult scalar = lane.simulator.run(
            lane.scenario, lane.noise, scalar_rng, true);
        expectSameTrial(native, scalar, lane.what);
    }
}

TEST(FlightSim, MalformedInputsAreRejectedByName)
{
    // UAV-A commanded at 4 m/s collides. Each input below used to fly
    // without an error and report a verdict the inputs do not
    // support: zero steps and "safe", a NaN margin read as safe, a
    // vehicle that never brakes, thrust noise silently off.
    const ValidationCase vcase = table1ValidationCases()[0];
    const FlightSimulator simulator{VehicleModel(vcase.vehicle)};
    StopScenario base = vcase.scenario;
    base.commandedVelocity = 4.0_mps;
    Rng rng(1);
    ASSERT_TRUE(simulator.run(base, vcase.noise, rng).infraction);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    struct Malformed
    {
        std::string field;
        StopScenario scenario;
        NoiseParams noise;
    };
    std::vector<Malformed> inputs;
    const auto scenario = [&](std::string field, auto mutate) {
        Malformed m{std::move(field), base, vcase.noise};
        mutate(m.scenario);
        inputs.push_back(m);
    };
    const auto noise = [&](std::string field, auto mutate) {
        Malformed m{std::move(field), base, vcase.noise};
        mutate(m.noise);
        inputs.push_back(m);
    };
    scenario("maxDuration",
             [&](StopScenario &s) { s.maxDuration = Seconds(nan); });
    scenario("maxDuration",
             [](StopScenario &s) { s.maxDuration = Seconds(-1.0); });
    // 10^10 steps: past the 2^31 bound on the integer step loop.
    scenario("maxDuration",
             [](StopScenario &s) { s.maxDuration = Seconds(1e7); });
    scenario("timestep",
             [&](StopScenario &s) { s.timestep = Seconds(inf); });
    scenario("obstacleDistance",
             [&](StopScenario &s) { s.obstacleDistance = Meters(nan); });
    scenario("obstacleDistance",
             [](StopScenario &s) { s.obstacleDistance = Meters(-1.0); });
    scenario("sensingRange",
             [](StopScenario &s) { s.sensingRange = Meters(-1.0); });
    scenario("runUp", [](StopScenario &s) { s.runUp = Meters(-1.0); });
    noise("sensorRangeStd", [&](NoiseParams &n) { n.sensorRangeStd = nan; });
    noise("thrustFraction", [&](NoiseParams &n) { n.thrustFraction = nan; });
    noise("thrustFraction", [](NoiseParams &n) { n.thrustFraction = -0.02; });

    for (const Malformed &input : inputs) {
        try {
            Rng trial_rng(1);
            (void)simulator.run(input.scenario, input.noise, trial_rng);
            ADD_FAILURE() << input.field << " accepted by run()";
        } catch (const ModelError &e) {
            EXPECT_NE(std::string(e.what()).find(input.field),
                      std::string::npos)
                << e.what();
        }
        // The harness refuses the same case before flying it.
        // (A negative sensing range already failed its F-1
        // prediction there, as the safety model's sensing_range.)
        ValidationCase bad = vcase;
        bad.scenario = input.scenario;
        bad.noise = input.noise;
        const std::string harness_field =
            input.field == "sensingRange" ? "sensing_range" : input.field;
        try {
            (void)ValidationHarness::validateAll({bad});
            ADD_FAILURE() << input.field << " accepted by validateAll()";
        } catch (const ModelError &e) {
            EXPECT_NE(std::string(e.what()).find(harness_field),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Validation, PredictionMatchesSafetyModel)
{
    ValidationCase vcase;
    vcase.name = "test";
    vcase.vehicle = idealVehicle();
    const double predicted =
        ValidationHarness::predictedSafeVelocity(vcase);
    // a = 0.5 g, d = 3 m, T = 0.1 s.
    const core::SafetyModel safety(
        MetersPerSecondSquared(0.5 * 9.80665), Meters(3.0));
    EXPECT_NEAR(predicted,
                safety.safeVelocity(Seconds(0.1)).value(), 1e-12);
}

TEST(Validation, ObservedIsBelowPredictionWithRealism)
{
    // With lag + noise, the simulated flight must be slower than
    // the optimistic model — the paper's central observation.
    ValidationCase vcase;
    vcase.name = "realism";
    vcase.vehicle = idealVehicle();
    vcase.vehicle.actuationLag = Seconds(0.15);
    vcase.vehicle.drag = physics::DragModel(1.1, 0.022);
    vcase.vehicle.brakeMargin = 0.95;
    vcase.seed = 7;
    const ValidationResult result =
        ValidationHarness::validate(vcase);
    EXPECT_GT(result.observed, 0.0);
    EXPECT_GT(result.predicted, result.observed);
    EXPECT_GT(result.errorPercent, 0.0);
    EXPECT_LT(result.errorPercent, 25.0);
    EXPECT_FALSE(result.sweep.empty());
}

TEST(Validation, SweepStepsAreUniformAndCoverTheRange)
{
    // The set-point loop indexes by integer step; accumulating
    // `v += resolution` drifted and could skip or duplicate the
    // final set-point for drift-prone resolutions like 0.07.
    ValidationCase vcase;
    vcase.name = "stepping";
    vcase.vehicle = idealVehicle();
    vcase.trialsPerSetpoint = 1;
    vcase.sweepResolution = 0.07;
    const ValidationResult result =
        ValidationHarness::validate(vcase);

    const double v_lo =
        std::max(vcase.sweepResolution, 0.4 * result.predicted);
    const double v_hi = 1.3 * result.predicted;
    ASSERT_FALSE(result.sweep.empty());
    for (std::size_t i = 0; i < result.sweep.size(); ++i) {
        EXPECT_NEAR(result.sweep[i].velocity,
                    v_lo + i * vcase.sweepResolution, 1e-12);
    }
    // The last set-point sits within one resolution below v_hi —
    // neither past the ceiling nor short of it by a full step.
    const double last = result.sweep.back().velocity;
    EXPECT_LE(last, v_hi + 1e-9);
    EXPECT_GT(last + vcase.sweepResolution, v_hi);
}

/** Exact equality across every field of two validation results. */
void
expectSameValidation(const ValidationResult &a, const ValidationResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.predicted, b.predicted);
    EXPECT_EQ(a.availableAccel, b.availableAccel);
    EXPECT_EQ(a.observed, b.observed);
    // Bit-compare: NaN (no safe set-point) must match NaN.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.errorPercent),
              std::bit_cast<std::uint64_t>(b.errorPercent));
    ASSERT_EQ(a.sweep.size(), b.sweep.size()) << a.name;
    for (std::size_t i = 0; i < a.sweep.size(); ++i) {
        EXPECT_EQ(a.sweep[i].velocity, b.sweep[i].velocity);
        EXPECT_EQ(a.sweep[i].infractions, b.sweep[i].infractions)
            << a.name << " set-point " << i;
        EXPECT_EQ(a.sweep[i].trials, b.sweep[i].trials);
    }
}

/** The Table-I builds at a coarser sweep, to keep the test quick. */
std::vector<ValidationCase>
coarseTable1Cases()
{
    auto cases = table1ValidationCases();
    for (auto &vcase : cases)
        vcase.sweepResolution = 0.1;
    return cases;
}

TEST(Validation, ValidateAllIsBitIdenticalAcrossThreadCounts)
{
    const auto cases = coarseTable1Cases();
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool2(2);
    exec::ThreadPool pool8(8);
    const auto serial =
        ValidationHarness::validateAll(cases, {.pool = &pool1});
    const auto twoway =
        ValidationHarness::validateAll(cases, {.pool = &pool2});
    const auto eightway =
        ValidationHarness::validateAll(cases, {.pool = &pool8});
    ASSERT_EQ(serial.size(), cases.size());
    ASSERT_EQ(twoway.size(), cases.size());
    ASSERT_EQ(eightway.size(), cases.size());
    int infractions = 0;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        expectSameValidation(serial[c], twoway[c]);
        expectSameValidation(serial[c], eightway[c]);
        for (const auto &outcome : serial[c].sweep)
            infractions += outcome.infractions;
    }
    // The sweeps cross into the unsafe region, so the comparison
    // covers trials that infract as well as trials that stop short.
    EXPECT_GT(infractions, 0);
}

TEST(Validation, ValidateIsValidateAllOfOneCase)
{
    const auto cases = coarseTable1Cases();
    exec::ThreadPool pool8(8);
    const auto batch =
        ValidationHarness::validateAll(cases, {.pool = &pool8});
    ASSERT_EQ(batch.size(), cases.size());
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const ValidationResult single =
            ValidationHarness::validate(cases[c]);
        expectSameValidation(single,
                             ValidationHarness::validateAll(
                                 {cases[c]})[0]);
        // A case's sweep does not depend on its batch-mates.
        expectSameValidation(single, batch[c]);
    }
}

TEST(Validation, ValidateAllRejectsABadCaseBeforeFlying)
{
    auto cases = coarseTable1Cases();
    cases.resize(2);
    auto infeasible = cases;
    infeasible[1].vehicle.usableThrust = Newtons(1.0);
    EXPECT_THROW(ValidationHarness::validateAll(infeasible),
                 InfeasibleError);

    auto malformed = cases;
    malformed[1].scenario.sensorRate = Hertz(0.0);
    try {
        ValidationHarness::validateAll(malformed);
        FAIL() << "a zero sensor rate must be rejected";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("sensorRate"),
                  std::string::npos)
            << e.what();
    }

    auto unresolved = cases;
    unresolved[1].sweepResolution = 0.0;
    EXPECT_THROW(ValidationHarness::validateAll(unresolved), ModelError);
}

TEST(Validation, UnusableSweepResolutionIsRejectedByName)
{
    // Unchecked, a NaN resolution reaches an int cast (on x86, an
    // empty sweep and a NaN errorPercent), and a tiny one overflows
    // the set-point count or asks for billions of trials. Each must
    // be a named ModelError before any trial is allocated.
    auto cases = coarseTable1Cases();
    cases.resize(1);
    for (const double resolution :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), -0.05, 1e-12,
          std::numeric_limits<double>::denorm_min()}) {
        auto bad = cases;
        bad[0].sweepResolution = resolution;
        try {
            (void)ValidationHarness::validateAll(bad);
            FAIL() << "resolution " << resolution << " accepted";
        } catch (const ModelError &e) {
            EXPECT_NE(std::string(e.what()).find("sweepResolution"),
                      std::string::npos)
                << e.what();
        }
    }
    // The bound counts trials too: a fine but legal sweep with very
    // many trials per set-point is refused the same way.
    auto heavy = cases;
    heavy[0].sweepResolution = 1e-3;
    heavy[0].trialsPerSetpoint = 1 << 20;
    EXPECT_THROW((void)ValidationHarness::validateAll(heavy), ModelError);
}

TEST(Validation, Table1CasesAreWellFormed)
{
    const auto cases = table1ValidationCases();
    ASSERT_EQ(cases.size(), 4u);
    EXPECT_EQ(cases[0].name, "UAV-A");
    EXPECT_EQ(cases[3].name, "UAV-D");
    // Table I masses: 1620/1830/1670/1720 g.
    EXPECT_NEAR(cases[0].vehicle.mass.value(), 1.620, 1e-9);
    EXPECT_NEAR(cases[1].vehicle.mass.value(), 1.830, 1e-9);
    EXPECT_NEAR(cases[2].vehicle.mass.value(), 1.670, 1e-9);
    EXPECT_NEAR(cases[3].vehicle.mass.value(), 1.720, 1e-9);
    // Protocol: 3 m obstacle, 3 m sensing, 10 Hz loop, 5 trials.
    for (const auto &vcase : cases) {
        EXPECT_DOUBLE_EQ(vcase.scenario.obstacleDistance.value(),
                         3.0);
        EXPECT_DOUBLE_EQ(vcase.scenario.sensingRange.value(), 3.0);
        EXPECT_DOUBLE_EQ(vcase.scenario.actionRate.value(), 10.0);
        EXPECT_EQ(vcase.trialsPerSetpoint, 5);
    }
    EXPECT_EQ(table1PaperErrorPercent().size(), 4u);
    EXPECT_THROW(table1TakeoffMass('E'), ModelError);
}

TEST(Validation, Table1PredictionOrderingMatchesPaper)
{
    // Paper ordering: A fastest, then C, then D, then B slowest.
    const auto cases = table1ValidationCases();
    const double v_a =
        ValidationHarness::predictedSafeVelocity(cases[0]);
    const double v_b =
        ValidationHarness::predictedSafeVelocity(cases[1]);
    const double v_c =
        ValidationHarness::predictedSafeVelocity(cases[2]);
    const double v_d =
        ValidationHarness::predictedSafeVelocity(cases[3]);
    EXPECT_GT(v_a, v_c);
    EXPECT_GT(v_c, v_d);
    EXPECT_GT(v_d, v_b);
}

TEST(Validation, RecordTrajectoryUsesCommandedVelocity)
{
    const auto cases = table1ValidationCases();
    const TrialResult trial =
        ValidationHarness::recordTrajectory(cases[0], 1.5);
    EXPECT_FALSE(trial.trajectory.empty());
    EXPECT_NEAR(trial.peakVelocity, 1.5, 0.1);
}

TEST(Validation, Table1SweepsArePinned)
{
    // Every set-point's infraction count (one digit per set-point,
    // slowest first) and the observed v_safe of each Table-I build,
    // as the glibc Box-Muller flight noise gave them. The libm-free
    // noise moves trial floats by ulps and must move none of these.
    const struct
    {
        const char *name;
        const char *infractions;
        double observed;
    } pinned[] = {
        {"UAV-A", "0000000000000000000000000000003245555555555555555555",
         2.5963211663695898},
        {"UAV-B", "000000000000055555555", 1.0451354793971073},
        {"UAV-C", "0000000000000000000000000002355555555555555555",
         2.3158851817907191},
        {"UAV-D", "0000000000000000000000004555555555555555",
         2.0225388646362981},
    };
    const auto results =
        ValidationHarness::validateAll(table1ValidationCases());
    ASSERT_EQ(results.size(), std::size(pinned));
    for (std::size_t c = 0; c < results.size(); ++c) {
        const ValidationResult &result = results[c];
        EXPECT_EQ(result.name, pinned[c].name);
        std::string infractions;
        for (const SetpointOutcome &outcome : result.sweep)
            infractions += std::to_string(outcome.infractions);
        EXPECT_EQ(infractions, pinned[c].infractions) << result.name;
        EXPECT_EQ(result.observed, pinned[c].observed) << result.name;
    }
}

TEST(Validation, ValidateAllIsTheSameNativeAndForcedScalar)
{
    const SimdModeGuard guard;
    const auto cases = coarseTable1Cases();
    simd::setMode(simd::Mode::Native);
    const auto native = ValidationHarness::validateAll(cases);
    simd::setMode(simd::Mode::Scalar);
    const auto scalar = ValidationHarness::validateAll(cases);
    ASSERT_EQ(native.size(), scalar.size());
    for (std::size_t c = 0; c < native.size(); ++c)
        expectSameValidation(native[c], scalar[c]);
}

/** A TX2-family spec whose AI uncertainty straddles the machine
 * knee (1330 / 59.7 ~ 22.3 op/B), so both compute and memory
 * ceilings bind with nonzero probability. */
UncertaintySpec
ceilingSpec()
{
    UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(Hertz(55.0));
    spec.platform = components::Catalog::standard().rooflines().byName(
        "Nvidia TX2");
    spec.profile.ai = OpsPerByte(22.3);
    spec.workPerFrameGop = 0.04;
    spec.aiRelStd = 0.4;
    return spec;
}

TEST(MonteCarloCeilings, TalliesProbabilityPerCeiling)
{
    // Legacy specs (no platform) report no per-ceiling tallies and
    // keep the scalar f_compute perturbation.
    UncertaintySpec legacy;
    legacy.nominal = studies::pelicanInputs(Hertz(55.0));
    const auto plain = MonteCarloAnalyzer(legacy).run(1000, 1);
    EXPECT_TRUE(plain.probComputeCeilingBinds.empty());
    EXPECT_TRUE(plain.probMemoryCeilingBinds.empty());

    const UncertaintySpec spec = ceilingSpec();
    const auto result = MonteCarloAnalyzer(spec).run(20000, 1);
    ASSERT_EQ(result.probComputeCeilingBinds.size(), 3u);
    ASSERT_EQ(result.probMemoryCeilingBinds.size(), 2u);

    // Every sample has exactly one binding ceiling.
    const double total =
        std::accumulate(result.probComputeCeilingBinds.begin(),
                        result.probComputeCeilingBinds.end(), 0.0) +
        std::accumulate(result.probMemoryCeilingBinds.begin(),
                        result.probMemoryCeilingBinds.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);

    // Around the knee, the GPU roof (compute index 2) and the DRAM
    // level (memory index 0) both bind with real probability; the
    // never-binding scalar/SIMD/on-chip ceilings stay at zero.
    EXPECT_GT(result.probComputeCeilingBinds[2], 0.05);
    EXPECT_GT(result.probMemoryCeilingBinds[0], 0.05);
    EXPECT_EQ(result.probComputeCeilingBinds[0], 0.0);
    EXPECT_EQ(result.probComputeCeilingBinds[1], 0.0);
    EXPECT_EQ(result.probMemoryCeilingBinds[1], 0.0);
}

TEST(MonteCarloCeilings, TalliesAreBitIdenticalAcrossThreads)
{
    const UncertaintySpec spec = ceilingSpec();
    const MonteCarloAnalyzer analyzer(spec);
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    // Spans many sample blocks so the chunk-order merge is
    // genuinely exercised.
    const auto serial = analyzer.run(50000, 9, {.pool = &pool1});
    const auto parallel = analyzer.run(50000, 9, {.pool = &pool8});
    EXPECT_EQ(serial.safeVelocity.mean, parallel.safeVelocity.mean);
    EXPECT_EQ(serial.probComputeCeilingBinds,
              parallel.probComputeCeilingBinds);
    EXPECT_EQ(serial.probMemoryCeilingBinds,
              parallel.probMemoryCeilingBinds);
}

TEST(MonteCarloCeilings, ValidatesThePlatformPathUpFront)
{
    UncertaintySpec spec = ceilingSpec();
    spec.workPerFrameGop = 0.0;
    EXPECT_THROW(MonteCarloAnalyzer{spec}, ModelError);

    spec = ceilingSpec();
    spec.opIndex = 99;
    EXPECT_THROW(MonteCarloAnalyzer{spec}, ModelError);

    spec = ceilingSpec();
    spec.aiRelStd = -0.1;
    EXPECT_THROW(MonteCarloAnalyzer{spec}, ModelError);
}

TEST(LognormalDraw, FactorsHaveTheRequestedMomentsAndQuantiles)
{
    // 2M draws per factor slot: each slot's mean is 1 and its
    // relative std the requested spread, and p5/p50/p95 sit at the
    // lognormal quantiles exp(mu + sigma z_p), each within five
    // standard errors of its estimate.
    const std::vector<double> spreads = {0.10, 0.05, 0.40, 0.10, 0.25};
    const LognormalDraw draw(spreads);
    constexpr std::size_t n = std::size_t{1} << 21;
    std::vector<std::vector<double>> columns(spreads.size(),
                                             std::vector<double>(n));
    std::vector<double *> pointers;
    for (auto &column : columns)
        pointers.push_back(column.data());
    Rng rng(2024);
    draw.drawBlock(rng, n, pointers.data());

    const double count = static_cast<double>(n);
    const double z95 = 1.6448536269514722;
    for (std::size_t f = 0; f < spreads.size(); ++f) {
        const double s = spreads[f];
        const double sigma2 = std::log(1.0 + s * s);
        const double sigma = std::sqrt(sigma2);
        const double mu = -sigma2 / 2.0;
        const Distribution d = Distribution::fromSamples(columns[f]);

        EXPECT_LE(std::fabs(d.mean - 1.0), 5.0 * s / std::sqrt(count))
            << "factor " << f;
        // The sample std's standard error from the lognormal's
        // kurtosis.
        const double kurtosis = std::exp(4 * sigma2) +
                                2 * std::exp(3 * sigma2) +
                                3 * std::exp(2 * sigma2) - 3;
        EXPECT_LE(std::fabs(d.stddev - s),
                  5.0 * s * std::sqrt((kurtosis - 1) / (4 * count)))
            << "factor " << f;

        // A sample p-quantile's standard error is
        // sqrt(p (1 - p) / n) / density(q_p).
        const auto expect_quantile = [&](double got, double p, double z) {
            const double q = std::exp(mu + sigma * z);
            const double density = std::exp(-z * z / 2) /
                                   std::sqrt(2 * std::numbers::pi) / (q * sigma);
            EXPECT_LE(std::fabs(got - q),
                      5.0 * std::sqrt(p * (1 - p) / count) / density)
                << "factor " << f << " p" << p;
        };
        expect_quantile(d.p5, 0.05, -z95);
        expect_quantile(d.p50, 0.50, 0.0);
        expect_quantile(d.p95, 0.95, z95);
    }
}

TEST(NormalPairs, ScalarModeRoutesTheDispatcherToWidthOne)
{
    SimdModeGuard guard;
    simd::setMode(simd::Mode::Scalar);
    EXPECT_EQ(normalPairWidth(), 1u);
    simd::setMode(simd::Mode::Native);
    const std::size_t width = normalPairWidth();
    EXPECT_TRUE(width == simd::nativeWidth || width == 4u) << width;
}

TEST(NormalPairs, DispatchedAvx2KernelMatchesWidthOne)
{
    SimdModeGuard guard;
    simd::setMode(simd::Mode::Native);
    if (normalPairWidth() < 4) {
        GTEST_SKIP() << "no AVX2 dispatch (the CPU lacks AVX2, or the "
                        "build is not x86-64): drawNormalPairs runs at W = "
                     << normalPairWidth();
    }
    // Tails of every length around the 4-pair stride, and 100 pairs
    // across the 64-pair pass.
    for (std::size_t n : {1u, 3u, 4u, 5u, 31u, 32u, 33u, 64u, 100u}) {
        std::vector<double> c4(n), s4(n), c1(n), s1(n);
        Rng wide(91 + n), scalar(91 + n);
        simd::setMode(simd::Mode::Native);
        drawNormalPairs(wide, n, c4.data(), s4.data());
        simd::setMode(simd::Mode::Scalar);
        drawNormalPairs(scalar, n, c1.data(), s1.data());
        for (std::size_t p = 0; p < n; ++p) {
            EXPECT_EQ(bits(c4[p]), bits(c1[p])) << "n=" << n << " pair " << p;
            EXPECT_EQ(bits(s4[p]), bits(s1[p])) << "n=" << n << " pair " << p;
        }
        EXPECT_EQ(wide.nextU64(), scalar.nextU64()) << "n=" << n;
    }
}

TEST(NormalStream, KeepsTheBoxMullerPairingOfLognormalDrawAndRngNormal)
{
    // 200 normals cross three block refills.
    constexpr std::size_t n = 200;
    NormalStream stream(Rng(77));
    std::vector<double> z(n);
    for (double &value : z)
        value = stream.next();

    // LognormalDraw on the same Rng shapes the same normals, in the
    // same order, into exp(mu + sigma z).
    const double spread = 0.3;
    const LognormalDraw draw(std::vector<double>{spread});
    std::vector<double> column(n);
    double *columns[] = {column.data()};
    Rng draw_rng(77);
    draw.drawBlock(draw_rng, n, columns);
    using P1 = simd::Pack<double, 1>;
    const double sigma2 =
        simd::log(P1::broadcast(1.0 + spread * spread)).lane[0];
    const double mu = -sigma2 / 2.0;
    const double sigma = std::sqrt(sigma2);
    for (std::size_t i = 0; i < n; ++i) {
        const double shaped =
            simd::exp(P1::broadcast(mu) + P1::broadcast(sigma) *
                                              P1::broadcast(z[i]))
                .lane[0];
        EXPECT_EQ(bits(column[i]), bits(shaped)) << "normal " << i;
    }

    // Rng::normal() pairs the same way (cosine first, sine as its
    // spare), up to libm's rounding.
    Rng reference(77);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(z[i], reference.normal(), 1e-13) << "normal " << i;

    // The stream has read whole blocks ahead: four of 32 pairs.
    Rng consumed(77);
    for (int i = 0; i < 4 * 2 * 32; ++i)
        (void)consumed.uniform();
    EXPECT_EQ(Rng(stream.rng()).nextU64(), consumed.nextU64());
}

TEST(NormalStream, GuardsAZeroRadiusUniformLikeRngNormal)
{
    // SplitMix64 maps state 0 to output 0, so this seed's first
    // uniform is exactly 0; both draws replace it with 2^-53.
    const std::uint64_t seed = 0 - 0x9e3779b97f4a7c15ull;
    ASSERT_EQ(Rng(seed).uniform(), 0.0);
    NormalStream stream{Rng(seed)};
    Rng reference(seed);
    const double first = stream.next();
    EXPECT_TRUE(std::isfinite(first));
    EXPECT_NEAR(first, reference.normal(), 1e-13);
    EXPECT_NEAR(stream.next(), reference.normal(), 1e-13);
}

} // namespace
