/**
 * @file
 * FlightSimulator implementation.
 */

#include "sim/flight_sim.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "control/pid.hh"
#include "support/errors.hh"
#include "support/validate.hh"

namespace uavf1::sim {

FlightSimulator::FlightSimulator(const VehicleModel &vehicle)
    : _vehicle(vehicle)
{
}

void
FlightSimulator::validateScenario(const StopScenario &scenario)
{
    requirePositive(scenario.commandedVelocity.value(),
                    "commandedVelocity");
    requirePositive(scenario.actionRate.value(), "actionRate");
    requirePositive(scenario.sensorRate.value(), "sensorRate");
    requirePositive(scenario.timestep.value(), "timestep");
}

TrialResult
FlightSimulator::run(const StopScenario &scenario,
                     const NoiseParams &noise, Rng &rng,
                     bool record_trajectory) const
{
    validateScenario(scenario);

    VehicleModel vehicle = _vehicle;
    vehicle.reset(0.0);

    const double dt = scenario.timestep.value();
    const double run_up = scenario.runUp.value();
    const double obstacle =
        run_up + scenario.obstacleDistance.value();
    const double sensing = scenario.sensingRange.value();
    const double v_cmd = scenario.commandedVelocity.value();
    const double decision_period = 1.0 / scenario.actionRate.value();
    const double sensor_period = 1.0 / scenario.sensorRate.value();
    const double a_avail = vehicle.availableAcceleration().value();

    // Velocity-tracking PID for the run-up/cruise phase. Gains are
    // deliberately soft (MAVROS-like) and scale with the available
    // authority.
    control::Pid velocity_pid(control::Pid::Gains{
        .kp = 2.0,
        .ki = 0.6,
        .kd = 0.0,
        .outputMin = -a_avail,
        .outputMax = a_avail,
    });

    TrialResult result;

    // Randomize where in the decision period the detection falls:
    // this is the discretization error the F-1 model linearizes.
    const double first_decision =
        noise.randomDecisionPhase
            ? rng.uniform(0.0, decision_period)
            : decision_period;
    double sensed_range = 1e9; // Latest sensor reading.
    bool braking = false;

    // The clock and both schedules index by integer count: `+=`
    // accumulation drifts by an ulp per step, which over a long
    // trial shifts sample and decision epochs.
    const double max_time = scenario.maxDuration.value();
    std::int64_t step = 0;
    std::int64_t sensor_samples = 0;
    std::int64_t decisions = 0;
    double time = 0.0;

    while (time < max_time) {
        // Sensor stage: sample the range at the sensor rate.
        if (time >= static_cast<double>(sensor_samples) * sensor_period) {
            const double true_range =
                obstacle - vehicle.state().position;
            sensed_range =
                true_range + rng.normal(0.0, noise.sensorRangeStd);
            ++sensor_samples;
        }

        // Compute stage: decisions at the action rate.
        if (!braking &&
            time >= first_decision +
                        static_cast<double>(decisions) * decision_period) {
            if (sensed_range <= sensing)
                braking = true;
            if (result.brakeTime < 0.0 && braking)
                result.brakeTime = time;
            ++decisions;
        }

        // Control stage: acceleration command.
        double command;
        if (braking) {
            command = -a_avail * vehicle.params().brakeMargin;
        } else {
            command = velocity_pid.step(
                v_cmd - vehicle.state().velocity, dt);
        }

        const double thrust_noise =
            noise.thrustFraction > 0.0
                ? rng.normal(0.0, noise.thrustFraction)
                : 0.0;
        vehicle.step(units::Seconds(dt), command, thrust_noise);

        result.peakVelocity =
            std::max(result.peakVelocity, vehicle.state().velocity);
        result.peakAcceleration =
            std::max(result.peakAcceleration,
                     std::fabs(vehicle.state().acceleration));

        if (record_trajectory && step % 10 == 0) {
            result.trajectory.push_back(
                {time, vehicle.state().position,
                 vehicle.state().velocity,
                 vehicle.state().acceleration});
        }

        time = static_cast<double>(++step) * dt;

        // Trial ends when the vehicle has braked to a stop.
        if (braking && vehicle.state().velocity <= 0.0)
            break;
        // Safety: a vehicle that never detects and sails past the
        // obstacle by a frame length has certainly failed.
        if (vehicle.state().position > obstacle + 5.0)
            break;
    }

    result.stopMargin = vehicle.state().position - obstacle;
    result.infraction = result.stopMargin > 0.0;
    if (record_trajectory) {
        result.trajectory.push_back(
            {time, vehicle.state().position, vehicle.state().velocity,
             vehicle.state().acceleration});
    }
    return result;
}

} // namespace uavf1::sim
