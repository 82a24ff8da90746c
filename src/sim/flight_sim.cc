/**
 * @file
 * FlightSimulator implementation.
 *
 * One step body, Flight::step(), flies every trial: run() steps one
 * Flight to the end, flyLanes() steps up to `lanes` of them in turn.
 * A step's work is one loop-carried chain (PID -> lag -> thrust ->
 * drag -> velocity -> position), so a single trial leaves the core
 * waiting on latency; interleaved trials fill that wait. Only
 * invariants whose bits cannot change are hoisted out of the step:
 * the lag blend dt / (tau + dt) and the timestep check.
 */

#include "sim/flight_sim.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "control/pid.hh"
#include "sim/normals.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/validate.hh"

namespace uavf1::sim {

namespace {

/** Most integration steps one trial may take (maxDuration over
 * timestep): the integer step counters stay far from overflow, and
 * a trial stays bounded in time. */
constexpr double kMaxSteps = 0x1p31;

/** Require value >= 0 and finite (so not NaN). */
void
requireFiniteNonNegative(double value, const char *name)
{
    if (!(value >= 0.0 && value <= DBL_MAX)) {
        throw ModelError(strFormat(
            "%s must be finite and non-negative, got %g", name, value));
    }
}

/** Require value > 0 and finite (so not NaN). */
void
requireFinitePositive(double value, const char *name)
{
    if (!(value > 0.0 && value <= DBL_MAX)) {
        throw ModelError(strFormat(
            "%s must be positive and finite, got %g", name, value));
    }
}

/**
 * One trial in flight: its invariants and its mutable state, on the
 * stack of the thread that flies it. The scenario and noise must
 * have passed validateScenario() and validateNoise().
 */
class Flight
{
  public:
    Flight(const VehicleModel &vehicle, const StopScenario &scenario,
           const NoiseParams &noise, Rng rng, bool record_trajectory)
        : _vehicle(vehicle), _dt(scenario.timestep.value()),
          _blend(vehicle.lagBlend(_dt)),
          _obstacle(scenario.runUp.value() +
                    scenario.obstacleDistance.value()),
          _sensing(scenario.sensingRange.value()),
          _vCmd(scenario.commandedVelocity.value()),
          _decisionPeriod(1.0 / scenario.actionRate.value()),
          _sensorPeriod(1.0 / scenario.sensorRate.value()),
          _maxTime(scenario.maxDuration.value()),
          _brakeCommand(-vehicle.availableAcceleration().value() *
                        vehicle.params().brakeMargin),
          _thrustStd(noise.thrustFraction),
          _sensorStd(noise.sensorRangeStd), _record(record_trajectory),
          // Velocity-tracking PID for the run-up/cruise phase. Gains
          // are deliberately soft (MAVROS-like) and scale with the
          // available authority.
          _pid(control::Pid::Gains{
              .kp = 2.0,
              .ki = 0.6,
              .kd = 0.0,
              .outputMin = -vehicle.availableAcceleration().value(),
              .outputMax = vehicle.availableAcceleration().value(),
          }),
          // Randomize where in the decision period the detection
          // falls: this is the discretization error the F-1 model
          // linearizes. The phase is the Rng's first draw, so it is
          // taken before the normal stream copies the Rng.
          _firstDecision(noise.randomDecisionPhase
                             ? rng.uniform(0.0, _decisionPeriod)
                             : _decisionPeriod),
          _normals(rng)
    {
        _vehicle.reset(0.0);
    }

    /** Advance one step; false once the trial has ended. */
    bool step()
    {
        // Sensor stage: sample the range at the sensor rate.
        if (_time >=
            static_cast<double>(_sensorSamples) * _sensorPeriod) {
            const double true_range =
                _obstacle - _vehicle.state().position;
            _sensedRange =
                true_range + (0.0 + _sensorStd * _normals.next());
            ++_sensorSamples;
        }

        // Compute stage: decisions at the action rate.
        if (!_braking &&
            _time >= _firstDecision + static_cast<double>(_decisions) *
                                          _decisionPeriod) {
            if (_sensedRange <= _sensing)
                _braking = true;
            if (_result.brakeTime < 0.0 && _braking)
                _result.brakeTime = _time;
            ++_decisions;
        }

        // Control stage: acceleration command.
        const double command =
            _braking ? _brakeCommand
                     : _pid.stepUnchecked(
                           _vCmd - _vehicle.state().velocity, _dt);

        const double thrust_noise =
            _thrustStd > 0.0 ? 0.0 + _thrustStd * _normals.next() : 0.0;
        _vehicle.stepUnchecked(_dt, _blend, command, thrust_noise);

        const VehicleState &state = _vehicle.state();
        _result.peakVelocity =
            std::max(_result.peakVelocity, state.velocity);
        _result.peakAcceleration =
            std::max(_result.peakAcceleration, std::fabs(state.acceleration));

        if (_record && _step % 10 == 0) {
            _result.trajectory.push_back(
                {_time, state.position, state.velocity,
                 state.acceleration});
        }

        // The clock and both schedules index by integer count: `+=`
        // accumulation drifts by an ulp per step, which over a long
        // trial shifts sample and decision epochs.
        _time = static_cast<double>(++_step) * _dt;

        // Trial ends when the vehicle has braked to a stop.
        if (_braking && state.velocity <= 0.0)
            return false;
        // Safety: a vehicle that never detects and sails past the
        // obstacle by a frame length has certainly failed.
        if (state.position > _obstacle + 5.0)
            return false;
        return _time < _maxTime;
    }

    /** The result, once step() has returned false. */
    TrialResult finish()
    {
        const VehicleState &state = _vehicle.state();
        _result.stopMargin = state.position - _obstacle;
        _result.infraction = _result.stopMargin > 0.0;
        if (_record) {
            _result.trajectory.push_back({_time, state.position,
                                          state.velocity,
                                          state.acceleration});
        }
        return std::move(_result);
    }

    /** The Rng past every uniform the trial drew. */
    const Rng &rng() const { return _normals.rng(); }

  private:
    VehicleModel _vehicle;
    const double _dt;
    const double _blend;
    const double _obstacle;
    const double _sensing;
    const double _vCmd;
    const double _decisionPeriod;
    const double _sensorPeriod;
    const double _maxTime;
    const double _brakeCommand;
    const double _thrustStd;
    const double _sensorStd;
    const bool _record;
    control::Pid _pid;
    // Initialized in this order: the phase draw, then the stream.
    const double _firstDecision;
    NormalStream _normals;

    double _sensedRange = 1e9; // Latest sensor reading.
    bool _braking = false;
    std::int64_t _step = 0;
    std::int64_t _sensorSamples = 0;
    std::int64_t _decisions = 0;
    double _time = 0.0;
    TrialResult _result;
};

} // namespace

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
    requireFinitePositive(scenario.timestep.value(), "timestep");
    requireFinitePositive(scenario.maxDuration.value(), "maxDuration");
    const double steps =
        scenario.maxDuration.value() / scenario.timestep.value();
    if (!(steps <= kMaxSteps)) {
        throw ModelError(strFormat(
            "maxDuration %g s asks for %.6g steps of timestep %g s; at "
            "most 2^31 are allowed",
            scenario.maxDuration.value(), steps,
            scenario.timestep.value()));
    }
    requireFiniteNonNegative(scenario.obstacleDistance.value(),
                             "obstacleDistance");
    requireFiniteNonNegative(scenario.sensingRange.value(),
                             "sensingRange");
    requireFiniteNonNegative(scenario.runUp.value(), "runUp");
}

void
FlightSimulator::validateNoise(const NoiseParams &noise)
{
    requireFiniteNonNegative(noise.thrustFraction, "thrustFraction");
    requireFiniteNonNegative(noise.sensorRangeStd, "sensorRangeStd");
}

TrialResult
FlightSimulator::run(const StopScenario &scenario,
                     const NoiseParams &noise, Rng &rng,
                     bool record_trajectory) const
{
    validateScenario(scenario);
    validateNoise(noise);
    Flight flight(_vehicle, scenario, noise, rng, record_trajectory);
    while (flight.step()) {
    }
    rng = flight.rng();
    return flight.finish();
}

void
FlightSimulator::flyLanes(std::span<const LaneTrial> trials,
                          std::span<TrialResult> results)
{
    const std::size_t n = trials.size();
    if (n > lanes || results.size() != n) {
        throw ModelError(strFormat(
            "flyLanes takes at most %zu trials and one result each, got "
            "%zu trials and %zu results",
            lanes, n, results.size()));
    }
    for (const LaneTrial &trial : trials) {
        validateScenario(trial.scenario);
        validateNoise(*trial.noise);
    }

    std::optional<Flight> flights[lanes];
    bool flying[lanes] = {};
    for (std::size_t i = 0; i < n; ++i) {
        const LaneTrial &trial = trials[i];
        flights[i].emplace(trial.simulator->_vehicle, trial.scenario,
                           *trial.noise, trial.rng, false);
        flying[i] = true;
    }
    // One step of each trial still in flight per turn.
    for (std::size_t remaining = n; remaining > 0;) {
        for (std::size_t i = 0; i < n; ++i) {
            if (flying[i] && !flights[i]->step()) {
                flying[i] = false;
                --remaining;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        results[i] = flights[i]->finish();
}

} // namespace uavf1::sim
