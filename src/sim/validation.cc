/**
 * @file
 * ValidationHarness implementation.
 */

#include "sim/validation.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1::sim {

namespace {

/** Most simulated flights (set-points x trials) one case may ask
 * for: far above any protocol sweep (Table I's is ~200), far below
 * what would exhaust memory or an int. */
constexpr std::size_t kMaxTrialsPerCase = std::size_t{1} << 20;

} // namespace

double
ValidationHarness::predictedSafeVelocity(const ValidationCase &vcase)
{
    const VehicleModel vehicle(vcase.vehicle);
    const core::SafetyModel safety(vehicle.availableAcceleration(),
                                   vcase.scenario.sensingRange);
    return safety
        .safeVelocity(units::period(vcase.scenario.actionRate))
        .value();
}

std::vector<ValidationResult>
ValidationHarness::validateAll(const std::vector<ValidationCase> &cases,
                               const exec::ParallelOptions &options)
{
    /** One flight of the flattened (case, set-point, trial) space. */
    struct Trial
    {
        std::size_t vcase;
        std::size_t setpoint;
        Rng rng;
    };

    std::vector<ValidationResult> results(cases.size());
    std::vector<FlightSimulator> simulators;
    simulators.reserve(cases.size());
    std::vector<Trial> trials;

    // Set-up runs serially in case order, so a malformed or
    // infeasible case throws the same error, in the same order, as
    // sweeping the cases one after another, and before any trial
    // flies.
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const ValidationCase &vcase = cases[c];
        const VehicleModel vehicle(vcase.vehicle);
        simulators.emplace_back(vehicle);

        ValidationResult &result = results[c];
        result.name = vcase.name;
        result.predicted = predictedSafeVelocity(vcase);
        result.availableAccel = vehicle.availableAcceleration().value();

        // Sweep commanded velocities around the prediction, the way
        // the paper sweeps 1.5 .. 2.5 m/s around UAV-A's 2.13 m/s
        // seed.
        const double resolution = vcase.sweepResolution;
        if (!(resolution > 0.0) || !std::isfinite(resolution)) {
            throw ModelError("sweepResolution of case '" + vcase.name +
                             "' must be positive and finite");
        }
        const double v_lo =
            std::max(resolution, 0.4 * result.predicted);
        const double v_hi = 1.3 * result.predicted;

        // Index by integer step: accumulating `v += resolution`
        // drifts by one ulp per iteration, which can silently skip
        // or duplicate the final set-point depending on the
        // resolution. The step count is bounded, still in double,
        // before it is cast or any trial is allocated.
        const double steps =
            std::floor((v_hi - v_lo) / resolution + 1e-9);
        const double flights =
            (steps + 1.0) *
            static_cast<double>(std::max(vcase.trialsPerSetpoint, 1));
        if (!(flights <= static_cast<double>(kMaxTrialsPerCase))) {
            throw ModelError(strFormat(
                "sweepResolution %g of case '%s' asks for %.6g "
                "set-points of %d trials (trialsPerSetpoint); at most "
                "%zu flights per case are allowed",
                resolution, vcase.name.c_str(), steps + 1.0,
                vcase.trialsPerSetpoint, kMaxTrialsPerCase));
        }
        const int setpoints = 1 + static_cast<int>(steps);
        if (setpoints > 0 && vcase.trialsPerSetpoint > 0) {
            StopScenario first = vcase.scenario;
            first.commandedVelocity = units::MetersPerSecond(v_lo);
            FlightSimulator::validateScenario(first);
            FlightSimulator::validateNoise(vcase.noise);
        }

        // Trial streams fork from the case's master in set-point
        // order, then trial order, whatever thread later flies them.
        Rng master(vcase.seed);
        for (int i = 0; i < setpoints; ++i) {
            SetpointOutcome outcome;
            outcome.velocity = v_lo + i * resolution;
            outcome.trials = vcase.trialsPerSetpoint;
            result.sweep.push_back(outcome);
            for (int t = 0; t < vcase.trialsPerSetpoint; ++t) {
                trials.push_back({c, static_cast<std::size_t>(i),
                                  master.fork()});
            }
        }
    }

    // Each chunk flies K = FlightSimulator::lanes consecutive trials
    // interleaved, and its trials' mutable state (Rng copies
    // included) lives on the flying thread's stack; `trials` is only
    // read. Every trial writes only its own slot (char, not
    // vector<bool>, whose packed words would race).
    constexpr std::size_t K = FlightSimulator::lanes;
    std::vector<char> infraction(trials.size(), 0);
    exec::ParallelOptions per_chunk = options;
    per_chunk.grain = 1; // Chunks are independent; one per task.
    exec::parallelFor(
        (trials.size() + K - 1) / K,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t chunk = begin; chunk < end; ++chunk) {
                const std::size_t first = chunk * K;
                const std::size_t n = std::min(K, trials.size() - first);
                LaneTrial lanes[K];
                TrialResult flown[K];
                for (std::size_t i = 0; i < n; ++i) {
                    const Trial &trial = trials[first + i];
                    const ValidationCase &vcase = cases[trial.vcase];
                    lanes[i] = {&simulators[trial.vcase], vcase.scenario,
                                &vcase.noise, trial.rng};
                    lanes[i].scenario.commandedVelocity =
                        units::MetersPerSecond(results[trial.vcase]
                                                   .sweep[trial.setpoint]
                                                   .velocity);
                }
                FlightSimulator::flyLanes({lanes, n}, {flown, n});
                for (std::size_t i = 0; i < n; ++i)
                    infraction[first + i] = flown[i].infraction;
            }
        },
        per_chunk);

    for (std::size_t k = 0; k < trials.size(); ++k) {
        results[trials[k].vcase].sweep[trials[k].setpoint].infractions +=
            infraction[k];
    }

    for (ValidationResult &result : results) {
        double observed = 0.0;
        bool seen_unsafe = false;
        for (const SetpointOutcome &outcome : result.sweep) {
            // Paper protocol: any infraction marks the set-point
            // unsafe; observed safe velocity is the last fully-safe
            // set-point before the first unsafe one.
            if (outcome.infractions == 0 && !seen_unsafe) {
                observed = outcome.velocity;
            } else if (outcome.infractions > 0) {
                seen_unsafe = true;
            }
        }

        result.observed = observed;
        if (observed > 0.0) {
            result.errorPercent =
                100.0 * (result.predicted - observed) / observed;
        } else {
            result.errorPercent =
                std::numeric_limits<double>::quiet_NaN();
        }
    }
    return results;
}

TrialResult
ValidationHarness::recordTrajectory(const ValidationCase &vcase,
                                    double commanded_velocity)
{
    const VehicleModel vehicle(vcase.vehicle);
    const FlightSimulator simulator(vehicle);
    StopScenario scenario = vcase.scenario;
    scenario.commandedVelocity =
        units::MetersPerSecond(commanded_velocity);
    Rng rng(vcase.seed);
    return simulator.run(scenario, vcase.noise, rng, true);
}

} // namespace uavf1::sim
