/**
 * @file
 * Model-validation harness (paper Section IV, Fig. 7).
 *
 * Reproduces the paper's protocol: for each UAV build, obtain the
 * F-1 model's predicted safe velocity, then sweep the commanded
 * velocity around that seed in simulated flights (five trials per
 * set-point; any infraction marks the set-point unsafe) and take the
 * fastest fully-safe set-point as the observed safe velocity. The
 * report compares the two, mirroring Fig. 7b's error bars.
 */

#ifndef UAVF1_SIM_VALIDATION_HH
#define UAVF1_SIM_VALIDATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/safety_model.hh"
#include "exec/parallel.hh"
#include "sim/flight_sim.hh"
#include "sim/vehicle.hh"

namespace uavf1::sim {

/** One UAV build under validation. */
struct ValidationCase
{
    std::string name;         ///< e.g. "UAV-A".
    VehicleParams vehicle;    ///< Simulated vehicle.
    StopScenario scenario;    ///< Shared protocol geometry.
    NoiseParams noise;        ///< Trial noise.
    int trialsPerSetpoint = 5;
    /** Velocity sweep resolution around the seed. */
    double sweepResolution = 0.05;
    std::uint64_t seed = 1;   ///< RNG seed.
};

/** Outcome of one velocity set-point (paper's "5 trials" row). */
struct SetpointOutcome
{
    double velocity = 0.0;   ///< Commanded velocity, m/s.
    int infractions = 0;     ///< Trials that crossed the obstacle.
    int trials = 0;          ///< Total trials.
};

/** Validation result for one UAV build (one Fig. 7b bar). */
struct ValidationResult
{
    std::string name;            ///< Case name.
    double predicted = 0.0;      ///< F-1 predicted v_safe, m/s.
    double observed = 0.0;       ///< Flight-test v_safe, m/s.
    double errorPercent = 0.0;   ///< 100 * (pred - obs) / obs.
    double availableAccel = 0.0; ///< Vehicle a_avail, m/s^2.
    std::vector<SetpointOutcome> sweep; ///< All tested set-points.
};

/**
 * Runs the Section-IV validation protocol.
 */
class ValidationHarness
{
  public:
    /**
     * F-1 predicted safe velocity for a case: Eq. 4 evaluated with
     * the vehicle's nominal available acceleration, the scenario's
     * sensing range, and the scenario's action rate.
     */
    static double predictedSafeVelocity(const ValidationCase &vcase);

    /**
     * Observed safe velocity: sweep commanded velocities from well
     * below to well above the prediction at the case's resolution;
     * the observed value is the fastest set-point with zero
     * infractions across all trials below the first unsafe one.
     * Equivalent to validateAll({vcase})[0].
     */
    static ValidationResult validate(const ValidationCase &vcase);

    /**
     * Validate a whole batch (Fig. 7b). Cases are set up serially in
     * order (so a bad case throws as soon as it is reached), then
     * every (case, set-point, trial) flight runs on one
     * exec::parallelFor, in chunks of FlightSimulator::lanes
     * consecutive trials flown by FlightSimulator::flyLanes(). Each
     * trial's RNG is forked from its case's master in set-point-major
     * order before the loop, and a trial's result does not depend on
     * its chunk-mates, so results are bit-identical at any thread
     * count.
     *
     * @throws ModelError naming sweepResolution when a case's
     *         resolution is not positive and finite, or asks for more
     *         than 2^20 flights (set-points x trialsPerSetpoint), and
     *         naming the field when FlightSimulator::validateScenario
     *         or validateNoise rejects a case that flies trials
     */
    static std::vector<ValidationResult>
    validateAll(const std::vector<ValidationCase> &cases,
                const exec::ParallelOptions &options = {});

    /**
     * Record one trajectory at a commanded velocity (Fig. 7a
     * material).
     */
    static TrialResult
    recordTrajectory(const ValidationCase &vcase,
                     double commanded_velocity);
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_VALIDATION_HH
