/**
 * @file
 * Dash-and-stop flight simulator reproducing the paper's validation
 * protocol (Section IV):
 *
 * "we start with an obstacle placed at 3 m from the drone's current
 *  position, and the goal of the autonomy algorithm is to move and
 *  safely stop before the obstacle [...] the sensing distance is at
 *  least 3 m [...] the ROS loop rate parameter sets the action
 *  throughput [10 Hz]."
 *
 * The simulated mission: from rest, a PID velocity controller
 * accelerates the vehicle to the commanded velocity over a run-up
 * segment; the obstacle plane sits `obstacleDistance` past the
 * detection origin; the autonomy loop runs at the action rate,
 * reads the (noisy, sensor-rate-limited) range measurement, and
 * commands a full brake at the first decision epoch that sees the
 * obstacle within sensing range. An infraction is recorded if the
 * vehicle's final stop position crosses the obstacle plane.
 */

#ifndef UAVF1_SIM_FLIGHT_SIM_HH
#define UAVF1_SIM_FLIGHT_SIM_HH

#include <cstddef>
#include <span>
#include <vector>

#include "sim/vehicle.hh"
#include "support/rng.hh"
#include "units/units.hh"

namespace uavf1::sim {

/** Scenario geometry and rates. */
struct StopScenario
{
    /** Distance from detection origin to the obstacle plane. */
    units::Meters obstacleDistance{3.0};
    /** Sensor range d (obstacle detected within this range). */
    units::Meters sensingRange{3.0};
    /** Run-up length before the detection origin. */
    units::Meters runUp{8.0};
    /** Autonomy decision rate (ROS loop rate in the paper). */
    units::Hertz actionRate{10.0};
    /** Sensor sample rate. */
    units::Hertz sensorRate{60.0};
    /** Commanded cruise velocity for this trial. */
    units::MetersPerSecond commandedVelocity{2.0};
    /** Integration step. */
    units::Seconds timestep{0.001};
    /** Hard wall-clock cap per trial. */
    units::Seconds maxDuration{120.0};
};

/** Per-trial stochastic effects. */
struct NoiseParams
{
    /** Std-dev of multiplicative thrust noise. */
    double thrustFraction = 0.02;
    /** Std-dev of range-measurement noise, meters. */
    double sensorRangeStd = 0.02;
    /** Randomize the phase of the decision loop vs detection. */
    bool randomDecisionPhase = true;

    /** Noise-free trial (for deterministic tests). */
    static NoiseParams
    none()
    {
        NoiseParams params;
        params.thrustFraction = 0.0;
        params.sensorRangeStd = 0.0;
        params.randomDecisionPhase = false;
        return params;
    }
};

/** One sample of the recorded trajectory. */
struct TrajectorySample
{
    double time = 0.0;         ///< s since trial start.
    double position = 0.0;     ///< m past the run-up start.
    double velocity = 0.0;     ///< m/s.
    double acceleration = 0.0; ///< m/s^2.
};

/** Result of one dash-and-stop trial. */
struct TrialResult
{
    /** True if the stop position crossed the obstacle plane. */
    bool infraction = false;
    /** Final position relative to the obstacle plane, m (negative =
     * stopped short). */
    double stopMargin = 0.0;
    /** Peak cruise velocity reached. */
    double peakVelocity = 0.0;
    /** Peak realized acceleration magnitude (the IMU view). */
    double peakAcceleration = 0.0;
    /** Time at which the brake command was issued (-1 if never). */
    double brakeTime = -1.0;
    /** 100 Hz-decimated trajectory (Fig. 7a material). */
    std::vector<TrajectorySample> trajectory;
};

class FlightSimulator;

/** One trial of FlightSimulator::flyLanes(): what run() takes. */
struct LaneTrial
{
    const FlightSimulator *simulator = nullptr; ///< Vehicle to fly.
    StopScenario scenario;                      ///< Geometry, rates.
    const NoiseParams *noise = nullptr;         ///< Trial noise.
    Rng rng;                                    ///< Noise stream.
};

/**
 * Runs dash-and-stop trials.
 *
 * A trial's mutable state (its Rng copy, its block normal stream,
 * the vehicle and the PID) lives on the stack of the thread that
 * flies it, never in memory shared with other trials. The noise is
 * drawn from the Rng's uniforms through the libm-free Box-Muller
 * pairs of sim/normals.hh (the decision phase first, then the
 * normals, each step's sensor draw before its thrust draw), so a
 * trial's bits do not depend on the platform's libm or the SIMD
 * width.
 */
class FlightSimulator
{
  public:
    /** Trials flyLanes() interleaves. */
    static constexpr std::size_t lanes = 4;

    /** Construct for a vehicle (copied). */
    explicit FlightSimulator(const VehicleModel &vehicle);

    /**
     * Run one trial. The noise normals are read ahead in blocks, so
     * the state `rng` is left in is unspecified, beyond having
     * advanced past every uniform the trial used.
     *
     * @param scenario geometry, rates and commanded velocity
     * @param noise stochastic effects
     * @param rng deterministic random stream for the noise
     * @param record_trajectory keep the decimated trajectory
     * @throws ModelError when validateScenario() or validateNoise()
     *         rejects the inputs
     */
    TrialResult run(const StopScenario &scenario,
                    const NoiseParams &noise, Rng &rng,
                    bool record_trajectory = false) const;

    /**
     * Fly up to `lanes` trials round-robin, one step of each per
     * turn, so the core overlaps their independent step chains.
     * results[i] is bit for bit what trials[i].simulator->run() gives
     * for its scenario, noise and a copy of its rng, without a
     * trajectory. Every trial is validated before any flies.
     *
     * @throws ModelError for more than `lanes` trials, a results span
     *         of another size, or inputs run() would reject
     */
    static void flyLanes(std::span<const LaneTrial> trials,
                         std::span<TrialResult> results);

    /**
     * The checks run() applies to a scenario before flying it:
     * commanded velocity, action rate and sensor rate must be
     * positive; timestep and maxDuration positive and finite, with
     * at most 2^31 steps in maxDuration; obstacleDistance,
     * sensingRange and runUp finite and non-negative. Throws
     * ModelError naming the first that is not.
     */
    static void validateScenario(const StopScenario &scenario);

    /**
     * The checks run() applies to the noise: thrustFraction and
     * sensorRangeStd must be finite and non-negative. Throws
     * ModelError naming the first that is not.
     */
    static void validateNoise(const NoiseParams &noise);

  private:
    VehicleModel _vehicle;
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_FLIGHT_SIM_HH
