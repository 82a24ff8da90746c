/**
 * @file
 * Longitudinal quadcopter vehicle model for the validation
 * simulator (paper Section IV substitute).
 *
 * The model covers exactly the effects the F-1 model ignores and the
 * paper names as its error sources:
 *
 * - aerodynamic drag (Fig. 8's F_D term);
 * - actuation lag: commanded acceleration is realized through a
 *   first-order response (the vehicle must physically pitch);
 * - thrust noise (battery sag, prop wash, payload jerk).
 *
 * The autopilot follows the conservative altitude-hold-reserve
 * strategy used by the paper's custom MAVROS controller: it only
 * commands horizontal accelerations up to the vertical thrust
 * margin, a_avail = g * (T/(m g) - 1), so altitude authority is
 * never sacrificed during a dash. This matches the
 * physics::AccelerationLaw::VerticalExcess law, which the validation
 * configurations therefore use for their F-1 predictions.
 */

#ifndef UAVF1_SIM_VEHICLE_HH
#define UAVF1_SIM_VEHICLE_HH

#include <algorithm>
#include <cmath>

#include "physics/drag.hh"
#include "units/units.hh"

namespace uavf1::sim {

/** Physical and control parameters of the simulated vehicle. */
struct VehicleParams
{
    /** Total takeoff mass. */
    units::Kilograms mass{1.0};
    /** Total usable thrust. */
    units::Newtons usableThrust{15.0};
    /** Aerodynamic drag model. */
    physics::DragModel drag{physics::DragModel::none()};
    /** First-order actuation time constant (pitch response). */
    units::Seconds actuationLag{0.15};
    /** Fraction of a_avail the controller commands while braking. */
    double brakeMargin = 0.95;
};

/** Instantaneous longitudinal state. */
struct VehicleState
{
    double position = 0.0;     ///< m, along the dash axis.
    double velocity = 0.0;     ///< m/s.
    double acceleration = 0.0; ///< m/s^2 (realized, IMU view).
};

/**
 * The longitudinal vehicle integrator.
 */
class VehicleModel
{
  public:
    /** Construct and validate; throws InfeasibleError if the thrust
     * cannot hover the mass. */
    explicit VehicleModel(const VehicleParams &params);

    /** Parameters. */
    const VehicleParams &params() const { return _params; }

    /** Current state. */
    const VehicleState &state() const { return _state; }

    /** Reset to rest at a position. */
    void reset(double position = 0.0);

    /**
     * Acceleration the autopilot may command (vertical-excess
     * strategy): g * (T/(m g) - 1). Computed once at construction.
     */
    units::MetersPerSecondSquared availableAcceleration() const
    {
        return _availableAccel;
    }

    /** The actuation lag's per-step blend dt / (tau + dt). */
    double lagBlend(double dt) const
    {
        return dt / (_params.actuationLag.value() + dt);
    }

    /**
     * Advance one integration step. The flight simulator checks the
     * timestep and computes its blend once, outside its step loop.
     *
     * @param dt timestep in seconds, which the caller checked
     *        positive
     * @param blend lagBlend(dt)
     * @param commanded_accel requested acceleration, clipped to
     *        +/- availableAcceleration()
     * @param thrust_noise multiplicative noise on the realized
     *        acceleration (0 = none)
     */
    void stepUnchecked(double dt, double blend, double commanded_accel,
                       double thrust_noise)
    {
        const double a_avail = _availableAccel.value();
        const double clipped =
            std::clamp(commanded_accel, -a_avail, a_avail);

        // First-order actuation response toward the commanded value.
        if (_params.actuationLag.value() > 0.0)
            _lagged += blend * (clipped - _lagged);
        else
            _lagged = clipped;

        double accel = _lagged * (1.0 + thrust_noise);

        // Drag always opposes motion: k * v * v / m, where k is
        // DragModel::quadraticFactor() and the mass was validated at
        // construction.
        const double speed = std::fabs(_state.velocity);
        const double drag_decel =
            _dragFactor * speed * speed / _params.mass.value();
        if (_state.velocity > 0.0) {
            accel -= drag_decel;
        } else if (_state.velocity < 0.0) {
            accel += drag_decel;
        }

        // Semi-implicit Euler keeps the integration stable at 1 kHz.
        _state.acceleration = accel;
        _state.velocity += accel * dt;
        _state.position += _state.velocity * dt;
    }

  private:
    VehicleParams _params;
    /** availableAcceleration(), fixed by the parameters. */
    units::MetersPerSecondSquared _availableAccel;
    /** DragModel::quadraticFactor() of the parameters' drag. */
    double _dragFactor;
    VehicleState _state;
    double _lagged = 0.0; ///< First-order-lag internal state.
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_VEHICLE_HH
