/**
 * @file
 * VehicleModel implementation.
 */

#include "sim/vehicle.hh"

#include <algorithm>
#include <cmath>

#include "physics/acceleration.hh"
#include "support/validate.hh"

namespace uavf1::sim {

namespace {

units::MetersPerSecondSquared
verticalExcessAcceleration(const VehicleParams &params)
{
    requirePositive(params.mass.value(), "mass");
    requirePositive(params.usableThrust.value(), "usableThrust");
    requireNonNegative(params.actuationLag.value(), "actuationLag");
    requireInRange(params.brakeMargin, 0.1, 1.0, "brakeMargin");
    physics::AccelerationOptions options;
    options.law = physics::AccelerationLaw::VerticalExcess;
    // Throws InfeasibleError when hover is impossible.
    return physics::maxAcceleration(params.usableThrust, params.mass,
                                    options);
}

} // namespace

VehicleModel::VehicleModel(const VehicleParams &params)
    : _params(params), _availableAccel(verticalExcessAcceleration(params)),
      _dragFactor(params.drag.quadraticFactor())
{
}

void
VehicleModel::reset(double position)
{
    _state = VehicleState{};
    _state.position = position;
    _lagged = 0.0;
}

void
VehicleModel::step(units::Seconds dt, double commanded_accel,
                   double thrust_noise)
{
    requirePositive(dt.value(), "dt");
    const double a_avail = _availableAccel.value();
    const double clipped =
        std::clamp(commanded_accel, -a_avail, a_avail);

    // First-order actuation response toward the commanded value.
    const double tau = _params.actuationLag.value();
    if (tau > 0.0) {
        const double alpha = dt.value() / (tau + dt.value());
        _lagged += alpha * (clipped - _lagged);
    } else {
        _lagged = clipped;
    }

    double accel = _lagged * (1.0 + thrust_noise);

    // Drag always opposes motion. Same operand order as
    // DragModel::deceleration (k * v * v / m), so results match it
    // bit for bit; the mass was validated at construction.
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
    _state.velocity += accel * dt.value();
    _state.position += _state.velocity * dt.value();
}

} // namespace uavf1::sim
