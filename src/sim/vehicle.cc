/**
 * @file
 * VehicleModel implementation.
 */

#include "sim/vehicle.hh"

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
    stepUnchecked(dt.value(), lagBlend(dt.value()), commanded_accel,
                  thrust_noise);
}

} // namespace uavf1::sim
