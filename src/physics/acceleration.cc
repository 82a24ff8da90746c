/**
 * @file
 * Acceleration law implementations.
 */

#include "physics/acceleration.hh"

#include <cmath>

#include "support/errors.hh"
#include "support/strings.hh"
#include "support/validate.hh"

namespace uavf1::physics {

const char *
toString(AccelerationLaw law)
{
    switch (law) {
      case AccelerationLaw::HoverConstrained:
        return "hover-constrained";
      case AccelerationLaw::VerticalExcess:
        return "vertical-excess";
    }
    return "unknown";
}

double
thrustToWeight(units::Newtons thrust, units::Kilograms mass)
{
    requirePositive(thrust.value(), "thrust");
    requirePositive(mass.value(), "mass");
    const units::Newtons weight = mass * units::standardGravity;
    return thrust / weight;
}

namespace {

/** Shared hoverability check. */
double
requireHoverable(units::Newtons thrust, units::Kilograms mass)
{
    const double twr = thrustToWeight(thrust, mass);
    if (twr <= 1.0) {
        throw InfeasibleError(strFormat(
            "thrust-to-weight ratio %.3f <= 1: vehicle cannot hover "
            "(thrust %.2f N vs weight %.2f N)",
            twr, thrust.value(),
            (mass * units::standardGravity).value()));
    }
    return twr;
}

} // namespace

units::Radians
hoverPitchAngle(units::Newtons thrust, units::Kilograms mass)
{
    const double twr = requireHoverable(thrust, mass);
    // cos(alpha) = mg / T = 1 / twr.
    return units::Radians(std::acos(1.0 / twr));
}

units::MetersPerSecondSquared
maxAcceleration(units::Newtons thrust, units::Kilograms mass,
                const AccelerationOptions &options)
{
    const double twr = requireHoverable(thrust, mass);
    const double g = units::standardGravity.value();

    switch (options.law) {
      case AccelerationLaw::HoverConstrained:
        return units::MetersPerSecondSquared(
            g * std::sqrt(twr * twr - 1.0));
      case AccelerationLaw::VerticalExcess:
        return units::MetersPerSecondSquared(g * (twr - 1.0));
    }
    throw ModelError("unknown acceleration law");
}

} // namespace uavf1::physics
