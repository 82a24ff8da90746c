/**
 * @file
 * Sensor implementation.
 */

#include "components/sensor.hh"

#include "support/validate.hh"

namespace uavf1::components {

Sensor::Sensor(std::string name, units::Hertz framerate,
               units::Meters range, units::Degrees fov,
               units::Grams mass, units::Watts power)
    : _name(std::move(name)), _framerate(framerate), _range(range),
      _fov(fov), _mass(mass), _power(power)
{
    requirePositive(framerate.value(), "framerate");
    requirePositive(range.value(), "range");
    requireInRange(fov.value(), 0.0, 360.0, "fov");
    requireNonNegative(mass.value(), "mass");
    requireNonNegative(power.value(), "power");
}

} // namespace uavf1::components
