/**
 * @file
 * Battery implementation.
 */

#include "physics/battery.hh"

#include "support/validate.hh"

namespace uavf1::physics {

Battery::Battery(std::string name, units::MilliampHours capacity,
                 units::Volts nominal_voltage, units::Grams mass,
                 double usable_fraction)
    : _name(std::move(name)), _capacity(capacity),
      _nominalVoltage(nominal_voltage), _mass(mass),
      _usableFraction(usable_fraction)
{
    requirePositive(capacity.value(), "capacity");
    requirePositive(nominal_voltage.value(), "nominal_voltage");
    requireNonNegative(mass.value(), "mass");
    requireInRange(usable_fraction, 0.0, 1.0, "usable_fraction");
    requirePositive(usable_fraction, "usable_fraction");
}

units::WattHours
Battery::ratedEnergy() const
{
    return units::batteryEnergy(_capacity, _nominalVoltage);
}

units::WattHours
Battery::usableEnergy() const
{
    return units::WattHours(ratedEnergy().value() * _usableFraction);
}

units::Watts
Battery::impliedDraw(units::Seconds endurance) const
{
    requirePositive(endurance.value(), "endurance");
    return units::toJoules(usableEnergy()) / endurance;
}

} // namespace uavf1::physics
