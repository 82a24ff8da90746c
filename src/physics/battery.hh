/**
 * @file
 * Battery and endurance model (paper Fig. 2b).
 *
 * Battery capacity and endurance are commensurate with UAV size: a
 * nano-UAV carries ~240 mAh for ~6 min, a mini-UAV ~3830 mAh for
 * ~30 min. The model stores electrical capacity and derives stored
 * energy and endurance at a given average power draw.
 */

#ifndef UAVF1_PHYSICS_BATTERY_HH
#define UAVF1_PHYSICS_BATTERY_HH

#include <string>

#include "units/units.hh"

namespace uavf1::physics {

/**
 * A LiPo battery pack.
 */
class Battery
{
  public:
    /**
     * @param name pack designation, e.g. "3S 5000 mAh"
     * @param capacity rated capacity
     * @param nominal_voltage pack nominal voltage (3.7 V per cell)
     * @param mass pack mass
     * @param usable_fraction fraction of rated energy that can be
     *        drawn before the low-voltage cutoff, default 0.8
     */
    Battery(std::string name, units::MilliampHours capacity,
            units::Volts nominal_voltage, units::Grams mass,
            double usable_fraction = 0.8);

    /** Pack designation. */
    const std::string &name() const { return _name; }

    /** Rated capacity. */
    units::MilliampHours capacity() const { return _capacity; }

    /** Nominal voltage. */
    units::Volts nominalVoltage() const { return _nominalVoltage; }

    /** Pack mass. */
    units::Grams mass() const { return _mass; }

    /** Usable energy fraction before cutoff. */
    double usableFraction() const { return _usableFraction; }

    /** Rated stored energy (capacity x nominal voltage). */
    units::WattHours ratedEnergy() const;

    /** Usable stored energy (rated x usable fraction). */
    units::WattHours usableEnergy() const;

    /**
     * Average power draw implied by a known endurance; used to back
     * out hover power from datasheet flight times (Fig. 2b).
     */
    units::Watts impliedDraw(units::Seconds endurance) const;

  private:
    std::string _name;
    units::MilliampHours _capacity;
    units::Volts _nominalVoltage;
    units::Grams _mass;
    double _usableFraction;
};

} // namespace uavf1::physics

#endif // UAVF1_PHYSICS_BATTERY_HH
