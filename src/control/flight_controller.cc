/**
 * @file
 * FlightController implementation.
 */

#include "control/flight_controller.hh"

#include "support/validate.hh"

namespace uavf1::control {

FlightController::FlightController(std::string name,
                                   units::Hertz loop_rate,
                                   units::Grams mass)
    : _name(std::move(name)), _loopRate(loop_rate), _mass(mass)
{
    requirePositive(loop_rate.value(), "loop_rate");
    requireNonNegative(mass.value(), "mass");
}

FlightController
FlightController::typical1kHz()
{
    return FlightController("Generic 1kHz FC", units::Hertz(1000.0),
                            units::Grams(10.0));
}

} // namespace uavf1::control
