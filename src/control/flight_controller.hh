/**
 * @file
 * Flight-controller model (paper Section II-D).
 *
 * The dedicated flight controller runs the low-level stabilization
 * loop at up to 1 kHz on a microcontroller; in the action pipeline
 * it contributes the control-stage throughput f_control.
 */

#ifndef UAVF1_CONTROL_FLIGHT_CONTROLLER_HH
#define UAVF1_CONTROL_FLIGHT_CONTROLLER_HH

#include <string>

#include "units/units.hh"

namespace uavf1::control {

/**
 * A flight controller board with its control-loop rate.
 */
class FlightController
{
  public:
    /**
     * @param name board designation, e.g. "NXP FMUk66"
     * @param loop_rate inner-loop rate; must be positive
     * @param mass board mass
     */
    FlightController(std::string name, units::Hertz loop_rate,
                     units::Grams mass);

    /** Typical 1 kHz controller (paper Section II-D, [34], [35]). */
    static FlightController typical1kHz();

    /** Board designation. */
    const std::string &name() const { return _name; }

    /** Inner control-loop rate. */
    units::Hertz loopRate() const { return _loopRate; }

    /** Per-command latency (1 / loop rate). */
    units::Seconds latency() const { return units::period(_loopRate); }

    /** Board mass. */
    units::Grams mass() const { return _mass; }

  private:
    std::string _name;
    units::Hertz _loopRate;
    units::Grams _mass;
};

} // namespace uavf1::control

#endif // UAVF1_CONTROL_FLIGHT_CONTROLLER_HH
