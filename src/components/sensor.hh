/**
 * @file
 * Sensor component (camera, stereo rig, RGB-D, lidar).
 *
 * In the F-1 model the sensor contributes its framerate to the
 * sensor-compute-control pipeline and its range 'd' to the safety
 * model; its mass and power join the payload budget.
 */

#ifndef UAVF1_COMPONENTS_SENSOR_HH
#define UAVF1_COMPONENTS_SENSOR_HH

#include <string>

#include "units/units.hh"

namespace uavf1::components {

/**
 * An environment sensor.
 */
class Sensor
{
  public:
    /**
     * @param name catalog designation
     * @param framerate sample rate (FPS); must be positive
     * @param range sensing distance 'd'; must be positive
     * @param fov horizontal field of view
     * @param mass sensor mass
     * @param power electrical draw
     */
    Sensor(std::string name, units::Hertz framerate, units::Meters range,
           units::Degrees fov, units::Grams mass, units::Watts power);

    /** Catalog designation. */
    const std::string &name() const { return _name; }

    /** Sample rate (FPS). */
    units::Hertz framerate() const { return _framerate; }

    /** Per-sample latency (1 / framerate). */
    units::Seconds latency() const { return units::period(_framerate); }

    /** Sensing distance 'd'. */
    units::Meters range() const { return _range; }

    /** Horizontal field of view. */
    units::Degrees fov() const { return _fov; }

    /** Sensor mass. */
    units::Grams mass() const { return _mass; }

    /** Electrical draw. */
    units::Watts power() const { return _power; }

  private:
    std::string _name;
    units::Hertz _framerate;
    units::Meters _range;
    units::Degrees _fov;
    units::Grams _mass;
    units::Watts _power;
};

} // namespace uavf1::components

#endif // UAVF1_COMPONENTS_SENSOR_HH
