/**
 * @file
 * Airframe component: mechanical frame, motors and ESCs, plus the
 * size class taxonomy of paper Fig. 2b.
 */

#ifndef UAVF1_COMPONENTS_AIRFRAME_HH
#define UAVF1_COMPONENTS_AIRFRAME_HH

#include <string>

#include "physics/propulsion.hh"
#include "units/units.hh"

namespace uavf1::components {

/** UAV size classes (paper Fig. 2b). */
enum class SizeClass
{
    Nano,   ///< ~tens of mm frames, e.g. CrazyFlie.
    Micro,  ///< ~250 mm frames.
    Mini,   ///< >= ~350 mm frames, e.g. AscTec Pelican, S500.
};

/** Printable size class name. */
const char *toString(SizeClass size_class);

/**
 * Mechanical frame with its propulsion.
 *
 * The "base weight" convention follows Table I: motors + ESCs + frame
 * (but not battery, compute or sensors, which join the payload
 * budget separately).
 */
class Airframe
{
  public:
    /** Aggregate of all constructor attributes. */
    struct Spec
    {
        std::string name;          ///< e.g. "S500 quadcopter frame".
        units::Grams baseMass;     ///< Motors + ESC + frame.
        double frameSizeMm = 0.0;  ///< Motor-to-motor diagonal.
        SizeClass sizeClass = SizeClass::Mini;
        physics::Propulsion propulsion{
            "unset", 4, units::Grams(1.0)};
    };

    /** Construct from a validated spec. */
    explicit Airframe(Spec spec);

    /** Frame designation. */
    const std::string &name() const { return _spec.name; }

    /** Motors + ESC + frame mass. */
    units::Grams baseMass() const { return _spec.baseMass; }

    /** Motor-to-motor diagonal, millimeters. */
    double frameSizeMm() const { return _spec.frameSizeMm; }

    /** Size class. */
    SizeClass sizeClass() const { return _spec.sizeClass; }

    /** Propulsion set. */
    const physics::Propulsion &
    propulsion() const
    {
        return _spec.propulsion;
    }

  private:
    Spec _spec;
};

} // namespace uavf1::components

#endif // UAVF1_COMPONENTS_AIRFRAME_HH
