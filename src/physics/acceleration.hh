/**
 * @file
 * Maximum-acceleration estimation (paper Eq. 5, Fig. 8).
 *
 * The paper estimates the acceleration bound from total thrust T,
 * pitch angle alpha and mass m:
 *
 *   T cos(alpha) - m g = m a_y
 *   T sin(alpha) - F_D = m a_x
 *
 * The F-1 model ignores drag (F_D = 0). Two laws are provided:
 *
 * - HoverConstrained: hold altitude (a_y = 0), pitch so that the
 *   vertical thrust component exactly cancels gravity; the horizontal
 *   residual gives a_max = g * sqrt(twr^2 - 1). This is the paper's
 *   Eq. 5 with the a_y = 0 flight condition used in the validation
 *   flights (constant-altitude dash to an obstacle).
 * - VerticalExcess: a_max = g * (twr - 1), the climb-rate limit; a
 *   more conservative law some UAV texts use.
 *
 * All laws require thrust-to-weight > 1; otherwise the vehicle cannot
 * hover and InfeasibleError is raised.
 */

#ifndef UAVF1_PHYSICS_ACCELERATION_HH
#define UAVF1_PHYSICS_ACCELERATION_HH

#include "units/units.hh"

namespace uavf1::physics {

/** Selectable acceleration law; see file comment. */
enum class AccelerationLaw
{
    HoverConstrained,
    VerticalExcess,
};

/** Options for maxAcceleration(). */
struct AccelerationOptions
{
    /** Which law to apply. */
    AccelerationLaw law = AccelerationLaw::HoverConstrained;
};

/**
 * Thrust-to-weight ratio.
 *
 * @param thrust total usable thrust
 * @param mass total takeoff mass
 */
double thrustToWeight(units::Newtons thrust, units::Kilograms mass);

/**
 * Maximum horizontal acceleration under the selected law.
 *
 * @param thrust total usable thrust
 * @param mass total takeoff mass
 * @param options law selection
 * @throws InfeasibleError if thrust-to-weight <= 1
 */
units::MetersPerSecondSquared
maxAcceleration(units::Newtons thrust, units::Kilograms mass,
                const AccelerationOptions &options = {});

} // namespace uavf1::physics

#endif // UAVF1_PHYSICS_ACCELERATION_HH
