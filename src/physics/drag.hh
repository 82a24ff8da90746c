/**
 * @file
 * Quadratic aerodynamic drag.
 *
 * The F-1 model deliberately omits drag (the paper lists it as an
 * accepted source of optimism, Section IV). The validation simulator
 * re-introduces it so that model-vs-"flight" errors reproduce the
 * structure of the paper's model-vs-real-flight errors.
 */

#ifndef UAVF1_PHYSICS_DRAG_HH
#define UAVF1_PHYSICS_DRAG_HH

#include "units/units.hh"

namespace uavf1::physics {

/**
 * F_D = 1/2 * rho * C_d * A * v^2 drag model.
 */
class DragModel
{
  public:
    /**
     * @param drag_coefficient dimensionless C_d (typical quadcopter
     *                         bluff-body values: 0.5 - 1.5)
     * @param frontal_area_m2 reference frontal area, m^2
     * @param air_density_kg_m3 air density, default sea level
     */
    DragModel(double drag_coefficient, double frontal_area_m2,
              double air_density_kg_m3 = units::airDensityKgPerM3);

    /** A model with no drag (F_D = 0), i.e. the paper's F-1 view. */
    static DragModel none();

    /** True if this is the zero-drag model. */
    bool isNone() const { return _coefficient == 0.0; }

    /** Combined 1/2 * rho * Cd * A factor (N per (m/s)^2). */
    double quadraticFactor() const;

  private:
    double _coefficient;
    double _areaM2;
    double _airDensity;
};

} // namespace uavf1::physics

#endif // UAVF1_PHYSICS_DRAG_HH
