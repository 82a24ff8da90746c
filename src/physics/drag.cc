/**
 * @file
 * DragModel implementation.
 */

#include "physics/drag.hh"

#include "support/validate.hh"

namespace uavf1::physics {

DragModel::DragModel(double drag_coefficient, double frontal_area_m2,
                     double air_density_kg_m3)
    : _coefficient(drag_coefficient), _areaM2(frontal_area_m2),
      _airDensity(air_density_kg_m3)
{
    requireNonNegative(drag_coefficient, "drag_coefficient");
    requireNonNegative(frontal_area_m2, "frontal_area_m2");
    requirePositive(air_density_kg_m3, "air_density_kg_m3");
}

DragModel
DragModel::none()
{
    return DragModel(0.0, 0.0);
}

double
DragModel::quadraticFactor() const
{
    return 0.5 * _airDensity * _coefficient * _areaM2;
}

} // namespace uavf1::physics
