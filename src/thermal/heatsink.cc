/**
 * @file
 * HeatsinkModel implementation.
 */

#include "thermal/heatsink.hh"

#include <cmath>

#include "support/errors.hh"
#include "support/validate.hh"

namespace uavf1::thermal {

HeatsinkModel::HeatsinkModel(const Params &params) : _params(params)
{
    requirePositive(_params.massCoefficient, "massCoefficient");
    requirePositive(_params.exponent, "exponent");
    requireNonNegative(_params.baseMass, "baseMass");
    requireNonNegative(_params.noHeatsinkBelow.value(),
                       "noHeatsinkBelow");
}

units::Grams
HeatsinkModel::mass(units::Watts tdp) const
{
    requireNonNegative(tdp.value(), "tdp");
    if (tdp < _params.noHeatsinkBelow)
        return units::Grams(0.0);
    return units::Grams(_params.massCoefficient *
                            std::pow(tdp.value(), _params.exponent) +
                        _params.baseMass);
}

} // namespace uavf1::thermal
