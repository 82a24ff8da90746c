/**
 * @file
 * DvfsModel implementation.
 */

#include "workload/dvfs.hh"

#include "support/errors.hh"
#include "support/strings.hh"
#include "support/validate.hh"

namespace uavf1::workload {

DvfsModel::DvfsModel(const Params &params) : _params(params)
{
    requireInRange(params.exponent, 1.0, 3.0, "exponent");
    requireInRange(params.leakageFraction, 0.0, 0.9,
                   "leakageFraction");
    requireInRange(params.minFrequencyFraction, 0.01, 1.0,
                   "minFrequencyFraction");
}

units::Watts
DvfsModel::scaledTdp(units::Watts nominal_tdp,
                     double frequency_fraction) const
{
    requirePositive(nominal_tdp.value(), "nominal_tdp");
    if (frequency_fraction < _params.minFrequencyFraction ||
        frequency_fraction > 1.0) {
        throw ModelError(strFormat(
            "frequency fraction %.3f outside the DVFS range "
            "[%.2f, 1]",
            frequency_fraction, _params.minFrequencyFraction));
    }
    // The CMOS law itself lives in the platform layer.
    return platform::dvfsScaledTdp(nominal_tdp, frequency_fraction,
                                   _params.exponent,
                                   _params.leakageFraction);
}

std::vector<platform::OperatingPoint>
DvfsModel::operatingPoints(
    units::Watts nominal_tdp,
    const std::vector<std::pair<std::string, double>> &points) const
{
    std::vector<platform::OperatingPoint> out;
    out.reserve(points.size());
    for (const auto &[name, fraction] : points) {
        out.push_back(
            {name, fraction, scaledTdp(nominal_tdp, fraction)});
    }
    return out;
}

} // namespace uavf1::workload
