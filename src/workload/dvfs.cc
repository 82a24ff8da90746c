/**
 * @file
 * DvfsModel implementation.
 */

#include "workload/dvfs.hh"

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

} // namespace uavf1::workload
