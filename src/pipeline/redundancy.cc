/**
 * @file
 * ModularRedundancy implementation.
 */

#include "pipeline/redundancy.hh"

#include "support/errors.hh"
#include "support/validate.hh"

namespace uavf1::pipeline {

int
replicaCount(RedundancyScheme scheme)
{
    switch (scheme) {
      case RedundancyScheme::None:
        return 1;
      case RedundancyScheme::Dual:
        return 2;
      case RedundancyScheme::Triple:
        return 3;
    }
    throw ModelError("unknown redundancy scheme");
}

ModularRedundancy::ModularRedundancy(RedundancyScheme scheme,
                                     const Params &params)
    : _scheme(scheme), _params(params)
{
    requireNonNegative(params.voterLatency.value(), "voterLatency");
    requireNonNegative(params.voterMass.value(), "voterMass");
}

units::Grams
ModularRedundancy::payloadMass(
    const components::ComputePlatform &platform,
    const thermal::HeatsinkModel &heatsink) const
{
    units::Grams mass =
        platform.totalMass(heatsink) * static_cast<double>(replicas());
    if (_scheme != RedundancyScheme::None)
        mass += _params.voterMass;
    return mass;
}

units::Watts
ModularRedundancy::power(
    const components::ComputePlatform &platform) const
{
    return platform.tdp() * static_cast<double>(replicas());
}

units::Hertz
ModularRedundancy::effectiveThroughput(units::Hertz base) const
{
    requirePositive(base.value(), "base throughput");
    if (_scheme == RedundancyScheme::None)
        return base;
    const units::Seconds period =
        units::period(base) + _params.voterLatency;
    return units::rate(period);
}

} // namespace uavf1::pipeline
