/**
 * @file
 * Throughput oracle implementation.
 */

#include "workload/throughput.hh"

#include "support/errors.hh"
#include "support/validate.hh"

namespace uavf1::workload {

const char *
toString(ThroughputSource source)
{
    switch (source) {
      case ThroughputSource::Measured:
        return "measured";
      case ThroughputSource::RooflineBound:
        return "roofline-bound";
    }
    return "unknown";
}

platform::WorkloadProfile
workloadProfile(const AutonomyAlgorithm &algorithm,
                const platform::RooflinePlatform &platform)
{
    return workloadProfile(algorithm.traits(),
                           algorithm.arithmeticIntensity(), platform,
                           "'" + algorithm.name() + "'");
}

platform::WorkloadProfile
workloadProfile(const WorkloadTraits &traits, units::OpsPerByte ai,
                const platform::RooflinePlatform &platform,
                const std::string &context)
{
    platform::WorkloadProfile profile;
    profile.ai = ai;

    if (!traits.targets.empty()) {
        platform::TargetMask mask = 0;
        for (const platform::ComputeTarget target : traits.targets)
            mask |= platform::targetBit(target);
        profile.targets = mask;
    }
    profile.stage = platform::stageTag(traits.stage);

    const auto &levels = platform.memoryCeilings();
    for (const auto &[level, fraction] : traits.levelTraffic) {
        for (std::size_t i = 0; i < levels.size(); ++i) {
            if (levels[i].name != level)
                continue;
            if (i >= platform::WorkloadProfile::maxMemoryLevels) {
                throw ModelError(
                    "memory level '" + level + "' of " +
                    platform.name() +
                    " is beyond the per-level AI annotation "
                    "capacity of a workload profile");
            }
            profile.trafficFraction[i] = fraction;
        }
    }
    // Fail at construction with the offending field named, not deep
    // inside a sweep loop.
    platform::validateWorkloadProfile(
        profile, context + " for " + platform.name());
    return profile;
}

ThroughputEstimate
rooflineBound(double work_per_frame_gop, units::OpsPerByte ai,
              const platform::RooflinePlatform &platform,
              std::size_t op_index)
{
    platform::WorkloadProfile profile;
    profile.ai = ai;
    return rooflineBound(work_per_frame_gop, profile, platform,
                         op_index);
}

ThroughputEstimate
rooflineBound(double work_per_frame_gop,
              const platform::WorkloadProfile &profile,
              const platform::RooflinePlatform &platform,
              std::size_t op_index)
{
    requirePositive(work_per_frame_gop,
                    "work_per_frame for the roofline bound on " +
                        platform.name());
    const platform::AttainableBound bound =
        platform.attainable(profile, op_index);
    const double hz = bound.attainable.value() / work_per_frame_gop;
    requireFinite(hz, "roofline bound on " + platform.name());
    return {units::Hertz(hz), ThroughputSource::RooflineBound,
            bound.binding};
}

ThroughputEstimate
rooflineBound(const AutonomyAlgorithm &algorithm,
              const platform::RooflinePlatform &platform,
              std::size_t op_index)
{
    return rooflineBound(algorithm.workPerFrameGop(),
                         workloadProfile(algorithm, platform),
                         platform, op_index);
}

units::Hertz
rooflineBound(const AutonomyAlgorithm &algorithm,
              const components::ComputePlatform &platform)
{
    // The adapter's one-compute/one-memory family evaluates to the
    // classic min(peak, AI x BW) bit-for-bit.
    return rooflineBound(algorithm, platform.roofline()).value;
}

ThroughputOracle
ThroughputOracle::standard()
{
    ThroughputOracle oracle;
    oracle.addMeasurement("DroNet", "Nvidia TX2", units::Hertz(178.0));
    oracle.addMeasurement("DroNet", "Nvidia AGX", units::Hertz(230.0));
    oracle.addMeasurement("DroNet", "Intel NCS", units::Hertz(150.0));
    oracle.addMeasurement("DroNet", "Ras-Pi4", units::Hertz(13.03));
    oracle.addMeasurement("DroNet", "PULP-GAP8", units::Hertz(6.0));
    oracle.addMeasurement("TrailNet", "Nvidia TX2", units::Hertz(55.0));
    oracle.addMeasurement("TrailNet", "Ras-Pi4", units::Hertz(0.391));
    oracle.addMeasurement("CAD2RL", "Ras-Pi4", units::Hertz(0.0652));
    oracle.addMeasurement("VGG16", "Nvidia TX2", units::Hertz(16.0));
    oracle.addMeasurement("SPA package delivery", "Nvidia TX2",
                          units::Hertz(1.1));
    return oracle;
}

void
ThroughputOracle::addMeasurement(const std::string &algorithm,
                                 const std::string &platform,
                                 units::Hertz throughput)
{
    requirePositive(throughput.value(),
                    "throughput of " + algorithm + " on " + platform);
    _table[{algorithm, platform}] = throughput;
}

bool
ThroughputOracle::hasMeasurement(const std::string &algorithm,
                                 const std::string &platform) const
{
    return _table.count({algorithm, platform}) != 0;
}

ThroughputEstimate
ThroughputOracle::throughput(
    const AutonomyAlgorithm &algorithm,
    const components::ComputePlatform &platform) const
{
    // The adapter family is named after the platform, so the
    // measured-first lookup below hits the same table entries.
    return throughput(algorithm, platform.roofline());
}

ThroughputEstimate
ThroughputOracle::throughput(
    const AutonomyAlgorithm &algorithm,
    const platform::RooflinePlatform &platform,
    std::size_t op_index) const
{
    // Measurements characterize the nominal operating point only;
    // a DVFS-scaled family has no measured row to consult.
    if (op_index == 0) {
        auto it = _table.find({algorithm.name(), platform.name()});
        if (it != _table.end())
            return {it->second, ThroughputSource::Measured, {}};
    }
    return rooflineBound(algorithm, platform, op_index);
}

units::Hertz
ThroughputOracle::measured(const std::string &algorithm,
                           const std::string &platform) const
{
    auto it = _table.find({algorithm, platform});
    if (it == _table.end()) {
        throw ModelError("no measured throughput for '" + algorithm +
                         "' on '" + platform + "'");
    }
    return it->second;
}

} // namespace uavf1::workload
