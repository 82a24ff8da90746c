/**
 * @file
 * Fault taxonomy implementation: validation and the standard suites.
 */

#include "fault/fault_spec.hh"

#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1::fault {

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CeilingDerate:
        return "ceiling-derate";
      case FaultKind::OperatingPointLoss:
        return "operating-point-loss";
      case FaultKind::ThermalThrottle:
        return "thermal-throttle";
      case FaultKind::StageLatencyInflation:
        return "stage-latency-inflation";
      case FaultKind::StageFailure:
        return "stage-failure";
      case FaultKind::SensorDropout:
        return "sensor-dropout";
      case FaultKind::StageCeilingDerate:
        return "stage-ceiling-derate";
      case FaultKind::StageTrafficInflation:
        return "stage-traffic-inflation";
    }
    return "unknown";
}

void
validateFaultSpec(const FaultSpec &spec)
{
    if (trim(spec.name).empty())
        throw ModelError("fault spec requires a name");
    const std::string where = "fault '" + spec.name + "'";
    if (!(spec.probability >= 0.0) || spec.probability > 1.0) {
        throw ModelError("probability of " + where +
                         " must be in [0, 1]");
    }
    switch (spec.kind) {
      case FaultKind::CeilingDerate:
        if (!(spec.derate > 0.0) || spec.derate > 1.0) {
            throw ModelError("derate of " + where +
                             " must be in (0, 1]");
        }
        break;
      case FaultKind::OperatingPointLoss:
        break;
      case FaultKind::ThermalThrottle:
        // The DVFS law's own ranges, which name each field.
        try {
            (void)workload::DvfsModel(spec.dvfs);
        } catch (const ModelError &error) {
            throw ModelError("dvfs of " + where + ": " + error.what());
        }
        break;
      case FaultKind::StageLatencyInflation:
        if (trim(spec.stage).empty()) {
            throw ModelError("stage of " + where +
                             " must name an SPA stage");
        }
        if (!(spec.latencyFactor >= 1.0) ||
            spec.latencyFactor > 1e6) {
            throw ModelError("latencyFactor of " + where +
                             " must be in [1, 1e6]");
        }
        break;
      case FaultKind::StageFailure:
        if (trim(spec.stage).empty()) {
            throw ModelError("stage of " + where +
                             " must name an SPA stage");
        }
        break;
      case FaultKind::SensorDropout:
        if (!(spec.sensorDerate >= 0.0) || spec.sensorDerate > 1.0) {
            throw ModelError("sensorDerate of " + where +
                             " must be in [0, 1]");
        }
        break;
      case FaultKind::StageCeilingDerate:
        if (trim(spec.stage).empty()) {
            throw ModelError("stage of " + where +
                             " must name an SPA stage");
        }
        if (!(spec.derate >= 0.0) || spec.derate > 1.0) {
            throw ModelError("derate of " + where +
                             " must be in [0, 1]");
        }
        if (spec.targetClass == platform::ComputeTarget::General) {
            throw ModelError(
                "targetClass of " + where +
                " cannot be general: general-target ceilings apply "
                "regardless of the profile mask (pick scalar, simd "
                "or accelerator)");
        }
        break;
      case FaultKind::StageTrafficInflation:
        if (trim(spec.stage).empty()) {
            throw ModelError("stage of " + where +
                             " must name an SPA stage");
        }
        if (!(spec.trafficFactor >= 1.0) ||
            spec.trafficFactor > 1e6) {
            throw ModelError("trafficFactor of " + where +
                             " must be in [1, 1e6]");
        }
        break;
    }
}

const std::vector<FaultSuite> &
standardFaultSuites()
{
    // Probabilities are per-mission activation rates at unit
    // severity scale; campaigns sweep probabilityScale in [0, 1] to
    // trace the degradation curve from fault-free to worst case.
    static const std::vector<FaultSuite> suites = [] {
        std::vector<FaultSuite> out;

        out.push_back({"none",
                       "control: no faults; reproduces the "
                       "fault-free baseline byte-for-byte",
                       {}});

        {
            FaultSuite suite;
            suite.name = "ceiling-derate";
            suite.description = "platform layer: the accelerator and "
                                "DRAM each lose part of their roof";
            FaultSpec gpu;
            gpu.name = "accelerator half peak";
            gpu.kind = FaultKind::CeilingDerate;
            gpu.probability = 0.3;
            gpu.ceilingKind = platform::CeilingKind::Compute;
            gpu.ceilingIndex = 2; // TX2 ordering: Pascal GPU FP16.
            gpu.derate = 0.5;
            FaultSpec dram;
            dram.name = "DRAM bandwidth loss";
            dram.kind = FaultKind::CeilingDerate;
            dram.probability = 0.2;
            dram.ceilingKind = platform::CeilingKind::Memory;
            dram.ceilingIndex = 0;
            dram.derate = 0.6;
            suite.faults = {gpu, dram};
            out.push_back(std::move(suite));
        }

        {
            FaultSuite suite;
            suite.name = "thermal-throttle";
            suite.description =
                "platform layer: thermal protection pins the clock "
                "at the DVFS floor; losing the selected operating "
                "point falls back to a slower one";
            FaultSpec throttle;
            throttle.name = "thermal throttle to DVFS floor";
            throttle.kind = FaultKind::ThermalThrottle;
            throttle.probability = 0.25;
            FaultSpec op_loss;
            op_loss.name = "operating-point loss";
            op_loss.kind = FaultKind::OperatingPointLoss;
            op_loss.probability = 0.15;
            suite.faults = {throttle, op_loss};
            out.push_back(std::move(suite));
        }

        {
            FaultSuite suite;
            suite.name = "stage-failure";
            suite.description =
                "workload layer: SPA stage slowdowns and a SLAM "
                "failure that only replica takeover survives";
            FaultSpec slam_fail;
            slam_fail.name = "SLAM stage failure";
            slam_fail.kind = FaultKind::StageFailure;
            slam_fail.probability = 0.2;
            slam_fail.stage = "SLAM";
            FaultSpec planning_slow;
            planning_slow.name = "path planner 3x slowdown";
            planning_slow.kind = FaultKind::StageLatencyInflation;
            planning_slow.probability = 0.3;
            planning_slow.stage = "Path planner";
            planning_slow.latencyFactor = 3.0;
            suite.faults = {slam_fail, planning_slow};
            out.push_back(std::move(suite));
        }

        {
            FaultSuite suite;
            suite.name = "sensor-dropout";
            suite.description = "sensing layer: partial and full "
                                "sensor-stream dropouts";
            FaultSpec partial;
            partial.name = "sensor stream half rate";
            partial.kind = FaultKind::SensorDropout;
            partial.probability = 0.3;
            partial.sensorDerate = 0.5;
            FaultSpec full;
            full.name = "sensor full dropout";
            full.kind = FaultKind::SensorDropout;
            full.probability = 0.05;
            full.sensorDerate = 1.0;
            suite.faults = {partial, full};
            out.push_back(std::move(suite));
        }

        {
            FaultSuite suite;
            suite.name = "ecc-fallback";
            suite.description =
                "stage-scoped platform layer: the SLAM accelerator "
                "drops to ECC-fallback mode — half peak when "
                "correctable, the class removed outright when not — "
                "so the stage falls back to the CPU roofs";
            FaultSpec half;
            half.name = "SLAM accelerator ECC half peak";
            half.kind = FaultKind::StageCeilingDerate;
            half.probability = 0.25;
            half.stage = "SLAM";
            half.targetClass = platform::ComputeTarget::Accelerator;
            half.derate = 0.5;
            FaultSpec removed;
            removed.name = "SLAM accelerator offline";
            removed.kind = FaultKind::StageCeilingDerate;
            removed.probability = 0.1;
            removed.stage = "SLAM";
            removed.targetClass =
                platform::ComputeTarget::Accelerator;
            removed.derate = 0.0;
            suite.faults = {half, removed};
            out.push_back(std::move(suite));
        }

        {
            FaultSuite suite;
            suite.name = "cache-contention";
            suite.description =
                "stage-scoped platform layer: contention spills "
                "cache-resident working sets, inflating per-stage "
                "DRAM traffic (memory level 0)";
            FaultSpec octomap;
            octomap.name = "OctoMap voxel spill to DRAM";
            octomap.kind = FaultKind::StageTrafficInflation;
            octomap.probability = 0.3;
            octomap.stage = "OctoMap";
            octomap.ceilingIndex = 0;
            // 4x pushes the mapping stage's DRAM roof below the
            // NEON compute roof on the TX2-class families, so the
            // stage actually flips memory-bound when active.
            octomap.trafficFactor = 4.0;
            FaultSpec slam;
            slam.name = "SLAM feature-track spill to DRAM";
            slam.kind = FaultKind::StageTrafficInflation;
            slam.probability = 0.2;
            slam.stage = "SLAM";
            slam.ceilingIndex = 0;
            slam.trafficFactor = 8.0;
            suite.faults = {octomap, slam};
            out.push_back(std::move(suite));
        }

        {
            FaultSuite suite;
            suite.name = "mixed";
            suite.description =
                "all three layers at once: derated accelerator, "
                "thermal throttle, and a degraded sensor stream";
            FaultSpec gpu;
            gpu.name = "accelerator half peak";
            gpu.kind = FaultKind::CeilingDerate;
            gpu.probability = 0.2;
            gpu.ceilingKind = platform::CeilingKind::Compute;
            gpu.ceilingIndex = 2;
            gpu.derate = 0.5;
            FaultSpec throttle;
            throttle.name = "thermal throttle to DVFS floor";
            throttle.kind = FaultKind::ThermalThrottle;
            throttle.probability = 0.15;
            FaultSpec sensor;
            sensor.name = "sensor stream half rate";
            sensor.kind = FaultKind::SensorDropout;
            sensor.probability = 0.2;
            sensor.sensorDerate = 0.5;
            suite.faults = {gpu, throttle, sensor};
            out.push_back(std::move(suite));
        }

        for (const FaultSuite &suite : out)
            for (const FaultSpec &spec : suite.faults)
                validateFaultSpec(spec);
        return out;
    }();
    return suites;
}

const FaultSuite &
findFaultSuite(const std::string &name)
{
    const std::vector<FaultSuite> &suites = standardFaultSuites();
    for (const FaultSuite &suite : suites) {
        if (suite.name == name)
            return suite;
    }
    std::vector<std::string> names;
    names.reserve(suites.size());
    for (const FaultSuite &suite : suites)
        names.push_back(suite.name);
    std::string message = "unknown fault suite '" + name +
                          "'; suites: " + join(names, ", ");
    const std::vector<std::string> hints =
        closestMatches(name, names);
    if (!hints.empty())
        message += " (did you mean " + join(hints, " or ") + "?)";
    throw ModelError(message);
}

} // namespace uavf1::fault
