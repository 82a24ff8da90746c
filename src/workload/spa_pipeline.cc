/**
 * @file
 * SpaPipeline implementation.
 */

#include "workload/spa_pipeline.hh"

#include "support/errors.hh"
#include "support/strings.hh"
#include "support/validate.hh"

namespace uavf1::workload {

SpaPipeline::SpaPipeline(std::string name, std::vector<SpaStage> stages,
                         std::string measured_on)
    : _name(std::move(name)),
      _stages(std::move(stages)),
      _measuredOn(std::move(measured_on))
{
    if (_stages.empty())
        throw ModelError("SPA pipeline requires at least one stage");
    for (const auto &stage : _stages) {
        requirePositive(stage.latency.value(),
                        "latency of SPA stage '" + stage.name + "'");
        if (stage.workGop < 0.0 || stage.megabytes < 0.0) {
            throw ModelError("SPA stage '" + stage.name +
                             "' has a negative roofline annotation");
        }
        if ((stage.workGop > 0.0) != (stage.megabytes > 0.0)) {
            throw ModelError(
                "SPA stage '" + stage.name +
                "' annotation requires both workGop and megabytes");
        }
    }
}

std::vector<std::string>
SpaPipeline::stageNames() const
{
    std::vector<std::string> names;
    names.reserve(_stages.size());
    for (const auto &stage : _stages)
        names.push_back(stage.name);
    return names;
}

bool
SpaPipeline::hasStage(const std::string &stage_name) const
{
    for (const auto &stage : _stages) {
        if (stage.name == stage_name)
            return true;
    }
    return false;
}

units::Seconds
SpaPipeline::totalLatency() const
{
    units::Seconds total;
    for (const auto &stage : _stages)
        total += stage.latency;
    return total;
}

units::Hertz
SpaPipeline::throughput() const
{
    return units::rate(totalLatency());
}

SpaPipeline
SpaPipeline::withStageLatency(const std::string &stage_name,
                              units::Seconds latency,
                              const std::string &tag) const
{
    requirePositive(latency.value(), "latency");
    std::vector<SpaStage> stages = _stages;
    bool found = false;
    for (auto &stage : stages) {
        if (stage.name == stage_name) {
            stage.latency = latency;
            found = true;
        }
    }
    if (!found) {
        std::string message = "SPA pipeline '" + _name +
                              "' has no stage '" + stage_name + "'";
        const auto hints = closestMatches(stage_name, stageNames());
        if (!hints.empty())
            message += " (did you mean " + join(hints, " or ") + "?)";
        throw ModelError(message);
    }
    return SpaPipeline(_name + tag, std::move(stages), _measuredOn);
}

SpaPipeline
SpaPipeline::mavbenchPackageDeliveryTx2()
{
    // Stage split calibrated to the paper's two anchors:
    // total = 909 ms (1.1 Hz on TX2, Section VI-B) and
    // total with Navion SLAM = 810 ms (1.23 Hz, Section VII).
    // SLAM must therefore contribute 909 - 810 + 5.8 = 104.8 ms; the
    // rest of the split follows MAVBench's published stage profile
    // (mapping and planning dominate).
    //
    // The SLAM stage carries a roofline annotation calibrated so
    // Navion's stage-gated 200 GOPS VIO ceiling reproduces the
    // accelerator's 172 FPS kernel exactly: work = 200/172 GOP per
    // decision at a VIO-typical AI of 8 ops/byte, with 5% of the
    // traffic reaching DRAM (feature tracks are cache-resident, only
    // keyframes spill).
    SpaStage slam{"SLAM", units::Seconds(0.1048)};
    slam.workGop = 200.0 / 172.0;
    slam.megabytes = (200.0 / 172.0) * 1000.0 / 8.0;
    slam.traits.stage = "SLAM";
    slam.traits.levelTraffic = {{"LPDDR4 DRAM", 0.05}};

    // The host stages carry annotations calibrated against the TX2
    // CPU roofs, with modeled bounds a hair *below* the measured
    // latencies — so on the measured platform the measurement stays
    // the binding floor at every operating point (the model/measured
    // ratio is clock-invariant), while foreign platforms get a real
    // per-stage model instead of an unscalable constant.
    //
    // OctoMap ray-casting vectorizes (NEON, 170 GOPS): 51.7 GOP per
    // decision at AI 4 ops/byte, half the stream reaching DRAM
    // (voxel updates mostly hit in cache) -> 51.7/170 = 304.1 ms.
    SpaStage octomap{"OctoMap", units::Seconds(0.3042)};
    octomap.workGop = 51.7;
    octomap.megabytes = 51.7 * 1000.0 / 4.0;
    octomap.traits.targets = {platform::ComputeTarget::Scalar,
                              platform::ComputeTarget::Simd};
    octomap.traits.levelTraffic = {{"LPDDR4 DRAM", 0.5}};

    // Path planning is branchy pointer-chasing: scalar-only
    // (42 GOPS), 16.79 GOP per decision at AI 1 op/byte with 70% of
    // the stream spilling to DRAM -> 16.79/42 = 399.76 ms.
    SpaStage planner{"Path planner", units::Seconds(0.4000)};
    planner.workGop = 16.79;
    planner.megabytes = 16.79 * 1000.0 / 1.0;
    planner.traits.targets = {platform::ComputeTarget::Scalar};
    planner.traits.levelTraffic = {{"LPDDR4 DRAM", 0.7}};

    // Command tracking is small scalar control math: 4.199 GOP per
    // decision at AI 2 ops/byte, 30% DRAM -> 4.199/42 = 99.98 ms.
    SpaStage tracking{"Command tracking", units::Seconds(0.1000)};
    tracking.workGop = 4.199;
    tracking.megabytes = 4.199 * 1000.0 / 2.0;
    tracking.traits.targets = {platform::ComputeTarget::Scalar};
    tracking.traits.levelTraffic = {{"LPDDR4 DRAM", 0.3}};

    return SpaPipeline(
        "MAVBench package delivery (TX2)",
        {slam, octomap, planner, tracking},
        "Nvidia TX2");
}

units::Seconds
SpaPipeline::navionSlamLatency()
{
    return units::Seconds(1.0 / 172.0);
}

std::optional<SpaPipeline>
standardPipelineFor(const std::string &algorithm_name)
{
    if (algorithm_name == "SPA package delivery")
        return SpaPipeline::mavbenchPackageDeliveryTx2();
    return std::nullopt;
}

const components::Registry<SpaPipeline> &
standardPipelines()
{
    // Immutable and deterministic, so the C++11 thread-safe static
    // init makes concurrent readers safe.
    static const components::Registry<SpaPipeline> pipelines = [] {
        components::Registry<SpaPipeline> registry;
        registry.add(SpaPipeline::mavbenchPackageDeliveryTx2());
        registry.add(
            SpaPipeline::mavbenchPackageDeliveryTx2()
                .withStageLatency("SLAM",
                                  SpaPipeline::navionSlamLatency(),
                                  " + Navion SLAM"));
        return registry;
    }();
    return pipelines;
}

} // namespace uavf1::workload
