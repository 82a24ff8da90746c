/**
 * @file
 * Sense-Plan-Act staged pipeline (paper Sections II-E, VII).
 *
 * SPA algorithms decompose into kernels (SLAM/perception, mapping,
 * path planning, control) that execute sequentially per decision, so
 * the compute latency is the *sum* of the stage latencies — unlike
 * the sensor/compute/control pipeline of Eq. 1-3, whose stages
 * overlap. This distinction is the crux of the paper's Navion
 * analysis: a 172 FPS SLAM accelerator barely moves an 810 ms
 * end-to-end SPA pipeline.
 *
 * Each stage optionally carries a roofline annotation (per-decision
 * work, traffic and WorkloadTraits), so the per-stage evaluator
 * (workload/stage_eval.hh) can derive the stage latency from a
 * RooflinePlatform's attainable bound — with measured-first
 * semantics on the platform the pipeline was characterized on.
 */

#ifndef UAVF1_WORKLOAD_SPA_PIPELINE_HH
#define UAVF1_WORKLOAD_SPA_PIPELINE_HH

#include <optional>
#include <string>
#include <vector>

#include "components/registry.hh"
#include "units/units.hh"
#include "workload/algorithm.hh"

namespace uavf1::workload {

/**
 * One SPA stage with its per-decision latency and an optional
 * roofline annotation. An unannotated stage (the default) is a
 * pure measurement: evaluators can only report its measured
 * latency. An annotated stage additionally carries the kernel's
 * per-decision work/traffic and ceiling traits, so its latency can
 * be *modeled* as workGop / attainable(profile) on any platform —
 * which is how a stage-gated accelerator ceiling (e.g. Navion's
 * VIO ASIC) shortens exactly this stage.
 */
struct SpaStage
{
    std::string name;        ///< e.g. "SLAM", "OctoMap".
    units::Seconds latency;  ///< Measured per-decision latency.

    /** Per-decision compute work, giga-ops (0 = unannotated). */
    double workGop = 0.0;
    /** Per-decision memory traffic, megabytes (0 = unannotated). */
    double megabytes = 0.0;
    /** Ceiling annotations of this stage's kernel. The stage name
     * is used as the stage tag when traits.stage is empty. */
    WorkloadTraits traits{};

    /** True when the stage carries a usable roofline annotation. */
    bool annotated() const
    {
        return workGop > 0.0 && megabytes > 0.0;
    }

    /** Arithmetic intensity of the annotation, ops per byte. */
    units::OpsPerByte arithmeticIntensity() const
    {
        return units::OpsPerByte(workGop * 1e9 / (megabytes * 1e6));
    }
};

/**
 * A sequential stage pipeline with stage-substitution support.
 */
class SpaPipeline
{
  public:
    /**
     * @param name pipeline designation
     * @param stages per-decision stages in execution order; at least
     *        one, all latencies positive
     * @param measured_on name of the platform the stage latencies
     *        were measured on (empty: platform-agnostic, treated as
     *        valid everywhere)
     */
    SpaPipeline(std::string name, std::vector<SpaStage> stages,
                std::string measured_on = "");

    /** Pipeline designation. */
    const std::string &name() const { return _name; }

    /** Stages in execution order. */
    const std::vector<SpaStage> &stages() const { return _stages; }

    /** Platform the measured stage latencies were taken on (empty:
     * valid on any platform). */
    const std::string &measuredOn() const { return _measuredOn; }

    /** Stage names in execution order (for diagnostics). */
    std::vector<std::string> stageNames() const;

    /** True when a stage of that name exists. */
    bool hasStage(const std::string &stage_name) const;

    /** Sum of stage latencies. */
    units::Seconds totalLatency() const;

    /** End-to-end decision throughput (1 / total latency). */
    units::Hertz throughput() const;

    /**
     * Copy with one stage's latency replaced, e.g. swapping the SLAM
     * stage for the Navion accelerator.
     *
     * @param stage_name stage to replace; must exist
     * @param latency new latency; must be positive
     * @param tag appended to the pipeline name, e.g. " + Navion"
     * @throws ModelError if the stage does not exist, with
     *         prefix/edit-distance "did you mean" suggestions
     */
    SpaPipeline withStageLatency(const std::string &stage_name,
                                 units::Seconds latency,
                                 const std::string &tag) const;

    /**
     * The MAVBench package-delivery pipeline characterized on
     * Nvidia TX2 (paper Section VI-B / VII): stage latencies chosen
     * so that (a) the full pipeline runs at the paper's 1.1 Hz
     * (909 ms) and (b) replacing SLAM with Navion's 172 FPS kernel
     * yields the paper's 810 ms / 1.23 Hz. Every stage carries a
     * roofline annotation: SLAM is calibrated so the modeled bound
     * on the "TX2-CPU + Navion" preset's stage-gated VIO ceiling is
     * exactly Navion's 172 FPS kernel, and the host stages
     * (OctoMap, Path planner, Command tracking) are calibrated
     * against the TX2 CPU roofs with modeled bounds just below the
     * measurements — so on the measured platform the measurements
     * remain binding at every operating point.
     */
    static SpaPipeline mavbenchPackageDeliveryTx2();

    /** Navion's measured SLAM kernel latency (172 FPS). */
    static units::Seconds navionSlamLatency();

  private:
    std::string _name;
    std::vector<SpaStage> _stages;
    std::string _measuredOn;
};

/**
 * The standard stage pipeline behind a catalog SPA algorithm, or
 * nothing for algorithms without a published stage breakdown.
 * Currently "SPA package delivery" maps to
 * SpaPipeline::mavbenchPackageDeliveryTx2().
 */
std::optional<SpaPipeline>
standardPipelineFor(const std::string &algorithm_name);

/**
 * Name-keyed registry of the standard stage pipelines, for sessions
 * that select a pipeline explicitly (the `pipeline=` knob) instead
 * of through the algorithm mapping. Built once per process; entries:
 *
 *   - "MAVBench package delivery (TX2)" — the measured baseline
 *   - "MAVBench package delivery (TX2) + Navion SLAM" — the paper's
 *     Section VII what-if, SLAM swapped for Navion's 172 FPS kernel
 *
 * Unknown lookups throw ModelError with "did you mean" suggestions.
 */
const components::Registry<SpaPipeline> &standardPipelines();

} // namespace uavf1::workload

#endif // UAVF1_WORKLOAD_SPA_PIPELINE_HH
