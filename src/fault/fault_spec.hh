/**
 * @file
 * Fault taxonomy for degraded-mode analysis.
 *
 * The paper's remedies — redundancy (Fig. 14) and trading excess
 * performance for TDP via DVFS — are claims about how a UAV
 * *degrades* when compute faults. A FaultSpec describes one such
 * perturbation at one of three layers:
 *
 *  - platform faults: a ceiling loses part of its peak/bandwidth
 *    (CeilingDerate), the selected DVFS operating point becomes
 *    unavailable (OperatingPointLoss), or thermal protection pins
 *    the part at the workload::DvfsModel floor (ThermalThrottle);
 *    the stage-scoped variants perturb one SPA stage's *view* of
 *    the ceiling family — its admitted ceilings of one target
 *    class derate (StageCeilingDerate) or its traffic fraction at
 *    one memory level inflates (StageTrafficInflation) — leaving
 *    the platform every other stage shares untouched;
 *  - workload faults: an SPA stage slows down
 *    (StageLatencyInflation) or fails outright (StageFailure),
 *    the latter surviving only through pipeline/redundancy
 *    replica takeover;
 *  - sensing faults: the sensor stream degrades (SensorDropout).
 *
 * A FaultSuite bundles named specs into a campaign scenario; the
 * standard suites cover each layer plus a mixed stress case.
 */

#ifndef UAVF1_FAULT_FAULT_SPEC_HH
#define UAVF1_FAULT_FAULT_SPEC_HH

#include <string>
#include <vector>

#include "platform/ceiling.hh"
#include "workload/dvfs.hh"

namespace uavf1::fault {

/** The perturbation a FaultSpec applies when active. */
enum class FaultKind
{
    /** Multiply one ceiling's peak/bandwidth by `derate`. */
    CeilingDerate,
    /** The selected DVFS operating point is unavailable; the
     * platform falls back to the next slower point, aborting when
     * none remains. */
    OperatingPointLoss,
    /** Thermal protection pins the clock at the DvfsModel floor
     * (dvfs.minFrequencyFraction), with the TDP the CMOS power law
     * predicts there. */
    ThermalThrottle,
    /** Multiply one SPA stage's latency by `latencyFactor`. */
    StageLatencyInflation,
    /** One SPA stage fails; survivable only while active failures
     * stay within the redundancy scheme's replica budget. */
    StageFailure,
    /** The sensor stream degrades: sensorRate is multiplied by
     * (1 - sensorDerate); a full dropout aborts the mission. */
    SensorDropout,
    /** One named stage's *admitted* ceilings of target class
     * `targetClass` derate to `derate` of their peak (0 removes the
     * class from the stage's mask outright — an accelerator in ECC
     * fallback, dropping the stage to the next roof it can use).
     * Platform-layer: the transform lowers through the stage's
     * WorkloadProfile, never the platform other stages share. */
    StageCeilingDerate,
    /** One named stage's traffic fraction at memory level
     * `ceilingIndex` is multiplied by `trafficFactor` (cache spill
     * under contention raising effective DRAM traffic). */
    StageTrafficInflation,
};

/** Printable fault-kind name. */
const char *toString(FaultKind kind);

/**
 * One fault mode: what breaks, how badly, and how often.
 *
 * Only the fields the `kind` reads are meaningful; the rest keep
 * their defaults. validateFaultSpec names any offending field.
 */
struct FaultSpec
{
    /** Diagnostic designation, e.g. "GPU half peak". */
    std::string name;

    FaultKind kind = FaultKind::CeilingDerate;

    /** Per-mission activation probability in [0, 1]. Campaigns
     * scale it (FaultCampaign probabilityScale) to sweep severity. */
    double probability = 0.0;

    /** [CeilingDerate] Which ceiling list the target lives in. */
    platform::CeilingKind ceilingKind = platform::CeilingKind::Compute;
    /** [CeilingDerate, StageTrafficInflation] Index into that
     * ceiling list (for StageTrafficInflation: the memory level
     * whose traffic fraction inflates). */
    std::size_t ceilingIndex = 0;
    /** [CeilingDerate, StageCeilingDerate] Remaining capability
     * fraction; (0, 1] for CeilingDerate, [0, 1] for
     * StageCeilingDerate (0 removes the class). */
    double derate = 1.0;

    /** [ThermalThrottle] DVFS law giving the throttle floor and the
     * power curve to it, within workload::DvfsModel's ranges. */
    workload::DvfsModel::Params dvfs{};

    /** [StageLatencyInflation, StageFailure, StageCeilingDerate,
     * StageTrafficInflation] SPA stage name. */
    std::string stage;
    /** [StageLatencyInflation] Latency multiplier, >= 1. */
    double latencyFactor = 1.0;

    /** [StageCeilingDerate] Execution-target class whose ceilings
     * derate for the stage (General is rejected: General ceilings
     * apply regardless of the mask, so removing the class would be
     * meaningless at derate 0). */
    platform::ComputeTarget targetClass =
        platform::ComputeTarget::Accelerator;
    /** [StageTrafficInflation] Traffic multiplier, in [1, 1e6]. */
    double trafficFactor = 1.0;

    /** [SensorDropout] Fraction of the sensor stream lost, in
     * [0, 1]; 1 is a full dropout (mission abort). */
    double sensorDerate = 0.0;
};

/**
 * Validate one spec's fields against its kind.
 *
 * @throws ModelError naming the offending field
 */
void validateFaultSpec(const FaultSpec &spec);

/** A named bundle of fault modes forming one campaign scenario. */
struct FaultSuite
{
    std::string name;        ///< e.g. "thermal-throttle".
    std::string description; ///< One-line summary.
    std::vector<FaultSpec> faults;
};

/**
 * The built-in suites: "none" (control; reproduces the baseline
 * byte-for-byte), one suite per fault layer, the stage-scoped
 * platform suites "ecc-fallback" (a SLAM accelerator demoted to
 * the CPU roofs) and "cache-contention" (per-stage DRAM traffic
 * inflation), and "mixed" combining all three layers.
 */
const std::vector<FaultSuite> &standardFaultSuites();

/**
 * Look up a standard suite by name.
 *
 * @throws ModelError for unknown names, with "did you mean" hints
 */
const FaultSuite &findFaultSuite(const std::string &name);

} // namespace uavf1::fault

#endif // UAVF1_FAULT_FAULT_SPEC_HH
