/**
 * @file
 * The benchmark's inputs, shared by the workloads and the layer
 * probes: the fault scenarios and Monte-Carlo specs, plus digests of
 * the library's result records for the output checks.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>

#include "common.hh"
#include "fault/campaign.hh"
#include "scenario/spec.hh"
#include "scenario/study.hh"
#include "sim/monte_carlo.hh"

namespace perfbench {

/** One `faults` study scenario of the fault-campaign workload. */
struct FaultCase
{
    const char *suite;    ///< Standard fault suite.
    const char *platform; ///< Roofline preset.
};

/** The flat platform plus sensor path, and the per-(mask, stage)
 * table path. */
inline constexpr FaultCase faultCases[] = {
    {"mixed", "Nvidia TX2"},
    {"ecc-fallback", "TX2-CPU + Navion"},
};

/** Degradation-curve levels of every fault scenario. */
inline constexpr std::size_t faultLevels = 9;

/** The `faults` study spec for one case at the run's size and seed. */
uavf1::scenario::ScenarioSpec faultScenario(const FaultCase &fault_case,
                                            const Env &env);

/**
 * The campaign the `faults` study builds for one case at default
 * session knobs — rebuilt here through the public API so the probes
 * can time its constructor, run() and runReference() separately. The
 * fault-campaign workload checks once per run that it reproduces the
 * study's own result.
 */
uavf1::fault::CampaignSpec faultCampaignSpec(const FaultCase &fault_case);

/** Monte-Carlo pipeline path: "TX2-CPU + Navion" running the MAVBench
 * package-delivery pipeline, aiRelStd 0.10. */
uavf1::sim::UncertaintySpec pipelineUncertainty();

/** Monte-Carlo flat-platform path: annotated DroNet on "Nvidia TX2",
 * aiRelStd 0.5. */
uavf1::sim::UncertaintySpec platformUncertainty();

/** Digest of every field of a campaign result. */
std::uint64_t digestOf(const uavf1::fault::CampaignResult &result);

/** Digest of every field of a Monte-Carlo result. */
std::uint64_t digestOf(const uavf1::sim::UncertaintyResult &result);

/** Add every metric and series point of a study result. */
void addStudyResult(Digest &digest,
                    const uavf1::scenario::StudyResult &result);

/** Value of a named study metric; throws when absent. */
double studyMetric(const uavf1::scenario::StudyResult &result,
                   const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
