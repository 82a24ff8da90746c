/**
 * @file
 * Benchmark inputs and result digests.
 */

#include "inputs.hh"

#include <stdexcept>
#include <string>

#include "components/catalog.hh"
#include "skyline/session.hh"
#include "studies/presets.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace perfbench {

using namespace uavf1;

scenario::ScenarioSpec
faultScenario(const FaultCase &fault_case, const Env &env)
{
    scenario::ScenarioSpec spec;
    spec.study = "faults";
    spec.label = std::string("faults-") + fault_case.suite;
    spec.overrides.set("fault", fault_case.suite);
    spec.overrides.set("platform", fault_case.platform);
    spec.overrides.set("samples", std::to_string(env.samples()));
    spec.overrides.set("levels", std::to_string(faultLevels));
    spec.overrides.set("seed", std::to_string(env.inputSeed));
    return spec;
}

fault::CampaignSpec
faultCampaignSpec(const FaultCase &fault_case)
{
    // Mirrors the faults study at default knobs: the session picks
    // the nominal inputs and algorithm, stage-resolved suites add
    // the MAVBench pipeline under dual-modular redundancy.
    skyline::SkylineSession session;
    session.set("platform", fault_case.platform);
    const auto machine = session.rooflinePlatform();
    if (!machine)
        throw std::runtime_error("no roofline preset for the campaign");
    const fault::FaultSuite &suite =
        fault::findFaultSuite(fault_case.suite);
    bool stage_faults = false;
    for (const auto &spec : suite.faults) {
        stage_faults =
            stage_faults ||
            spec.kind == fault::FaultKind::StageFailure ||
            spec.kind == fault::FaultKind::StageLatencyInflation ||
            spec.kind == fault::FaultKind::StageCeilingDerate ||
            spec.kind == fault::FaultKind::StageTrafficInflation;
    }
    const auto algorithms = workload::annotatedAlgorithms();
    const workload::AutonomyAlgorithm &algorithm =
        algorithms.byName(session.knobs().algorithm);

    fault::CampaignSpec spec;
    spec.nominal = session.model().inputs();
    spec.platform = machine;
    spec.profile = workload::workloadProfile(algorithm, *machine);
    spec.workPerFrameGop = algorithm.workPerFrameGop();
    spec.opIndex = session.knobs().operatingPoint.empty()
                       ? 0
                       : machine->operatingPointIndex(
                             session.knobs().operatingPoint);
    if (stage_faults) {
        spec.pipeline =
            workload::SpaPipeline::mavbenchPackageDeliveryTx2();
        spec.redundancy = pipeline::RedundancyScheme::Dual;
    }
    spec.faults = suite.faults;
    return spec;
}

sim::UncertaintySpec
pipelineUncertainty()
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = components::Catalog::standard().rooflines().byName(
        "TX2-CPU + Navion");
    spec.pipeline = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.aiRelStd = 0.10;
    return spec;
}

sim::UncertaintySpec
platformUncertainty()
{
    const auto machine =
        components::Catalog::standard().rooflines().byName("Nvidia TX2");
    const auto algorithms = workload::annotatedAlgorithms();
    const workload::AutonomyAlgorithm &dronet =
        algorithms.byName("DroNet");
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = machine;
    spec.profile = workload::workloadProfile(dronet, machine);
    spec.workPerFrameGop = dronet.workPerFrameGop();
    spec.aiRelStd = 0.5;
    return spec;
}

namespace {

void
addDistribution(Digest &digest, const sim::Distribution &d)
{
    digest.add(d.mean);
    digest.add(d.stddev);
    digest.add(d.p5);
    digest.add(d.p50);
    digest.add(d.p95);
}

void
addStageBindings(Digest &digest,
                 const std::vector<sim::StageBindingStats> &stages)
{
    digest.add(static_cast<std::uint64_t>(stages.size()));
    for (const auto &s : stages) {
        digest.add(s.stage);
        digest.add(s.probComputeBound);
        digest.add(s.probMemoryBound);
        digest.add(s.probMeasured);
    }
}

} // namespace

std::uint64_t
digestOf(const fault::CampaignResult &result)
{
    Digest digest;
    addDistribution(digest, result.safeVelocity);
    digest.add(result.abortProbability);
    digest.add(result.faultActivationRate);
    digest.add(result.probComputeCeilingBinds);
    digest.add(result.probMemoryCeilingBinds);
    addStageBindings(digest, result.stageBindings);
    digest.add(static_cast<std::uint64_t>(result.samples));
    return digest.value();
}

std::uint64_t
digestOf(const sim::UncertaintyResult &result)
{
    Digest digest;
    addDistribution(digest, result.safeVelocity);
    addDistribution(digest, result.kneeThroughput);
    addDistribution(digest, result.roofVelocity);
    digest.add(result.probComputeBound);
    digest.add(result.probSensorBound);
    digest.add(result.probControlBound);
    digest.add(result.probPhysicsBound);
    digest.add(result.probComputeCeilingBinds);
    digest.add(result.probMemoryCeilingBinds);
    addStageBindings(digest, result.stageBindings);
    digest.add(static_cast<std::uint64_t>(result.samples));
    return digest.value();
}

void
addStudyResult(Digest &digest, const scenario::StudyResult &result)
{
    digest.add(result.summary);
    for (const auto &metric : result.metrics) {
        digest.add(metric.name);
        digest.add(metric.value);
        digest.add(metric.unit);
    }
    for (const auto &series : result.series) {
        digest.add(series.name());
        for (const auto &point : series.points()) {
            digest.add(point.x);
            digest.add(point.y);
        }
    }
}

double
studyMetric(const scenario::StudyResult &result, const std::string &name)
{
    for (const auto &metric : result.metrics) {
        if (metric.name == name)
            return metric.value;
    }
    throw std::runtime_error("study result has no metric " + name);
}

} // namespace perfbench
