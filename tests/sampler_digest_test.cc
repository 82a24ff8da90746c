/**
 * @file
 * Pins every result bit of the two samplers no run-all artifact
 * covers: MonteCarloAnalyzer::run on its three evaluation paths and
 * FaultCampaign::sweepSeverity over every standard fault suite. Each
 * result field is one entry of tests/golden/samplers.digest; a change
 * that moves any bit of one fails here, names the entry and prints
 * the regenerated file.
 *
 * The counts are odd, so partial blocks and partial sub-batches run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "components/catalog.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "golden_digest.hh"
#include "pipeline/redundancy.hh"
#include "sim/monte_carlo.hh"
#include "studies/presets.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;

constexpr std::size_t kSamples = 20003;
constexpr std::size_t kLevels = 5;
constexpr std::uint64_t kSeed = 29;

/** The bytes of one entry: doubles by bit pattern, little-endian. */
struct Bytes
{
    std::string out;

    Bytes &add(std::uint64_t bits)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>(bits >> (8 * i)));
        return *this;
    }
    Bytes &add(double x) { return add(std::bit_cast<std::uint64_t>(x)); }
    Bytes &add(const std::vector<double> &xs)
    {
        add(std::uint64_t{xs.size()});
        for (const double x : xs)
            add(x);
        return *this;
    }
    Bytes &add(const std::string &s)
    {
        add(std::uint64_t{s.size()});
        out += s;
        return *this;
    }
    Bytes &add(const sim::Distribution &d)
    {
        return add(d.mean).add(d.stddev).add(d.p5).add(d.p50).add(d.p95);
    }
    Bytes &add(const std::vector<sim::StageBindingStats> &stages)
    {
        add(std::uint64_t{stages.size()});
        for (const auto &s : stages) {
            add(s.stage).add(s.probComputeBound).add(s.probMemoryBound);
            add(s.probMeasured);
        }
        return *this;
    }
};

/** The spec on perfbench's flat-platform uncertainty workload. */
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

/** The spec on perfbench's pipeline uncertainty workload. */
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

/**
 * A campaign of `suite` on the configuration it needs: DroNet on the
 * TX2, except ecc-fallback on TX2-CPU + Navion, whose SLAM
 * accelerator it demotes; plus the MAVBench pipeline under
 * dual-modular redundancy when a fault names a stage, as the faults
 * study configures it.
 */
fault::CampaignSpec
suiteCampaign(const fault::FaultSuite &suite)
{
    const auto machine = components::Catalog::standard().rooflines().byName(
        suite.name == "ecc-fallback" ? "TX2-CPU + Navion" : "Nvidia TX2");
    const auto algorithms = workload::annotatedAlgorithms();
    const workload::AutonomyAlgorithm &dronet =
        algorithms.byName("DroNet");
    fault::CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = machine;
    spec.profile = workload::workloadProfile(dronet, machine);
    spec.workPerFrameGop = dronet.workPerFrameGop();
    for (const fault::FaultSpec &fault : suite.faults) {
        if (!fault.stage.empty()) {
            spec.pipeline =
                workload::SpaPipeline::mavbenchPackageDeliveryTx2();
            spec.redundancy = pipeline::RedundancyScheme::Dual;
        }
    }
    spec.faults = suite.faults;
    return spec;
}

TEST(SamplerDigest, ResultsMatchTheGoldenDigest)
{
    std::vector<std::string> lines;
    const auto entry = [&](const std::string &name, const Bytes &bytes) {
        lines.push_back(test::digestLine(name, bytes.out));
    };

    sim::UncertaintySpec legacy;
    legacy.nominal = studies::pelicanInputs(units::Hertz(55.0));
    const std::pair<const char *, sim::UncertaintySpec> specs[] = {
        {"legacy", legacy},
        {"platform", platformUncertainty()},
        {"pipeline", pipelineUncertainty()},
    };
    for (const auto &[path, spec] : specs) {
        const sim::UncertaintyResult r =
            sim::MonteCarloAnalyzer(spec).run(kSamples, kSeed);
        const std::string at = std::string("mc.") + path + ".";
        entry(at + "safeVelocity", Bytes().add(r.safeVelocity));
        entry(at + "kneeThroughput", Bytes().add(r.kneeThroughput));
        entry(at + "roofVelocity", Bytes().add(r.roofVelocity));
        entry(at + "boundProbabilities",
              Bytes()
                  .add(r.probComputeBound)
                  .add(r.probSensorBound)
                  .add(r.probControlBound)
                  .add(r.probPhysicsBound));
        entry(at + "probComputeCeilingBinds",
              Bytes().add(r.probComputeCeilingBinds));
        entry(at + "probMemoryCeilingBinds",
              Bytes().add(r.probMemoryCeilingBinds));
        entry(at + "stageBindings", Bytes().add(r.stageBindings));
        entry(at + "samples", Bytes().add(std::uint64_t{r.samples}));
    }

    for (const fault::FaultSuite &suite : fault::standardFaultSuites()) {
        const fault::FaultCampaign campaign(suiteCampaign(suite));
        const fault::FaultCampaign::SeveritySweep sweep =
            campaign.sweepSeverity(kLevels, kSamples, kSeed);
        const std::string at = "faults." + suite.name + ".";
        Bytes curve;
        for (const fault::DegradationPoint &point : sweep.curve) {
            curve.add(point.scale).add(point.meanSafeVelocity);
            curve.add(point.p5SafeVelocity).add(point.p95SafeVelocity);
            curve.add(point.abortProbability);
        }
        entry(at + "curve", curve);
        const fault::CampaignResult &r = sweep.fullSeverity;
        entry(at + "safeVelocity", Bytes().add(r.safeVelocity));
        entry(at + "abortProbability", Bytes().add(r.abortProbability));
        entry(at + "faultActivationRate",
              Bytes().add(r.faultActivationRate));
        entry(at + "probComputeCeilingBinds",
              Bytes().add(r.probComputeCeilingBinds));
        entry(at + "probMemoryCeilingBinds",
              Bytes().add(r.probMemoryCeilingBinds));
        entry(at + "stageBindings", Bytes().add(r.stageBindings));
        entry(at + "samples", Bytes().add(std::uint64_t{r.samples}));
    }

    test::expectMatchesGolden(lines, UAVF1_GOLDEN_DIR "/samplers.digest");
}

} // namespace
