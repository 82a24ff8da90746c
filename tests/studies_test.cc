/**
 * @file
 * The calibrated presets and the studies' parameter plumbing, with
 * every study run through the registry as run-all runs it (the
 * integration test asserts the headline numbers).
 */

#include <gtest/gtest.h>

#include "components/catalog.hh"
#include "scenario/runner.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::scenario;
using studies::nanoInputs;
using studies::pelicanInputs;
using studies::sparkInputs;

/** Run one study with an optional `key=value` override. */
ScenarioOutcome
runStudy(const std::string &name, const std::string &assignment = "")
{
    ScenarioSpec spec;
    spec.study = name;
    for (const auto &parsed : parseAssignments(assignment))
        spec.apply(parsed);
    return ScenarioRunner().run(spec);
}

TEST(Presets, CalibratedKnees)
{
    // The presets' whole point: the paper's quoted knees.
    EXPECT_NEAR(core::F1Model(pelicanInputs(units::Hertz(178.0)))
                    .analyze()
                    .kneeThroughput.value(),
                43.0, 0.2);
    EXPECT_NEAR(core::F1Model(sparkInputs(units::Hertz(178.0)))
                    .analyze()
                    .kneeThroughput.value(),
                30.0, 0.1);
    EXPECT_NEAR(core::F1Model(nanoInputs(units::Hertz(6.0)))
                    .analyze()
                    .kneeThroughput.value(),
                26.0, 0.1);
}

TEST(Presets, SensorAndControlRates)
{
    const core::F1Inputs inputs = pelicanInputs(units::Hertz(55.0));
    EXPECT_DOUBLE_EQ(inputs.sensorRate.value(), 60.0);
    EXPECT_DOUBLE_EQ(inputs.controlRate.value(), 1000.0);
    EXPECT_DOUBLE_EQ(inputs.computeRate.value(), 55.0);
}

TEST(Fig05Study, SweepSampleCountRespected)
{
    const auto outcome = runStudy("fig05", "sweep_samples=32");
    ASSERT_TRUE(outcome.ok) << outcome.error;
    const auto &sweep = outcome.result.series[0].points();
    EXPECT_EQ(sweep.size(), 32u);
    EXPECT_GT(sweep.front().x, sweep.back().x);
}

TEST(Fig09Study, CustomSampleCount)
{
    const auto outcome = runStudy("fig09", "sweep_samples=21");
    ASSERT_TRUE(outcome.ok) << outcome.error;
    const auto &sweep = outcome.result.series[0].points();
    EXPECT_EQ(sweep.size(), 21u);
    EXPECT_DOUBLE_EQ(sweep.front().x, 100.0);
    EXPECT_DOUBLE_EQ(sweep.back().x, 800.0);
}

TEST(Fig09Study, RejectsDegenerateSampleCountsByName)
{
    // sweep_samples == 1 used to divide by zero in the payload
    // interpolation; 0 and 1 must both fail naming the parameter.
    for (const char *assignment : {"sweep_samples=0", "sweep_samples=1"}) {
        const auto outcome = runStudy("fig09", assignment);
        EXPECT_EQ(outcome.status, ScenarioStatus::Error) << assignment;
        EXPECT_NE(outcome.error.find("sweep_samples"), std::string::npos)
            << outcome.error;
    }
}

TEST(Fig11Study, EveryOptionHasARoof)
{
    const StudyResult result = runStudy("fig11").result;
    for (const char *roof : {"ncs_roof", "agx30_roof", "agx15_roof"})
        EXPECT_GT(result.metric(roof), 0.0) << roof;
}

TEST(Fig11Study, Agx15WShedsHalfTheHeatsink)
{
    const StudyResult result = runStudy("fig11").result;
    EXPECT_NEAR(result.metric("agx30_heatsink") -
                    result.metric("agx15_heatsink"),
                81.0, 1.0);
    // Throughput identical by construction of the what-if.
    const auto &options = result.series[0].points(); // NCS, 30, 15 W.
    EXPECT_DOUBLE_EQ(options[2].x, options[1].x);
}

TEST(Fig13Study, ActionRatesOnThePelicanPreset)
{
    const auto oracle = workload::ThroughputOracle::standard();
    const auto analyze = [&](const char *algorithm) {
        return core::F1Model(
                   pelicanInputs(oracle.measured(algorithm, "Nvidia TX2")))
            .analyze();
    };
    EXPECT_NEAR(analyze("DroNet").actionThroughput.value(), 60.0,
                1e-9); // Sensor-capped.
    EXPECT_NEAR(analyze("SPA package delivery").actionThroughput.value(),
                1.1, 1e-9);
    EXPECT_THROW(oracle.measured("AlphaPilot", "Nvidia TX2"), ModelError);
    EXPECT_EQ(runStudy("fig13").result.metric("SPA package delivery_v_safe"),
              analyze("SPA package delivery").safeVelocity.value());
}

TEST(Fig14Study, RedundancyLowersVelocity)
{
    const StudyResult result = runStudy("fig14").result;
    EXPECT_GT(result.metric("single_v_safe"), result.metric("dual_v_safe"));
}

TEST(Fig15Study, ThroughputsCarryProvenance)
{
    // DroNet on TX2 is measured; CAD2RL on TX2 is a roofline bound.
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    const auto source = [&](const char *algorithm) {
        return workload::ThroughputOracle::standard()
            .throughput(algorithms.byName(algorithm),
                        catalog.computes().byName("Nvidia TX2"))
            .source;
    };
    EXPECT_EQ(source("DroNet"), workload::ThroughputSource::Measured);
    EXPECT_EQ(source("CAD2RL"), workload::ThroughputSource::RooflineBound);
}

TEST(Fig15Study, SparkAndPelicanDifferInKnee)
{
    const StudyResult result = runStudy("fig15").result;
    EXPECT_GT(result.metric("pelican_knee"), result.metric("spark_knee"));
    // Same algorithm/compute pair classifies independently per UAV.
    const units::Hertz vgg16 =
        workload::ThroughputOracle::standard().measured("VGG16",
                                                        "Nvidia TX2");
    EXPECT_NE(core::F1Model(pelicanInputs(vgg16))
                  .analyze()
                  .kneeThroughput.value(),
              core::F1Model(sparkInputs(vgg16))
                  .analyze()
                  .kneeThroughput.value());
}

TEST(Fig16Study, NavionChangesOnlyTheSlamStage)
{
    const auto host = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    const auto navion = host.withStageLatency(
        "SLAM", workload::SpaPipeline::navionSlamLatency(), " + Navion");
    ASSERT_EQ(host.stages().size(), 4u);
    ASSERT_EQ(navion.stages().size(), 4u);
    EXPECT_LT(navion.stages()[0].latency.value(),
              host.stages()[0].latency.value());
    for (std::size_t i = 1; i < host.stages().size(); ++i) {
        EXPECT_DOUBLE_EQ(host.stages()[i].latency.value(),
                         navion.stages()[i].latency.value());
    }
    EXPECT_EQ(runStudy("fig16").result.metric("navion_latency"),
              navion.totalLatency().value() * 1000.0);
}

} // namespace
