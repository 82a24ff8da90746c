/**
 * @file
 * Integration tests: every headline quantity the paper reports,
 * asserted end to end on the registered studies' metrics and series.
 * A bound classification no metric carries is recomputed here from
 * the presets or the study's component build, pinned to the study's
 * own number first.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "components/catalog.hh"
#include "core/uav_config.hh"
#include "scenario/runner.hh"
#include "studies/presets.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::scenario;
using core::BoundType;

StudyResult
runStudy(const std::string &name)
{
    ScenarioSpec spec;
    spec.study = name;
    const ScenarioOutcome outcome = ScenarioRunner().run(spec);
    EXPECT_TRUE(outcome.ok) << name << ": " << outcome.error;
    return outcome.result;
}

/** F-1 analysis of a preset at a measured or roofline throughput. */
core::F1Analysis
analyze(core::F1Inputs (*preset)(units::Hertz), const char *algorithm,
        const char *compute)
{
    const auto catalog = components::Catalog::standard();
    return core::F1Model(
               preset(workload::ThroughputOracle::standard()
                          .throughput(workload::standardAlgorithms()
                                          .byName(algorithm),
                                      catalog.computes().byName(compute))
                          .value))
        .analyze();
}

TEST(Fig02, SwapTaxonomyMatchesPaper)
{
    const StudyResult result = runStudy("fig02");
    EXPECT_DOUBLE_EQ(result.metric("nano_capacity"), 240.0);
    EXPECT_DOUBLE_EQ(result.metric("nano_endurance"), 6.0);
    EXPECT_DOUBLE_EQ(result.metric("micro_capacity"), 1300.0);
    EXPECT_DOUBLE_EQ(result.metric("mini_capacity"), 3830.0);
    EXPECT_DOUBLE_EQ(result.metric("mini_endurance"), 30.0);
    // Implied power draw grows with size class.
    EXPECT_LT(result.metric("nano_implied_draw"),
              result.metric("micro_implied_draw"));
    EXPECT_LT(result.metric("micro_implied_draw"),
              result.metric("mini_implied_draw"));
}

TEST(Fig05, SafetyModelDerivation)
{
    const StudyResult result = runStudy("fig05");
    // Paper: "as T_action -> 0, the velocity -> 32" (sqrt(1000)).
    EXPECT_NEAR(result.metric("roof_velocity"), 31.62, 0.01);
    // Point A at 1 Hz ~ 10 m/s; knee region at 100 Hz ~ 30 m/s.
    EXPECT_NEAR(result.metric("velocity_at_1hz"), 9.16, 0.05);
    EXPECT_NEAR(result.metric("velocity_at_100hz"), 31.13, 0.05);
    // "100x improvement in action throughput translates to ~3x
    // velocity" (10 -> 30 m/s).
    EXPECT_NEAR(result.metric("gain_a_to_knee"), 3.4, 0.1);
    // Beyond the knee, another 100x gains almost nothing.
    EXPECT_LT(result.metric("gain_beyond_knee"), 1.02);
    // T grows along the sweep, so f_action falls and v_safe with it.
    const auto &sweep = result.series[0].points();
    ASSERT_EQ(sweep.size(), 128u);
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_LT(sweep[i].x, sweep[i - 1].x);
        EXPECT_LE(sweep[i].y, sweep[i - 1].y);
    }
}

TEST(Fig07, ValidationErrorsInPaperBand)
{
    // The paper reports 5.1% - 9.5% model-vs-flight error, with the
    // model optimistic. Our simulated flights must reproduce the
    // structure: positive error, single-digit to low-teens, for all
    // four builds.
    const StudyResult result = runStudy("fig07");
    ASSERT_EQ(result.series.size(), 4u);
    for (const char *uav : {"UAV-A", "UAV-B", "UAV-C", "UAV-D"}) {
        const std::string name = uav;
        EXPECT_GT(result.metric(name + "_observed"), 0.0) << uav;
        EXPECT_GT(result.metric(name + "_error"), 0.0)
            << uav << ": model must be optimistic";
        EXPECT_LT(result.metric(name + "_error"), 20.0) << uav;
    }
    // Velocity ordering matches the paper: A > C > D > B.
    EXPECT_GT(result.metric("UAV-A_observed"),
              result.metric("UAV-C_observed"));
    EXPECT_GT(result.metric("UAV-C_observed"),
              result.metric("UAV-D_observed"));
    EXPECT_GT(result.metric("UAV-D_observed"),
              result.metric("UAV-B_observed"));
}

TEST(Fig09, PayloadVelocityNonLinearity)
{
    const StudyResult result = runStudy("fig09");
    // Monotone decreasing sweep of 141 points.
    const auto &sweep = result.series[0].points();
    ASSERT_EQ(sweep.size(), 141u);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_LT(sweep[i].y, sweep[i - 1].y);
    // The paper's qualitative claim: equal 50 g increments produce
    // unequal drops, and the 210 g heavier UpBoard build loses
    // disproportionately more.
    const double a_to_c = result.metric("drop_a_to_c");
    const double c_to_d = result.metric("drop_c_to_d");
    EXPECT_GT(a_to_c, 0.0);
    EXPECT_GT(c_to_d, 0.0);
    EXPECT_NE(std::round(a_to_c * 10.0), std::round(c_to_d * 10.0));
    EXPECT_GT(result.metric("drop_a_to_b"), a_to_c + c_to_d);
    // Velocities of the four builds in the paper's low-single-digit
    // regime.
    const auto &markers = result.series[1].points();
    ASSERT_EQ(markers.size(), 4u);
    for (const auto &marker : markers) {
        EXPECT_GT(marker.y, 0.5);
        EXPECT_LT(marker.y, 5.0);
    }
}

TEST(Fig11, ComputeChoiceOnSpark)
{
    const StudyResult result = runStudy("fig11");
    // Paper: DroNet at 150 Hz (NCS), 230 Hz (AGX).
    EXPECT_DOUBLE_EQ(result.metric("ncs_throughput"), 150.0);
    EXPECT_DOUBLE_EQ(result.metric("agx30_throughput"), 230.0);
    // AGX-30W: 162 g heatsink; 81 g at 15 W.
    EXPECT_NEAR(result.metric("agx30_heatsink"), 162.0, 0.5);
    EXPECT_NEAR(result.metric("agx15_heatsink"), 81.0, 0.5);
    // Headline: despite 1.5x more throughput, the AGX loses --
    // physics restricts it; NCS has the higher roofline.
    EXPECT_EQ(result.metric("ncs_wins"), 1.0);
    EXPECT_GT(result.metric("ncs_roof"), result.metric("agx30_roof"));
    // Headline: dropping AGX TDP 30 W -> 15 W raises the roofline
    // by ~75%.
    EXPECT_NEAR(result.metric("agx_tdp_gain"), 1.75, 0.02);

    // Both options are physics-bound (past their knees), and the NCS
    // needs no heatsink: the Spark build, rebuilt here.
    const auto catalog = components::Catalog::standard();
    for (const char *compute : {"Intel NCS", "Nvidia AGX"}) {
        core::UavConfig::Builder builder(compute);
        builder.airframe(catalog.airframes().byName("DJI Spark"))
            .sensor(catalog.sensors().byName("60FPS camera (6m)"))
            .compute(catalog.computes().byName(compute))
            .algorithm(workload::standardAlgorithms().byName("DroNet"));
        const core::UavConfig config = builder.build();
        const core::F1Analysis analysis = config.f1Model().analyze();
        EXPECT_EQ(analysis.roofVelocity.value(),
                  result.metric(compute == std::string("Intel NCS")
                                    ? "ncs_roof"
                                    : "agx30_roof"));
        EXPECT_EQ(analysis.bound, BoundType::PhysicsBound) << compute;
        if (compute == std::string("Intel NCS")) {
            EXPECT_DOUBLE_EQ(catalog.computes()
                                 .byName(compute)
                                 .heatsinkMass(config.heatsinkModel())
                                 .value(),
                             0.0);
        }
    }
}

TEST(Fig12, HeatsinkSizingCoveredByThermalTests)
{
    // Fig. 12 is asserted in thermal_test.cc (162/81/10 g and the
    // 16.2x ratio); here we only pin the 30 W -> 15 W halving the
    // Fig. 11 study relies on.
    const StudyResult result = runStudy("fig11");
    EXPECT_NEAR(result.metric("agx30_heatsink") /
                    result.metric("agx15_heatsink"),
                2.0, 0.02);
}

TEST(Fig13, AlgorithmCharacterizationOnPelican)
{
    const StudyResult result = runStudy("fig13");
    // Paper: knee at 43 Hz.
    EXPECT_NEAR(result.metric("knee_throughput"), 43.0, 0.2);
    const auto &points = result.series[0].points();
    ASSERT_EQ(points.size(), 3u); // SPA, TrailNet, DroNet.

    // SPA: 1.1 Hz, compute-bound, v ~ 2.3 m/s, needs 39x.
    const auto pelican = studies::pelicanInputs;
    EXPECT_DOUBLE_EQ(points[0].x, 1.1);
    EXPECT_EQ(analyze(pelican, "SPA package delivery", "Nvidia TX2").bound,
              BoundType::ComputeBound);
    EXPECT_NEAR(result.metric("SPA package delivery_v_safe"), 2.3, 0.02);
    EXPECT_NEAR(result.metric("SPA package delivery_factor_vs_knee"),
                39.0, 0.5);

    // TrailNet: 55 Hz, over-provisioned 1.27x.
    EXPECT_DOUBLE_EQ(points[1].x, 55.0);
    EXPECT_EQ(analyze(pelican, "TrailNet", "Nvidia TX2").bound,
              BoundType::PhysicsBound);
    EXPECT_NEAR(result.metric("TrailNet_factor_vs_knee"), 1.27, 0.02);

    // DroNet: 178 Hz -> min(60 FPS sensor, 178) = 60 Hz pipeline;
    // the *compute* margin vs the knee is 178/43 = 4.13x.
    EXPECT_DOUBLE_EQ(points[2].x, 178.0);
    EXPECT_NEAR(result.metric("DroNet_compute_margin"), 4.13, 0.05);
    EXPECT_EQ(analyze(pelican, "DroNet", "Nvidia TX2").bound,
              BoundType::PhysicsBound);

    // E2E beats SPA on safe velocity (the section's takeaway).
    EXPECT_GT(points[1].y, points[0].y);
}

TEST(Fig14, DualModularRedundancyCost)
{
    const StudyResult result = runStudy("fig14");
    // DMR more than doubles the compute payload (second module +
    // heatsink + voter).
    const auto &points = result.series[0].points(); // Single, dual.
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[1].x, 2.0 * points[0].x);
    // Headline: ~33% safe-velocity loss.
    EXPECT_NEAR(result.metric("velocity_loss"), 33.0, 1.5);

    // Both configurations run DroNet at (near) 178 Hz and are
    // physics-bound: the Pelican build, rebuilt here.
    const auto catalog = components::Catalog::standard();
    physics::AccelerationOptions accel;
    accel.law = physics::AccelerationLaw::VerticalExcess;
    for (const auto scheme : {pipeline::RedundancyScheme::None,
                              pipeline::RedundancyScheme::Dual}) {
        const bool single = scheme == pipeline::RedundancyScheme::None;
        core::UavConfig::Builder builder("pelican");
        builder.airframe(catalog.airframes().byName("AscTec Pelican"))
            .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"))
            .compute(catalog.computes().byName("Nvidia TX2"))
            .algorithm(workload::standardAlgorithms().byName("DroNet"))
            .redundancy(pipeline::ModularRedundancy(scheme))
            .accelerationOptions(accel)
            .thrustDerate(0.833);
        const core::UavConfig config = builder.build();
        const core::F1Analysis analysis = config.f1Model().analyze();
        EXPECT_EQ(analysis.safeVelocity.value(),
                  result.metric(single ? "single_v_safe" : "dual_v_safe"));
        EXPECT_EQ(config.redundancy().replicas(), single ? 1 : 2);
        EXPECT_EQ(analysis.bound, BoundType::PhysicsBound);
    }
}

TEST(Fig15, FullSystemCharacterization)
{
    const StudyResult result = runStudy("fig15");
    // Knees: Pelican 43 Hz, Spark 30 Hz.
    EXPECT_NEAR(result.metric("pelican_knee"), 43.0, 0.2);
    EXPECT_NEAR(result.metric("spark_knee"), 30.0, 0.3);

    // Paper: Spark + TX2 + DroNet over-provisioned ~6x.
    const auto pelican = studies::pelicanInputs;
    const auto spark = studies::sparkInputs;
    EXPECT_EQ(analyze(spark, "DroNet", "Nvidia TX2").bound,
              BoundType::PhysicsBound);
    EXPECT_NEAR(result.metric("spark_tx2_dronet_over_provision"), 6.0,
                0.15);

    // Paper: on the Pelican, Ras-Pi4 needs 3.3x (DroNet), 110x
    // (TrailNet) and 660x (CAD2RL).
    EXPECT_EQ(analyze(pelican, "DroNet", "Ras-Pi4").bound,
              BoundType::ComputeBound);
    EXPECT_NEAR(result.metric("pelican_raspi4_dronet_speedup"), 3.3, 0.05);
    EXPECT_NEAR(result.metric("pelican_raspi4_trailnet_speedup"), 110.0,
                1.0);
    EXPECT_NEAR(result.metric("pelican_raspi4_cad2rl_speedup"), 660.0,
                5.0);

    // VGG16 on TX2 (16 Hz) is compute-bound on both UAVs.
    EXPECT_EQ(analyze(pelican, "VGG16", "Nvidia TX2").bound,
              BoundType::ComputeBound);
    EXPECT_EQ(analyze(spark, "VGG16", "Nvidia TX2").bound,
              BoundType::ComputeBound);

    // The full 2 x 4 x 3 sweep is present.
    EXPECT_EQ(result.metric("entries"), 24.0);
    EXPECT_EQ(result.series[0].size() + result.series[1].size(), 24u);
}

TEST(Fig16, AcceleratorPitfalls)
{
    const StudyResult result = runStudy("fig16");
    // Paper: nano-UAV knee at 26 Hz.
    EXPECT_NEAR(result.metric("knee_throughput"), 26.0, 0.2);

    // PULP-DroNet: 6 Hz @ 64 mW -> compute-bound, needs 4.33x.
    const auto nano = [](double rate) {
        return core::F1Model(studies::nanoInputs(units::Hertz(rate)))
            .analyze();
    };
    EXPECT_DOUBLE_EQ(result.metric("pulp_throughput"), 6.0);
    EXPECT_EQ(nano(6.0).bound, BoundType::ComputeBound);
    EXPECT_NEAR(result.metric("pulp_required_speedup"), 4.33, 0.05);

    // Navion in SPA: 810 ms -> 1.23 Hz -> needs 21.1x.
    const double navion = result.metric("navion_throughput");
    EXPECT_NEAR(navion, 1.23, 0.01);
    EXPECT_EQ(nano(navion).bound, BoundType::ComputeBound);
    EXPECT_NEAR(result.metric("navion_required_speedup"), 21.1, 0.3);

    // Pipeline anchors: 909 ms host, 810 ms with Navion.
    const auto host = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    EXPECT_NEAR(host.totalLatency().value(), 0.909, 1e-3);
    EXPECT_NEAR(result.metric("navion_latency"), 810.0, 2.0);

    // Despite Navion's 172 FPS SLAM kernel, the end-to-end pipeline
    // is barely faster than the host: the bottleneck moved.
    EXPECT_LT(navion, 1.3);
    EXPECT_EQ(host.withStageLatency(
                      "SLAM", workload::SpaPipeline::navionSlamLatency(),
                      " + Navion")
                  .bottleneck()
                  .name,
              "Path planner");
}

} // namespace
