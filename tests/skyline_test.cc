/**
 * @file
 * Unit tests for the skyline library: knob parsing (Table II),
 * automatic analysis tips, reports and the design-space explorer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "components/catalog.hh"
#include "exec/thread_pool.hh"
#include "skyline/dse.hh"
#include "skyline/report.hh"
#include "skyline/session.hh"
#include "support/errors.hh"
#include "support/rng.hh"

namespace {

using namespace uavf1;
using namespace uavf1::skyline;

TEST(Session, DefaultKnobsAnalyzeCleanly)
{
    SkylineSession session;
    EXPECT_NO_THROW(session.analyze());
    EXPECT_FALSE(session.renderAnalysis().empty());
}

TEST(Session, SetKnobsByName)
{
    SkylineSession session;
    session.set("sensor_framerate", "30");
    session.set("compute_tdp", "15");
    session.set("algorithm", "TrailNet");
    session.set("compute_runtime", "0.018");
    session.set("sensor_range", "4.5");
    session.set("drone_weight", "1200");
    session.set("rotor_pull", "2000");
    session.set("payload_weight", "300");
    session.set("control_rate", "500");
    session.set("knee_fraction", "0.95");

    const Knobs &knobs = session.knobs();
    EXPECT_DOUBLE_EQ(knobs.sensorFramerate.value(), 30.0);
    EXPECT_DOUBLE_EQ(knobs.computeTdp.value(), 15.0);
    EXPECT_EQ(knobs.algorithm, "TrailNet");
    EXPECT_DOUBLE_EQ(knobs.computeRuntime.value(), 0.018);
    EXPECT_DOUBLE_EQ(knobs.sensorRange.value(), 4.5);
    EXPECT_DOUBLE_EQ(knobs.droneWeight.value(), 1200.0);
    EXPECT_DOUBLE_EQ(knobs.rotorPull.value(), 2000.0);
    EXPECT_DOUBLE_EQ(knobs.payloadWeight.value(), 300.0);
    EXPECT_DOUBLE_EQ(knobs.controlRate.value(), 500.0);
    EXPECT_DOUBLE_EQ(knobs.kneeFraction, 0.95);
}

TEST(Session, KnobNameIsCaseInsensitiveAndTrimmed)
{
    SkylineSession session;
    session.set("  Sensor_Framerate ", " 120 ");
    EXPECT_DOUBLE_EQ(session.knobs().sensorFramerate.value(), 120.0);
}

TEST(Session, RejectsUnknownKnobAndBadValues)
{
    SkylineSession session;
    EXPECT_THROW(session.set("warp_drive", "9"), ModelError);
    EXPECT_THROW(session.set("compute_tdp", "alot"), ModelError);
    EXPECT_THROW(session.set("compute_tdp", "30W"), ModelError);
    EXPECT_THROW(session.set("compute_tdp", "-3"), ModelError);
    EXPECT_EQ(SkylineSession::knobNames().size(), 13u);
}

TEST(Session, RejectsPositiveKnobsWithAnInfiniteReciprocal)
{
    // 1e-320 is positive and finite, but 1/x overflows: the model
    // would form a NaN. The error names the knob instead.
    for (const char *knob :
         {"sensor_framerate", "compute_tdp", "compute_runtime",
          "sensor_range", "drone_weight", "rotor_pull",
          "control_rate"}) {
        SkylineSession session;
        try {
            session.set(knob, "1e-320");
            FAIL() << knob << " accepted 1e-320";
        } catch (const ModelError &e) {
            EXPECT_NE(std::string(e.what()).find(knob),
                      std::string::npos)
                << e.what();
        }
        // The smallest normal double still has a finite reciprocal.
        EXPECT_NO_THROW(session.set(knob, "2.3e-308")) << knob;
    }
}

TEST(Session, DependentKnobsWithoutPlatformAreRejected)
{
    for (const auto &[knob, value] :
         {std::pair{"operating_point", "half-clock"},
          std::pair{"pipeline", "MAVBench package delivery (TX2)"}}) {
        SkylineSession session;
        session.set(knob, value);
        try {
            (void)session.analyze();
            FAIL() << knob << " without platform was ignored";
        } catch (const ModelError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(knob), std::string::npos) << what;
            EXPECT_NE(what.find("'platform'"), std::string::npos)
                << what;
        }
        EXPECT_THROW(session.effectiveTdp(), ModelError) << knob;
    }
    SkylineSession session;
    session.set("operating_point", "half-clock");
    // Setting the platform afterwards resolves the point; clearing
    // the point then leaves a plain session.
    session.set("platform", "Nvidia TX2");
    EXPECT_DOUBLE_EQ(session.model().inputs().computeRate.value(),
                     0.5 * 1330.0 / 0.04);
    session.set("platform", "");
    session.set("operating_point", "");
    EXPECT_NO_THROW(session.analyze());
}

TEST(Session, PlatformKnobRoutesComputeThroughTheCeilingFamily)
{
    SkylineSession session;
    EXPECT_FALSE(session.rooflinePlatform().has_value());

    session.set("platform", "Nvidia TX2");
    ASSERT_TRUE(session.rooflinePlatform().has_value());
    const auto model = session.model();
    // DroNet (default algorithm) at the nominal point: the oracle's
    // measured 178 Hz wins over the modeled bound (measured-first),
    // so the rate is a measurement with no binding ceiling.
    EXPECT_DOUBLE_EQ(model.inputs().computeRate.value(), 178.0);
    EXPECT_FALSE(model.inputs().computeBinding.attributed);
    EXPECT_TRUE(session.analyze().bindingCeiling.empty());

    // Off the measured (nominal) point the roofline bound takes
    // over: GPU roof 1330 GOPS * 0.5 clock / 0.04 GOP per frame,
    // attributed to the binding ceiling.
    session.set("operating_point", "half-clock");
    const auto scaled = session.model();
    EXPECT_DOUBLE_EQ(scaled.inputs().computeRate.value(),
                     0.5 * 1330.0 / 0.04);
    ASSERT_TRUE(scaled.inputs().computeBinding.attributed);
    EXPECT_EQ(session.rooflinePlatform()->ceilingName(
                  scaled.inputs().computeBinding),
              "Pascal GPU FP16");

    // The analysis resolves the binding ceiling by name and the
    // rendered text reports the platform line.
    const Analysis analysis = session.analyze();
    EXPECT_EQ(analysis.bindingCeiling, "compute 'Pascal GPU FP16'");
    EXPECT_NE(session.renderAnalysis().find("Nvidia TX2"),
              std::string::npos);
    session.set("operating_point", "");

    // An annotated scalar-only kernel binds a non-top compute
    // ceiling through the very same knob path.
    session.set("algorithm", "DroNet (scalar-only)");
    EXPECT_EQ(session.analyze().bindingCeiling,
              "compute 'Denver2/A57 scalar'");

    // Clearing the knob returns to the compute_runtime path.
    session.set("platform", "");
    EXPECT_FALSE(session.model().inputs().computeBinding.attributed);
}

TEST(Session, OperatingPointScalesRateAndTdp)
{
    SkylineSession session;
    session.set("platform", "Nvidia TX2");
    // The nominal point carries DroNet's measured 178 Hz
    // (measured-first); scaled points have no measured row, so the
    // roofline bound governs and scales with the clock.
    EXPECT_DOUBLE_EQ(session.model().inputs().computeRate.value(),
                     178.0);
    const double nominal_heatsink = session.heatsinkMass().value();
    EXPECT_DOUBLE_EQ(session.effectiveTdp().value(), 7.5);

    session.set("operating_point", "half-clock");
    EXPECT_DOUBLE_EQ(session.model().inputs().computeRate.value(),
                     0.5 * 1330.0 / 0.04);
    // The CMOS law TDP at half clock is far below half: the heat
    // sink shrinks with it (the dvfs study quantifies the curve).
    EXPECT_LT(session.effectiveTdp().value(), 7.5 / 2.0);
    EXPECT_LT(session.heatsinkMass().value(), nominal_heatsink);

    // Unknown operating points are validated lazily (platform and
    // point may be set in either order), at model time.
    session.set("operating_point", "warp");
    EXPECT_THROW(session.model(), ModelError);
}

TEST(Session, PlatformKnobValidatesEagerlyWithSuggestions)
{
    SkylineSession session;
    try {
        session.set("platform", "Nvidia TX3");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("Nvidia TX2"),
                  std::string::npos);
    }
    // Unknown algorithm on the platform path fails at model time,
    // listing the catalog.
    session.set("platform", "Nvidia TX2");
    session.set("algorithm", "MysteryNet");
    EXPECT_THROW(session.model(), ModelError);

    // Non-numeric knobs cannot be swept.
    EXPECT_THROW(session.sweep("platform", 0.0, 1.0, 3), ModelError);
    EXPECT_THROW(session.sweep("operating_point", 0.0, 1.0, 3),
                 ModelError);
}

TEST(Session, PlatformKnobsRoundTripThroughConfig)
{
    SkylineSession session;
    // Legacy sessions keep their exact config bytes: no platform
    // lines unless the knobs are set.
    EXPECT_EQ(session.saveConfig().find("platform"),
              std::string::npos);

    session.set("platform", "Nvidia TX2");
    session.set("operating_point", "dvfs-floor");
    SkylineSession restored;
    restored.loadConfig(session.saveConfig());
    EXPECT_EQ(restored.saveConfig(), session.saveConfig());
    EXPECT_EQ(restored.knobs().platform, "Nvidia TX2");
    EXPECT_EQ(restored.knobs().operatingPoint, "dvfs-floor");
}

TEST(Session, PipelineKnobSelectsRegistryEntry)
{
    SkylineSession session;
    session.set("platform", "Nvidia TX2");
    session.set("algorithm", "SPA package delivery");
    // Default: the algorithm's standard pipeline — the paper's
    // 909 ms MAVBench baseline at 1.1 Hz.
    EXPECT_NEAR(session.model().inputs().computeRate.value(), 1.1,
                0.01);

    // Selecting the Navion variant swaps the SLAM stage for the
    // 172 FPS kernel: 810 ms end-to-end, 1.23 Hz (Section VII).
    session.set("pipeline",
                "MAVBench package delivery (TX2) + Navion SLAM");
    EXPECT_NEAR(session.model().inputs().computeRate.value(), 1.2346,
                0.001);
    const Analysis analysis = session.analyze();
    ASSERT_FALSE(analysis.stages.empty());
    bool found_slam = false;
    for (const auto &row : analysis.stages) {
        if (row.stage == "SLAM") {
            found_slam = true;
            EXPECT_NEAR(row.latencyMs, 1000.0 / 172.0, 1e-6);
            EXPECT_FALSE(row.bottleneck);
        }
    }
    EXPECT_TRUE(found_slam);

    // The knob overrides the algorithm mapping outright: DroNet has
    // no standard pipeline, but the explicit selection evaluates
    // anyway (instead of the oracle's measured 178 Hz).
    session.set("algorithm", "DroNet");
    EXPECT_NEAR(session.model().inputs().computeRate.value(), 1.2346,
                0.001);

    // Clearing the knob returns to the algorithm mapping.
    session.set("pipeline", "");
    EXPECT_DOUBLE_EQ(session.model().inputs().computeRate.value(),
                     178.0);
}

TEST(Session, PipelineKnobValidatesEagerlyWithSuggestions)
{
    SkylineSession session;
    try {
        session.set("pipeline", "MAVBench package delivery (TX3)");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean"),
                  std::string::npos);
        EXPECT_NE(
            std::string(e.what()).find(
                "MAVBench package delivery (TX2)"),
            std::string::npos);
    }
    // The knob never landed, so the session is unchanged.
    EXPECT_TRUE(session.knobs().pipeline.empty());
    // Config-grammar characters are rejected up front, and the
    // non-numeric knob cannot be swept.
    EXPECT_THROW(session.set("pipeline", "bad # name"), ModelError);
    EXPECT_THROW(session.sweep("pipeline", 0.0, 1.0, 3), ModelError);
}

TEST(Session, PipelineKnobRoundTripsThroughConfig)
{
    SkylineSession session;
    // No pipeline line unless the knob is set.
    EXPECT_EQ(session.saveConfig().find("pipeline"),
              std::string::npos);

    session.set("platform", "Nvidia TX2");
    session.set("algorithm", "SPA package delivery");
    session.set("pipeline",
                "MAVBench package delivery (TX2) + Navion SLAM");
    SkylineSession restored;
    restored.loadConfig(session.saveConfig());
    EXPECT_EQ(restored.saveConfig(), session.saveConfig());
    EXPECT_EQ(restored.knobs().pipeline,
              "MAVBench package delivery (TX2) + Navion SLAM");
}

TEST(Session, SweepCarriesBindingAttribution)
{
    SkylineSession session;
    session.set("platform", "Nvidia TX2");
    // At the nominal point every sweep sample carries the measured
    // throughput, so the binding stays unattributed.
    for (const auto &point :
         session.sweep("sensor_range", 1.0, 6.0, 5)) {
        ASSERT_TRUE(point.feasible);
        EXPECT_FALSE(point.binding.attributed);
    }
    // A scaled operating point routes through the roofline bound,
    // and the binding ceiling rides along on every point.
    session.set("operating_point", "half-clock");
    const auto points =
        session.sweep("sensor_range", 1.0, 6.0, 5);
    for (const auto &point : points) {
        ASSERT_TRUE(point.feasible);
        EXPECT_TRUE(point.binding.attributed);
        EXPECT_EQ(session.rooflinePlatform()->ceilingName(
                      point.binding),
                  "Pascal GPU FP16");
    }
    // Legacy sweeps stay unattributed.
    SkylineSession legacy;
    for (const auto &point :
         legacy.sweep("sensor_range", 1.0, 6.0, 5)) {
        EXPECT_FALSE(point.binding.attributed);
    }
}

TEST(Session, HeatsinkFollowsTdpKnob)
{
    SkylineSession session;
    session.set("compute_tdp", "30");
    EXPECT_NEAR(session.heatsinkMass().value(), 162.0, 0.5);
    session.set("compute_tdp", "15");
    EXPECT_NEAR(session.heatsinkMass().value(), 81.0, 0.5);
}

TEST(Session, TdpKnobMovesTheRoof)
{
    // The paper's core interactive insight: raising TDP adds
    // heat-sink weight, which lowers a_max and the roof.
    SkylineSession session;
    session.set("compute_tdp", "5");
    const double roof_light =
        session.analyze().f1.roofVelocity.value();
    session.set("compute_tdp", "30");
    const double roof_heavy =
        session.analyze().f1.roofVelocity.value();
    EXPECT_GT(roof_light, roof_heavy);
}

TEST(Session, ComputeBoundTipSuggestsSpeedup)
{
    SkylineSession session;
    session.set("compute_runtime", "1.0"); // 1 Hz: compute-bound.
    const Analysis analysis = session.analyze();
    EXPECT_EQ(analysis.f1.bound, core::BoundType::ComputeBound);
    ASSERT_FALSE(analysis.tips.empty());
    EXPECT_NE(analysis.tips[0].find("Compute-bound"),
              std::string::npos);
}

TEST(Session, SensorBoundTipSuggestsFasterSensor)
{
    SkylineSession session;
    session.set("sensor_framerate", "2");
    const Analysis analysis = session.analyze();
    EXPECT_EQ(analysis.f1.bound, core::BoundType::SensorBound);
    ASSERT_FALSE(analysis.tips.empty());
    EXPECT_NE(analysis.tips[0].find("Sensor-bound"),
              std::string::npos);
}

TEST(Session, PhysicsBoundTipQuantifiesTdpOpportunity)
{
    SkylineSession session; // Defaults: DroNet 178 Hz.
    // Remove the sensor limit so the compute margin over the knee
    // is plainly visible (f_action = 178 Hz >> knee).
    session.set("sensor_framerate", "240");
    const Analysis analysis = session.analyze();
    EXPECT_EQ(analysis.f1.bound, core::BoundType::PhysicsBound);
    // Over-provisioned: the second tip quantifies the TDP trade.
    ASSERT_GE(analysis.tips.size(), 2u);
    EXPECT_NE(analysis.tips[1].find("over-provisioned"),
              std::string::npos);
    EXPECT_NE(analysis.tips[1].find("heat sink"), std::string::npos);
}

TEST(Session, InfeasibleKnobsThrowInfeasible)
{
    SkylineSession session;
    session.set("payload_weight", "5000"); // Exceeds rotor pull.
    EXPECT_THROW(session.analyze(), InfeasibleError);
}

TEST(Session, SaveLoadRoundTrip)
{
    SkylineSession session;
    session.set("sensor_framerate", "30");
    session.set("compute_tdp", "15");
    session.set("algorithm", "TrailNet v2");
    session.set("compute_runtime", "0.018");
    session.set("sensor_range", "7.25");
    session.set("drone_weight", "1200");
    session.set("rotor_pull", "2000");
    session.set("payload_weight", "300");
    session.set("control_rate", "500");
    session.set("knee_fraction", "0.95");

    SkylineSession restored;
    restored.loadConfig(session.saveConfig());
    EXPECT_EQ(restored.saveConfig(), session.saveConfig());
    EXPECT_EQ(restored.knobs().algorithm, "TrailNet v2");
    EXPECT_DOUBLE_EQ(restored.knobs().computeRuntime.value(),
                     0.018);
    EXPECT_DOUBLE_EQ(restored.knobs().kneeFraction, 0.95);
}

TEST(Session, AlgorithmWhitespaceIsTrimmedAndRoundTrips)
{
    SkylineSession session;
    session.set("algorithm", "   DroNet variant  ");
    EXPECT_EQ(session.knobs().algorithm, "DroNet variant");

    SkylineSession restored;
    restored.loadConfig(session.saveConfig());
    EXPECT_EQ(restored.knobs().algorithm, "DroNet variant");
    EXPECT_EQ(restored.saveConfig(), session.saveConfig());
}

TEST(Session, AlgorithmRejectsValuesThatWouldNotRoundTrip)
{
    SkylineSession session;
    const std::string before = session.knobs().algorithm;
    // '#' would be re-read as a comment, a newline would split the
    // value across config lines: both must be rejected up front.
    EXPECT_THROW(session.set("algorithm", "DroNet # fast"),
                 ModelError);
    EXPECT_THROW(session.set("algorithm", "Dro\nNet"), ModelError);
    EXPECT_THROW(session.set("algorithm", "Dro\rNet"), ModelError);
    EXPECT_EQ(session.knobs().algorithm, before);
}

TEST(Session, SweepMarksValidationFailuresInfeasible)
{
    // drone_weight = 0 fails the knob's own requirePositive
    // validation; it must surface as an infeasible point, not
    // abort the whole sweep.
    SkylineSession session;
    const auto by_weight = session.sweep("drone_weight", 0.0,
                                         1000.0, 3);
    ASSERT_EQ(by_weight.size(), 3u);
    EXPECT_FALSE(by_weight[0].feasible);
    EXPECT_TRUE(by_weight[2].feasible);

    // knee_fraction sweeps ending exactly at 1.0 used to throw out
    // of the final point; now only that point is infeasible.
    const auto by_knee = session.sweep("knee_fraction", 0.5, 1.0,
                                       3);
    ASSERT_EQ(by_knee.size(), 3u);
    EXPECT_TRUE(by_knee[0].feasible);
    EXPECT_TRUE(by_knee[1].feasible);
    EXPECT_FALSE(by_knee[2].feasible);

    // Unknown knobs still fail loudly instead of yielding an
    // all-infeasible sweep.
    EXPECT_THROW(session.sweep("warp_drive", 0.0, 1.0, 3),
                 ModelError);
}

TEST(Report, HtmlIsSelfContained)
{
    SkylineSession session;
    const std::string html =
        ReportWriter::html(session, "Skyline Report");
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_NE(html.find("Analysis"), std::string::npos);
    EXPECT_NE(html.find("</html>"), std::string::npos);
}

/** A prototype builder shared by the DSE tests. */
core::UavConfig::Builder
dsePrototype()
{
    const auto catalog = components::Catalog::standard();
    core::UavConfig::Builder builder("dse");
    builder.airframe(catalog.airframes().byName("AscTec Pelican"))
        .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"));
    return builder;
}

TEST(Dse, SweepCoversTheCrossProduct)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    const DesignSpaceExplorer dse(dsePrototype());
    const auto points = dse.sweep(
        {catalog.computes().byName("Nvidia TX2"),
         catalog.computes().byName("Intel NCS"),
         catalog.computes().byName("Ras-Pi4")},
        {algorithms.byName("DroNet"), algorithms.byName("TrailNet")});
    EXPECT_EQ(points.size(), 6u);
    int feasible = 0;
    for (const auto &point : points) {
        if (point.feasible)
            ++feasible;
    }
    EXPECT_GT(feasible, 0);
}

TEST(Dse, HeavyPlatformsComeOutInfeasibleNotCrashing)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();

    // A nano-UAV cannot lift a TX2; the sweep must record that
    // instead of throwing.
    const auto nano_catalog = components::Catalog::standard();
    core::UavConfig::Builder builder("nano-dse");
    builder
        .airframe(nano_catalog.airframes().byName("Nano-UAV"))
        .sensor(nano_catalog.sensors().byName(
            "Nano camera 60FPS (6m)"));
    const DesignSpaceExplorer dse(builder);
    const auto points =
        dse.sweep({catalog.computes().byName("Nvidia TX2"),
                   catalog.computes().byName("PULP-GAP8")},
                  {algorithms.byName("DroNet")});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_FALSE(points[0].feasible);
    EXPECT_FALSE(points[0].infeasibleReason.empty());
    EXPECT_TRUE(points[1].feasible);
}

TEST(Dse, ParetoFrontIsNonDominated)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    const DesignSpaceExplorer dse(dsePrototype());
    const auto points = dse.sweep(
        {catalog.computes().byName("Nvidia TX2"),
         catalog.computes().byName("Intel NCS"),
         catalog.computes().byName("Ras-Pi4"),
         catalog.computes().byName("Nvidia AGX")},
        {algorithms.byName("DroNet")});
    const auto front = DesignSpaceExplorer::paretoFront(points);
    ASSERT_FALSE(front.empty());
    // No front member dominates another.
    for (const auto &a : front) {
        for (const auto &b : front) {
            const bool dominates =
                a.safeVelocity >= b.safeVelocity &&
                a.computePower <= b.computePower &&
                a.computeMass <= b.computeMass &&
                (a.safeVelocity > b.safeVelocity ||
                 a.computePower < b.computePower ||
                 a.computeMass < b.computeMass);
            EXPECT_FALSE(dominates)
                << a.compute << " dominates " << b.compute;
        }
    }
    // Sorted fastest-first.
    for (std::size_t i = 1; i < front.size(); ++i)
        EXPECT_GE(front[i - 1].safeVelocity, front[i].safeVelocity);
}

/** Shorthand for a feasible synthetic design point. */
DesignPoint
syntheticPoint(const std::string &name, double v, double power,
               double mass)
{
    DesignPoint point;
    point.compute = name;
    point.feasible = true;
    point.safeVelocity = v;
    point.computePower = power;
    point.computeMass = mass;
    return point;
}

TEST(Dse, ParetoFrontOrderingIsStable)
{
    // Duplicates survive together, dominated points drop out, and
    // the output is fastest-first with ties in input order.
    const std::vector<DesignPoint> points = {
        syntheticPoint("A", 10.0, 5.0, 5.0),
        syntheticPoint("B", 10.0, 5.0, 5.0), // Duplicate of A.
        syntheticPoint("C", 9.0, 6.0, 6.0),  // Dominated by A.
        syntheticPoint("D", 9.0, 4.0, 7.0),
        syntheticPoint("E", 8.0, 4.0, 7.0),  // Dominated by D.
        syntheticPoint("F", 8.0, 3.0, 8.0),
        syntheticPoint("G", 8.0, 3.0, 9.0),  // Dominated by F.
    };
    const auto front = DesignSpaceExplorer::paretoFront(points);
    ASSERT_EQ(front.size(), 4u);
    EXPECT_EQ(front[0].compute, "A");
    EXPECT_EQ(front[1].compute, "B");
    EXPECT_EQ(front[2].compute, "D");
    EXPECT_EQ(front[3].compute, "F");
}

TEST(Dse, ParetoFrontMatchesBruteForceOnTieHeavyInputs)
{
    // Small discrete coordinates force many exact ties, the regime
    // where a sort-then-sweep most easily diverges from the
    // all-pairs dominance definition.
    Rng rng(2024);
    std::vector<DesignPoint> points;
    for (int i = 0; i < 300; ++i) {
        DesignPoint point = syntheticPoint(
            std::string("p").append(std::to_string(i)),
            std::floor(rng.uniform(0.0, 5.0)),
            std::floor(rng.uniform(0.0, 5.0)),
            std::floor(rng.uniform(0.0, 5.0)));
        point.feasible = (i % 17) != 0;
        points.push_back(point);
    }

    const auto dominates = [](const DesignPoint &a,
                              const DesignPoint &b) {
        return a.safeVelocity >= b.safeVelocity &&
               a.computePower <= b.computePower &&
               a.computeMass <= b.computeMass &&
               (a.safeVelocity > b.safeVelocity ||
                a.computePower < b.computePower ||
                a.computeMass < b.computeMass);
    };
    std::vector<std::string> expected;
    for (const auto &candidate : points) {
        if (!candidate.feasible)
            continue;
        bool dominated = false;
        for (const auto &other : points) {
            if (other.feasible && dominates(other, candidate)) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            expected.push_back(candidate.compute);
    }

    const auto front = DesignSpaceExplorer::paretoFront(points);
    std::vector<std::string> got;
    for (const auto &point : front)
        got.push_back(point.compute);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
}

TEST(Dse, SweepIsIdenticalAtAnyThreadCount)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    const DesignSpaceExplorer dse(dsePrototype());
    const std::vector<components::ComputePlatform> computes = {
        catalog.computes().byName("Nvidia TX2"),
        catalog.computes().byName("Intel NCS"),
        catalog.computes().byName("Ras-Pi4"),
        catalog.computes().byName("Nvidia AGX")};
    const std::vector<workload::AutonomyAlgorithm> algos = {
        algorithms.byName("DroNet"), algorithms.byName("TrailNet")};

    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    const auto a = dse.sweep(computes, algos, {.pool = &pool1});
    const auto b = dse.sweep(computes, algos, {.pool = &pool8});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].compute, b[i].compute);
        EXPECT_EQ(a[i].algorithm, b[i].algorithm);
        EXPECT_EQ(a[i].feasible, b[i].feasible);
        EXPECT_EQ(a[i].safeVelocity, b[i].safeVelocity);
        EXPECT_EQ(a[i].computePower, b[i].computePower);
        EXPECT_EQ(a[i].computeMass, b[i].computeMass);
    }
}

TEST(Dse, BestPicksHighestVelocity)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    const DesignSpaceExplorer dse(dsePrototype());
    const auto points = dse.sweep(
        {catalog.computes().byName("Nvidia TX2"),
         catalog.computes().byName("Ras-Pi4")},
        {algorithms.byName("DroNet")});
    const auto &best = DesignSpaceExplorer::best(points);
    for (const auto &point : points) {
        if (point.feasible) {
            EXPECT_GE(best.safeVelocity, point.safeVelocity);
        }
    }
    EXPECT_THROW(DesignSpaceExplorer::best({}), ModelError);
}

} // namespace
