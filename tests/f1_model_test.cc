/**
 * @file
 * Unit tests for the F-1 model: bound classification (paper
 * Fig. 4a), design verdicts (Fig. 4b), curve sampling and the
 * allocation-free analysis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <cstdlib>
#include <new>
#include <vector>

#include "alloc_guard.hh"
#include "core/f1_model.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::core;

/** A baseline physics: knee ~43 Hz (Pelican calibration). */
F1Inputs
baseInputs(double compute_hz)
{
    F1Inputs inputs;
    inputs.aMax = MetersPerSecondSquared(4.12);
    inputs.sensingRange = Meters(2.73);
    inputs.sensorRate = Hertz(60.0);
    inputs.computeRate = Hertz(compute_hz);
    inputs.controlRate = Hertz(1000.0);
    return inputs;
}

TEST(F1Model, PhysicsBoundWhenPastKnee)
{
    // DroNet at 178 Hz: min(60, 178, 1000) = 60 > 43 Hz knee.
    const F1Analysis a = F1Model(baseInputs(178.0)).analyze();
    EXPECT_EQ(a.bound, BoundType::PhysicsBound);
    EXPECT_EQ(a.verdict, DesignVerdict::OverOptimized);
    EXPECT_GT(a.overProvisionFactor, 1.0);
    EXPECT_DOUBLE_EQ(a.requiredSpeedup, 1.0);
    EXPECT_DOUBLE_EQ(a.actionThroughput.value(), 60.0);
}

TEST(F1Model, ComputeBoundWhenSlow)
{
    // SPA at 1.1 Hz is far short of the 43 Hz knee.
    const F1Analysis a = F1Model(baseInputs(1.1)).analyze();
    EXPECT_EQ(a.bound, BoundType::ComputeBound);
    EXPECT_EQ(a.bottleneckStage, BottleneckStage::Compute);
    EXPECT_STREQ(toString(a.bottleneckStage), "compute");
    EXPECT_EQ(a.verdict, DesignVerdict::SubOptimal);
    EXPECT_NEAR(a.requiredSpeedup, 43.0 / 1.1, 0.2);
    EXPECT_NEAR(a.safeVelocity.value(), 2.3, 0.02);
}

TEST(F1Model, SensorBoundWhenSensorIsSlowest)
{
    F1Inputs inputs = baseInputs(178.0);
    inputs.sensorRate = Hertz(10.0); // 10 FPS camera < 43 Hz knee.
    const F1Analysis a = F1Model(inputs).analyze();
    EXPECT_EQ(a.bound, BoundType::SensorBound);
    EXPECT_EQ(a.bottleneckStage, BottleneckStage::Sensor);
    EXPECT_STREQ(toString(a.bottleneckStage), "sensor");
    // The sensor ceiling equals the achieved velocity here.
    EXPECT_NEAR(a.sensorCeiling.value(), a.safeVelocity.value(),
                1e-12);
}

TEST(F1Model, ControlBoundWhenControllerIsSlowest)
{
    F1Inputs inputs = baseInputs(178.0);
    inputs.controlRate = Hertz(5.0);
    const F1Analysis a = F1Model(inputs).analyze();
    EXPECT_EQ(a.bound, BoundType::ControlBound);
    EXPECT_EQ(a.bottleneckStage, BottleneckStage::Control);
    EXPECT_STREQ(toString(a.bottleneckStage), "control");
}

TEST(F1Model, OptimalNearKnee)
{
    // Put the compute exactly at the knee (~43 Hz) with a faster
    // sensor so compute is the pipeline minimum.
    F1Inputs inputs = baseInputs(43.0);
    const F1Analysis a = F1Model(inputs).analyze();
    EXPECT_EQ(a.verdict, DesignVerdict::Optimal);
}

TEST(F1Model, KneeVelocityIsFractionOfRoof)
{
    const F1Analysis a = F1Model(baseInputs(178.0)).analyze();
    EXPECT_NEAR(a.kneeVelocity.value(),
                0.98 * a.roofVelocity.value(), 1e-9);
}

TEST(F1Model, CeilingsOrdering)
{
    // A faster stage always has a ceiling at least as high.
    F1Inputs inputs = baseInputs(20.0);
    const F1Analysis a = F1Model(inputs).analyze();
    EXPECT_LE(a.computeCeiling.value(), a.sensorCeiling.value());
    EXPECT_LE(a.safeVelocity.value(), a.roofVelocity.value());
}

TEST(F1Model, CurveSamplingIsMonotone)
{
    const RooflineCurve curve = F1Model(baseInputs(178.0)).curve(64);
    ASSERT_EQ(curve.points.size(), 64u);
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
        EXPECT_GT(curve.points[i].actionThroughput.value(),
                  curve.points[i - 1].actionThroughput.value());
        EXPECT_GE(curve.points[i].safeVelocity.value(),
                  curve.points[i - 1].safeVelocity.value());
    }
    // Every sampled velocity respects the roof.
    for (const auto &point : curve.points)
        EXPECT_LE(point.safeVelocity.value(),
                  curve.roof.value() + 1e-9);
}

TEST(F1Model, CurveAnnotations)
{
    const RooflineCurve curve = F1Model(baseInputs(178.0)).curve();
    EXPECT_NEAR(curve.knee.actionThroughput.value(), 43.0, 0.2);
    EXPECT_DOUBLE_EQ(curve.operating.actionThroughput.value(), 60.0);
    EXPECT_GT(curve.roof.value(), curve.knee.safeVelocity.value());
}

TEST(F1Model, CurveCustomRangeAndErrors)
{
    const F1Model model(baseInputs(178.0));
    const RooflineCurve curve =
        model.curve(16, Hertz(1.0), Hertz(100.0));
    EXPECT_NEAR(curve.points.front().actionThroughput.value(), 1.0,
                1e-9);
    EXPECT_NEAR(curve.points.back().actionThroughput.value(), 100.0,
                1e-6);
    EXPECT_THROW(model.curve(1), ModelError);
    EXPECT_THROW(model.curve(16, Hertz(10.0), Hertz(10.0)),
                 ModelError);
}

TEST(F1Model, AnalyzeIntoMatchesAnalyze)
{
    // 60 Hz ties the sensor, which binds as the earlier stage.
    for (const double compute_hz : {1.1, 43.0, 55.0, 60.0, 178.0}) {
        const F1Inputs inputs = baseInputs(compute_hz);
        const F1Model model(inputs);
        const F1Analysis reference = model.analyze();
        F1Analysis hot;
        F1Model::analyzeInto(inputs, hot);
        // Independent reference: Eq. 3 is the minimum of the three
        // rates, bound by the first minimal stage in sensor, compute,
        // control order. analyze() shares the analyzeInto
        // implementation, so it is no reference for this.
        const double rates[] = {inputs.sensorRate.value(),
                                inputs.computeRate.value(),
                                inputs.controlRate.value()};
        const std::size_t first_min = static_cast<std::size_t>(
            std::min_element(std::begin(rates), std::end(rates)) -
            std::begin(rates));
        const BottleneckStage stages[] = {BottleneckStage::Sensor,
                                          BottleneckStage::Compute,
                                          BottleneckStage::Control};
        EXPECT_EQ(hot.bottleneckStage, stages[first_min]);
        EXPECT_EQ(hot.actionThroughput.value(), rates[first_min]);
        EXPECT_EQ(hot.actionThroughput.value(),
                  reference.actionThroughput.value());
        EXPECT_EQ(hot.safeVelocity.value(),
                  reference.safeVelocity.value());
        EXPECT_EQ(hot.kneeThroughput.value(),
                  reference.kneeThroughput.value());
        EXPECT_EQ(hot.roofVelocity.value(),
                  reference.roofVelocity.value());
        EXPECT_EQ(hot.bound, reference.bound);
        EXPECT_EQ(hot.bottleneckStage, reference.bottleneckStage);
        EXPECT_EQ(hot.verdict, reference.verdict);
        EXPECT_EQ(hot.overProvisionFactor,
                  reference.overProvisionFactor);
        EXPECT_EQ(hot.requiredSpeedup, reference.requiredSpeedup);
    }
}

TEST(F1Model, AnalyzeIntoValidatesInputs)
{
    F1Analysis out;
    F1Inputs bad_rate = baseInputs(0.0);
    EXPECT_THROW(F1Model::analyzeInto(bad_rate, out), ModelError);
    F1Inputs bad_knee = baseInputs(55.0);
    bad_knee.kneeFraction = 1.5;
    EXPECT_THROW(F1Model::analyzeInto(bad_knee, out), ModelError);
    F1Inputs bad_amax = baseInputs(55.0);
    bad_amax.aMax = MetersPerSecondSquared(-1.0);
    EXPECT_THROW(F1Model::analyzeInto(bad_amax, out), ModelError);
}

TEST(F1Model, AnalyzeHotPathNeverTouchesTheHeap)
{
    // The acceptance contract of the sweep engine: per-sample
    // analysis must be allocation-free. F1Analysis carries no
    // strings and analyzeInto builds no pipeline vector.
    const F1Inputs inputs = baseInputs(55.0);
    F1Analysis out;
    F1Model::analyzeInto(inputs, out); // Warm up.
    const std::size_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i)
        F1Model::analyzeInto(inputs, out);
    const std::size_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
}

TEST(F1Model, EnumNames)
{
    EXPECT_STREQ(toString(BoundType::ComputeBound), "compute-bound");
    EXPECT_STREQ(toString(BoundType::SensorBound), "sensor-bound");
    EXPECT_STREQ(toString(BoundType::ControlBound), "control-bound");
    EXPECT_STREQ(toString(BoundType::PhysicsBound), "physics-bound");
    EXPECT_STREQ(toString(DesignVerdict::Optimal), "optimal");
    EXPECT_STREQ(toString(DesignVerdict::OverOptimized),
                 "over-optimized");
    EXPECT_STREQ(toString(DesignVerdict::SubOptimal), "sub-optimal");
}

TEST(F1Model, RejectsBadInputs)
{
    F1Inputs inputs = baseInputs(178.0);
    inputs.kneeFraction = 1.5;
    EXPECT_THROW(F1Model{inputs}, ModelError);
    inputs = baseInputs(178.0);
    inputs.computeRate = Hertz(0.0);
    EXPECT_THROW(F1Model{inputs}, ModelError);
    inputs = baseInputs(178.0);
    inputs.aMax = MetersPerSecondSquared(-1.0);
    EXPECT_THROW(F1Model{inputs}, ModelError);
}

} // namespace
