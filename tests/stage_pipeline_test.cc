/**
 * @file
 * Tests for the per-stage workload-aware evaluation spine: the
 * StagePipelineEvaluator's measured-first rules, stage-gated
 * accelerator attribution, the allocation-free hot path, the
 * "did you mean" diagnostics on stage names, and the determinism
 * contract of the per-stage paths through FaultCampaign and
 * MonteCarloAnalyzer (bit-identical at any thread count; the
 * combined platform+pipeline campaign reproduces the pipeline-only
 * rates exactly when no platform fault is configured).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "alloc_guard.hh"
#include "components/catalog.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "sim/monte_carlo.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/stage_eval.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::workload;

const platform::RooflinePlatform &
preset(const std::string &name)
{
    static const auto catalog = components::Catalog::standard();
    return catalog.rooflines().byName(name);
}

TEST(StageEval, MeasuredLatenciesWinOnTheMeasuredPlatform)
{
    const SpaPipeline pipeline =
        SpaPipeline::mavbenchPackageDeliveryTx2();
    const StagePipelineEvaluator evaluator(pipeline,
                                           preset("Nvidia TX2"));
    EXPECT_TRUE(evaluator.onMeasuredPlatform());
    ASSERT_EQ(evaluator.stageCount(), 4u);
    // Every MAVBench stage now carries a roofline annotation.
    for (std::size_t i = 0; i < evaluator.stageCount(); ++i)
        EXPECT_TRUE(evaluator.stageAnnotated(i))
            << evaluator.stageName(i);

    const PipelineBound bound = evaluator.evaluate();
    ASSERT_EQ(bound.stageCount, 4u);
    for (std::size_t i = 0; i < bound.stageCount; ++i) {
        const StageBound &stage = bound.stages[i];
        EXPECT_EQ(stage.source, StageLatencySource::Measured)
            << evaluator.stageName(i);
        EXPECT_FALSE(stage.binding.attributed);
        EXPECT_DOUBLE_EQ(stage.latencySeconds,
                         pipeline.stages()[i].latency.value());
    }
    // Totals reproduce the pipeline's own arithmetic bit-for-bit:
    // 909 ms -> the paper's 1.1 Hz TX2 anchor.
    EXPECT_EQ(bound.totalLatencySeconds,
              pipeline.totalLatency().value());
    EXPECT_EQ(bound.throughputHz, pipeline.throughput().value());
    EXPECT_NEAR(bound.throughputHz, 1.1, 0.001);
    EXPECT_EQ(evaluator.stageName(bound.bottleneckIndex),
              "Path planner");
    EXPECT_FALSE(bound.bottleneckBinding().attributed);
}

TEST(StageEval, ScaledOperatingPointClockScalesTheMeasurements)
{
    const SpaPipeline pipeline =
        SpaPipeline::mavbenchPackageDeliveryTx2();
    const StagePipelineEvaluator evaluator(pipeline,
                                           preset("Nvidia TX2"));
    StageEvalOptions options;
    options.opIndex = 1; // half-clock
    const PipelineBound bound = evaluator.evaluate(options);
    for (std::size_t i = 0; i < bound.stageCount; ++i) {
        const StageBound &stage = bound.stages[i];
        // SLAM's modeled TX2 floor (~0.9 ms) sits far below even
        // the doubled measurement, so every stage — annotated or
        // not — rides the clock-scaled measurement.
        EXPECT_EQ(stage.source, StageLatencySource::MeasuredScaled)
            << evaluator.stageName(i);
        EXPECT_DOUBLE_EQ(stage.latencySeconds,
                         2.0 * pipeline.stages()[i].latency.value());
    }
    EXPECT_DOUBLE_EQ(bound.totalLatencySeconds,
                     2.0 * pipeline.totalLatency().value());
}

TEST(StageEval, NavionShortensExactlyItsGatedStage)
{
    const SpaPipeline pipeline =
        SpaPipeline::mavbenchPackageDeliveryTx2();
    const platform::RooflinePlatform &navion =
        preset("TX2-CPU + Navion");
    const StagePipelineEvaluator evaluator(pipeline, navion);
    EXPECT_FALSE(evaluator.onMeasuredPlatform());

    const PipelineBound bound = evaluator.evaluate();
    // The annotated SLAM stage rides the stage-gated 200 GOPS VIO
    // ceiling: the calibration reproduces Navion's 172 FPS kernel.
    const StageBound &slam = bound.stages[0];
    EXPECT_EQ(slam.source, StageLatencySource::RooflineBound);
    EXPECT_NEAR(slam.latencySeconds,
                SpaPipeline::navionSlamLatency().value(), 1e-15);
    ASSERT_TRUE(slam.binding.attributed);
    EXPECT_EQ(navion.ceilingName(slam.binding), "Navion VIO ASIC");

    // Every other stage is modeled on the host CPU roofs it is
    // annotated for — landing within a hair of its measured TX2
    // latency, since the shared CPU complex is the same silicon:
    // the accelerator still shortens exactly its gated stage.
    const struct
    {
        double latency;
        const char *ceiling;
    } host[] = {
        {51.7 / 170.0, "NEON SIMD"},          // OctoMap
        {16.79 / 42.0, "Denver2/A57 scalar"}, // Path planner
        {4.199 / 42.0, "Denver2/A57 scalar"}, // Command tracking
    };
    for (std::size_t i = 1; i < bound.stageCount; ++i) {
        const StageBound &stage = bound.stages[i];
        EXPECT_EQ(stage.source, StageLatencySource::RooflineBound)
            << evaluator.stageName(i);
        ASSERT_TRUE(stage.binding.attributed);
        EXPECT_EQ(navion.ceilingName(stage.binding),
                  host[i - 1].ceiling);
        EXPECT_DOUBLE_EQ(stage.latencySeconds, host[i - 1].latency);
        EXPECT_NEAR(stage.latencySeconds,
                    pipeline.stages()[i].latency.value(), 3e-4);
    }
    // The paper's Section VII anchor: 810 ms -> 1.23 Hz.
    EXPECT_NEAR(bound.totalLatencySeconds, 0.810, 0.001);
    EXPECT_NEAR(bound.throughputHz, 1.23, 0.01);
    EXPECT_EQ(evaluator.stageName(bound.bottleneckIndex),
              "Path planner");
}

TEST(StageEval, ValidatesOptionsAndStageNames)
{
    const SpaPipeline pipeline =
        SpaPipeline::mavbenchPackageDeliveryTx2();
    const StagePipelineEvaluator evaluator(pipeline,
                                           preset("Nvidia TX2"));
    StageEvalOptions options;
    options.opIndex = 99;
    EXPECT_THROW(evaluator.evaluate(options), ModelError);
    options.opIndex = 0;
    options.aiScale = 0.0;
    EXPECT_THROW(evaluator.evaluate(options), ModelError);
    options.aiScale = -1.0;
    EXPECT_THROW(evaluator.evaluate(options), ModelError);

    // Unknown stage names get the prefix/edit-distance treatment.
    try {
        (void)pipeline.withStageLatency("Path planer",
                                        units::Seconds(0.1), "");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("did you mean"), std::string::npos)
            << message;
        EXPECT_NE(message.find("Path planner"), std::string::npos)
            << message;
    }
}

TEST(StageEval, HotPathIsAllocationFree)
{
    const SpaPipeline pipeline =
        SpaPipeline::mavbenchPackageDeliveryTx2();
    const StagePipelineEvaluator evaluator(pipeline,
                                           preset("Nvidia TX2"));
    PipelineBound bound;
    StageEvalOptions options;
    evaluator.evaluateInto(options, bound); // Warm up.

    const std::size_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 64; ++i) {
        options.aiScale = 1.0 + 0.001 * i;
        options.measuredFirst = (i % 2) == 0;
        evaluator.evaluateInto(options, bound);
    }
    const std::size_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "evaluateInto must not allocate on the hot path";
    EXPECT_GT(bound.throughputHz, 0.0);
}

/** A campaign over the SPA pipeline with the standard stage-fault
 * suite; `with_platform` switches on the combined per-stage path. */
fault::CampaignSpec
spaCampaign(bool with_platform)
{
    fault::CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.pipeline = SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.redundancy = pipeline::RedundancyScheme::Dual;
    spec.faults = fault::findFaultSuite("stage-failure").faults;
    if (with_platform) {
        const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
        const auto algorithms = workload::annotatedAlgorithms();
        const auto &spa =
            algorithms.byName("SPA package delivery");
        spec.platform = tx2;
        spec.profile = workload::workloadProfile(spa, tx2);
        spec.workPerFrameGop = spa.workPerFrameGop();
    }
    return spec;
}

TEST(StageEval, CombinedCampaignReproducesThePipelineOnlyRates)
{
    // With no platform fault configured, the combined path's
    // measured-first per-stage bounds are the raw measurements, so
    // the degraded-rate arithmetic — and every surviving sample —
    // is bit-identical to the pipeline-only campaign.
    const fault::FaultCampaign pipeline_only(spaCampaign(false));
    const fault::FaultCampaign combined(spaCampaign(true));

    const fault::CampaignResult a = pipeline_only.run(2000, 11);
    const fault::CampaignResult b = combined.run(2000, 11);
    EXPECT_EQ(a.safeVelocity.mean, b.safeVelocity.mean);
    EXPECT_EQ(a.safeVelocity.stddev, b.safeVelocity.stddev);
    EXPECT_EQ(a.safeVelocity.p5, b.safeVelocity.p5);
    EXPECT_EQ(a.safeVelocity.p50, b.safeVelocity.p50);
    EXPECT_EQ(a.safeVelocity.p95, b.safeVelocity.p95);
    EXPECT_EQ(a.abortProbability, b.abortProbability);

    // Only the combined path reports per-stage bindings; with the
    // platform un-faulted every surviving stage is
    // measurement-sourced.
    EXPECT_TRUE(a.stageBindings.empty());
    ASSERT_EQ(b.stageBindings.size(), 4u);
    for (const auto &stats : b.stageBindings) {
        EXPECT_DOUBLE_EQ(stats.probMeasured, 1.0) << stats.stage;
        EXPECT_DOUBLE_EQ(stats.probComputeBound, 0.0) << stats.stage;
        EXPECT_DOUBLE_EQ(stats.probMemoryBound, 0.0) << stats.stage;
    }
    EXPECT_EQ(b.stageBindings[0].stage, "SLAM");

    // The no-fault baselines agree across the two paths as well.
    EXPECT_EQ(pipeline_only.baseline().safeVelocity.value(),
              combined.baseline().safeVelocity.value());
}

TEST(StageEval, CombinedCampaignIsBitIdenticalAcrossThreads)
{
    const fault::FaultCampaign campaign(spaCampaign(true));
    exec::ThreadPool single(1);
    exec::ParallelOptions serial;
    serial.pool = &single;
    const fault::CampaignResult one = campaign.run(3000, 5, serial);

    for (const std::size_t threads : {2u, 8u}) {
        exec::ThreadPool pool(threads);
        exec::ParallelOptions options;
        options.pool = &pool;
        const fault::CampaignResult many =
            campaign.run(3000, 5, options);
        EXPECT_EQ(one.safeVelocity.mean, many.safeVelocity.mean);
        EXPECT_EQ(one.safeVelocity.p5, many.safeVelocity.p5);
        EXPECT_EQ(one.safeVelocity.p95, many.safeVelocity.p95);
        EXPECT_EQ(one.abortProbability, many.abortProbability);
        ASSERT_EQ(one.stageBindings.size(),
                  many.stageBindings.size());
        for (std::size_t s = 0; s < one.stageBindings.size(); ++s) {
            EXPECT_EQ(one.stageBindings[s].probComputeBound,
                      many.stageBindings[s].probComputeBound);
            EXPECT_EQ(one.stageBindings[s].probMemoryBound,
                      many.stageBindings[s].probMemoryBound);
            EXPECT_EQ(one.stageBindings[s].probMeasured,
                      many.stageBindings[s].probMeasured);
        }
    }
}

TEST(StageEval, CampaignRejectsMistypedStageFaults)
{
    fault::CampaignSpec spec = spaCampaign(false);
    fault::FaultSpec typo;
    typo.name = "typo";
    typo.kind = fault::FaultKind::StageLatencyInflation;
    typo.stage = "SLMA";
    typo.probability = 0.1;
    typo.latencyFactor = 2.0;
    spec.faults.push_back(typo);
    try {
        fault::FaultCampaign campaign(std::move(spec));
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("did you mean"), std::string::npos)
            << message;
        EXPECT_NE(message.find("SLAM"), std::string::npos) << message;
    }
}

/** Monte-Carlo spec routing f_compute through the per-stage path
 * on a platform the pipeline was NOT measured on. */
sim::UncertaintySpec
navionUncertainty()
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = preset("TX2-CPU + Navion");
    spec.pipeline = SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.aiRelStd = 0.10;
    spec.computeRelStd = 0.05;
    return spec;
}

TEST(StageEval, MonteCarloPipelinePathTalliesPerStageBindings)
{
    const sim::MonteCarloAnalyzer analyzer(navionUncertainty());
    const sim::UncertaintyResult result = analyzer.run(2000, 3);
    EXPECT_EQ(result.samples, 2000u);

    // On the foreign platform every annotated stage evaluates from
    // its modeled bound, and each stage's compute ceiling binds at
    // every plausible AI draw (the memory roofs sit several sigma
    // of aiScale away).
    ASSERT_EQ(result.stageBindings.size(), 4u);
    EXPECT_EQ(result.stageBindings[0].stage, "SLAM");
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_DOUBLE_EQ(result.stageBindings[s].probComputeBound,
                         1.0)
            << result.stageBindings[s].stage;
        EXPECT_DOUBLE_EQ(result.stageBindings[s].probMeasured, 0.0)
            << result.stageBindings[s].stage;
    }

    // Compute-bound latencies are AI-independent, so the bottleneck
    // is always the Path planner on the scalar host roof — all the
    // binding mass lands on compute ceiling 0.
    ASSERT_GE(result.probComputeCeilingBinds.size(), 1u);
    EXPECT_DOUBLE_EQ(result.probComputeCeilingBinds[0], 1.0);
    double bound_mass = 0.0;
    for (const double p : result.probComputeCeilingBinds)
        bound_mass += p;
    for (const double p : result.probMemoryCeilingBinds)
        bound_mass += p;
    EXPECT_DOUBLE_EQ(bound_mass, 1.0);
}

TEST(StageEval, MonteCarloPipelinePathIsBitIdenticalAcrossThreads)
{
    const sim::MonteCarloAnalyzer analyzer(navionUncertainty());
    exec::ThreadPool single(1);
    exec::ParallelOptions serial;
    serial.pool = &single;
    const sim::UncertaintyResult one = analyzer.run(5000, 7, serial);

    for (const std::size_t threads : {2u, 8u}) {
        exec::ThreadPool pool(threads);
        exec::ParallelOptions options;
        options.pool = &pool;
        const sim::UncertaintyResult many =
            analyzer.run(5000, 7, options);
        EXPECT_EQ(one.safeVelocity.mean, many.safeVelocity.mean);
        EXPECT_EQ(one.safeVelocity.stddev,
                  many.safeVelocity.stddev);
        EXPECT_EQ(one.safeVelocity.p5, many.safeVelocity.p5);
        EXPECT_EQ(one.safeVelocity.p95, many.safeVelocity.p95);
        EXPECT_EQ(one.kneeThroughput.p50, many.kneeThroughput.p50);
        ASSERT_EQ(one.stageBindings.size(),
                  many.stageBindings.size());
        for (std::size_t s = 0; s < one.stageBindings.size(); ++s) {
            EXPECT_EQ(one.stageBindings[s].probComputeBound,
                      many.stageBindings[s].probComputeBound);
            EXPECT_EQ(one.stageBindings[s].probMemoryBound,
                      many.stageBindings[s].probMemoryBound);
            EXPECT_EQ(one.stageBindings[s].probMeasured,
                      many.stageBindings[s].probMeasured);
        }
    }
}

TEST(StageEval, MonteCarloPipelineRequiresAPlatform)
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.pipeline = SpaPipeline::mavbenchPackageDeliveryTx2();
    EXPECT_THROW(sim::MonteCarloAnalyzer analyzer(spec), ModelError);
}

} // namespace
