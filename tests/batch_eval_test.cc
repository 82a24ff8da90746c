/**
 * @file
 * Bit-identity property tests for the batched SoA evaluation layer:
 * platform::EvaluationPlan vs RooflinePlatform::attainable(),
 * workload::StagePipelinePlan vs StagePipelineEvaluator, the
 * core::analyze*Block kernels vs F1Model::analyzeInto(), the
 * Monte-Carlo / fault-campaign run() vs runReference() oracles at
 * 1/2/8 threads, the design-space sweep vs per-point analyze(),
 * the allocation-free guarantee of the kernels, and the
 * exec::parallelForSlots / suggestedGrain contracts they ride on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "alloc_guard.hh"
#include "components/catalog.hh"
#include "core/f1_batch.hh"
#include "core/f1_model.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "platform/evaluation_plan.hh"
#include "sim/lognormal.hh"
#include "sim/monte_carlo.hh"
#include "simd/simd.hh"
#include "skyline/dse.hh"
#include "studies/presets.hh"
#include "support/rng.hh"
#include "workload/algorithm.hh"
#include "workload/batch_eval.hh"
#include "workload/spa_pipeline.hh"
#include "workload/stage_eval.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;

const platform::RooflinePlatform &
preset(const std::string &name)
{
    static const auto catalog = components::Catalog::standard();
    return catalog.rooflines().byName(name);
}

/** Flat ceiling slot of a scalar binding, as the plans encode it. */
std::uint32_t
flatSlot(const platform::CeilingRef &binding,
         std::size_t compute_ceilings)
{
    return static_cast<std::uint32_t>(
        binding.kind == platform::CeilingKind::Compute
            ? binding.index
            : compute_ceilings + binding.index);
}

TEST(EvaluationPlan, MatchesScalarAttainableEverywhere)
{
    const auto algorithms = workload::annotatedAlgorithms();
    const char *platforms[] = {"Nvidia TX2", "Nvidia AGX",
                               "ARM Cortex-M4", "TX2-CPU + Navion"};
    const char *annotated[] = {"DroNet", "DroNet (scalar-only)",
                               "SPA package delivery"};

    Rng rng(42);
    for (const char *platform_name : platforms) {
        const platform::RooflinePlatform &machine =
            preset(platform_name);

        std::vector<platform::WorkloadProfile> profiles;
        profiles.push_back({}); // Unannotated: every ceiling.
        for (const char *algorithm_name : annotated) {
            profiles.push_back(workload::workloadProfile(
                algorithms.byName(algorithm_name), machine));
        }

        for (platform::WorkloadProfile profile : profiles) {
            profile.ai = units::OpsPerByte(1.0);
            const platform::EvaluationPlan plan(machine, profile);
            ASSERT_EQ(plan.operatingPointCount(),
                      machine.operatingPoints().size());

            // AI draws spanning memory-bound through compute-bound
            // regimes, plus the knee-adjacent values where tie rules
            // matter.
            double ai[67];
            std::size_t n = 0;
            for (; n < 64; ++n)
                ai[n] = rng.uniform(0.01, 80.0);
            ai[n++] = 22.3; // TX2 machine knee.
            ai[n++] = 1e-3;
            ai[n++] = 1e6;

            double attainable[67];
            std::uint32_t slot[67];
            for (std::size_t op = 0;
                 op < plan.operatingPointCount(); ++op) {
                plan.evaluateBlock(op, ai, n, attainable, slot);
                for (std::size_t i = 0; i < n; ++i) {
                    platform::WorkloadProfile sample = profile;
                    sample.ai = units::OpsPerByte(ai[i]);
                    const platform::AttainableBound scalar =
                        machine.attainable(sample, op);
                    EXPECT_EQ(attainable[i],
                              scalar.attainable.value())
                        << platform_name << " op " << op << " ai "
                        << ai[i];
                    ASSERT_TRUE(scalar.binding.attributed);
                    EXPECT_EQ(slot[i],
                              flatSlot(scalar.binding,
                                       machine.computeCeilings()
                                           .size()))
                        << platform_name << " op " << op << " ai "
                        << ai[i];
                }
            }
        }
    }
}

TEST(EvaluationPlan, RejectsBadSamplesWithTheScalarError)
{
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    platform::WorkloadProfile profile;
    profile.ai = units::OpsPerByte(1.0);
    const platform::EvaluationPlan plan(tx2, profile);

    double ai[3] = {1.0, -2.0, 3.0};
    double attainable[3];
    std::uint32_t slot[3];
    EXPECT_FALSE(plan.tryEvaluateBlock(0, ai, 3, attainable, slot));
    EXPECT_THROW(plan.evaluateBlock(0, ai, 3, attainable, slot),
                 ModelError);
    // Out-of-range operating point fails like the scalar call.
    ai[1] = 2.0;
    EXPECT_THROW(plan.evaluateBlock(99, ai, 3, attainable, slot),
                 ModelError);
    EXPECT_NO_THROW(plan.evaluateBlock(0, ai, 3, attainable, slot));
}

TEST(StagePipelinePlan, MatchesScalarEvaluator)
{
    const workload::SpaPipeline pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    Rng rng(7);
    for (const char *platform_name :
         {"Nvidia TX2", "TX2-CPU + Navion"}) {
        const platform::RooflinePlatform &machine =
            preset(platform_name);
        const workload::StagePipelinePlan plan(pipeline, machine);
        const workload::StagePipelineEvaluator evaluator(pipeline,
                                                         machine);
        const std::size_t stages = plan.stageCount();
        const std::size_t compute_ceilings =
            plan.computeCeilingCount();

        workload::StagePipelinePlan::Scratch scratch;
        double ai_scale[64];
        double throughput[64];
        std::uint32_t bottleneck[64];
        for (std::size_t op = 0;
             op < machine.operatingPoints().size(); ++op) {
            for (const bool measured_first : {true, false}) {
                const std::size_t n = 61; // Partial block.
                for (std::size_t i = 0; i < n; ++i)
                    ai_scale[i] = std::exp(0.4 * rng.normal());

                std::vector<std::uint64_t> kinds(stages * 3, 0);
                plan.evaluateBlock(op, measured_first, ai_scale, n,
                                   throughput, bottleneck,
                                   kinds.data(), scratch);

                std::vector<std::uint64_t> expected_kinds(
                    stages * 3, 0);
                workload::PipelineBound bound;
                for (std::size_t i = 0; i < n; ++i) {
                    workload::StageEvalOptions options;
                    options.opIndex = op;
                    options.measuredFirst = measured_first;
                    options.aiScale = ai_scale[i];
                    evaluator.evaluateInto(options, bound);

                    EXPECT_EQ(throughput[i], bound.throughputHz)
                        << platform_name << " op " << op;
                    const platform::CeilingRef bottleneck_binding =
                        bound.bottleneckBinding();
                    const std::uint32_t expected_slot =
                        bottleneck_binding.attributed
                            ? flatSlot(bottleneck_binding,
                                       compute_ceilings)
                            : workload::StagePipelinePlan::
                                  measuredSlot;
                    EXPECT_EQ(bottleneck[i], expected_slot)
                        << platform_name << " op " << op;

                    for (std::size_t s = 0; s < stages; ++s) {
                        const workload::StageBound &stage =
                            bound.stages[s];
                        const std::size_t kind =
                            stage.binding.attributed
                                ? (stage.binding.kind ==
                                           platform::CeilingKind::
                                               Compute
                                       ? 0
                                       : 1)
                                : 2;
                        ++expected_kinds[s * 3 + kind];
                    }
                }
                EXPECT_EQ(kinds, expected_kinds)
                    << platform_name << " op " << op
                    << " measured_first " << measured_first;
            }
        }
    }
}

TEST(StagePipelinePlan, ExtremeScalesCrossTheFastIntervalExactly)
{
    // The plan's whole-block fast path covers an interval of AI
    // scales; sweep uniform-scale blocks across nine orders of
    // magnitude (plus mixed blocks) so both sides of every
    // bisected threshold — compute-bound, memory-bound, and the
    // handoff between them — are compared against the scalar
    // evaluator.
    const workload::SpaPipeline pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    for (const char *platform_name :
         {"Nvidia TX2", "TX2-CPU + Navion"}) {
        const platform::RooflinePlatform &machine =
            preset(platform_name);
        const workload::StagePipelinePlan plan(pipeline, machine);
        const workload::StagePipelineEvaluator evaluator(pipeline,
                                                         machine);
        const std::size_t stages = plan.stageCount();
        workload::StagePipelinePlan::Scratch scratch;
        workload::PipelineBound bound;

        std::vector<double> scales;
        for (double mag = 1e-4; mag <= 1e5; mag *= 10.0)
            for (double step : {1.0, 1.9, 3.7, 7.3})
                scales.push_back(mag * step);

        double ai_scale[64];
        double throughput[64];
        std::uint32_t slot[64];
        const auto compare = [&](std::size_t n, std::size_t op) {
            std::vector<std::uint64_t> kinds(stages * 3, 0);
            plan.evaluateBlock(op, false, ai_scale, n, throughput,
                               slot, kinds.data(), scratch);
            std::vector<std::uint64_t> expected(stages * 3, 0);
            for (std::size_t i = 0; i < n; ++i) {
                workload::StageEvalOptions options;
                options.opIndex = op;
                options.measuredFirst = false;
                options.aiScale = ai_scale[i];
                evaluator.evaluateInto(options, bound);
                EXPECT_EQ(throughput[i], bound.throughputHz)
                    << platform_name << " scale " << ai_scale[i];
                for (std::size_t s = 0; s < stages; ++s) {
                    const workload::StageBound &stage =
                        bound.stages[s];
                    const std::size_t kind =
                        stage.binding.attributed
                            ? (stage.binding.kind ==
                                       platform::CeilingKind::Compute
                                   ? 0
                                   : 1)
                            : 2;
                    ++expected[s * 3 + kind];
                }
            }
            EXPECT_EQ(kinds, expected) << platform_name;
        };

        for (std::size_t op = 0;
             op < machine.operatingPoints().size(); ++op) {
            // Uniform-scale blocks: whole block on one side.
            for (const double scale : scales) {
                for (std::size_t i = 0; i < 8; ++i)
                    ai_scale[i] = scale;
                compare(8, op);
            }
            // Mixed block: one out-of-interval sample must push
            // the whole block down the general path.
            for (std::size_t i = 0; i < 16; ++i)
                ai_scale[i] = 1.0 + 0.01 * static_cast<double>(i);
            ai_scale[11] = 1e-4;
            compare(16, op);
        }
    }
}

TEST(StagePipelinePlan, BadAiScaleFallsBackToTheScalarError)
{
    const workload::StagePipelinePlan plan(
        workload::SpaPipeline::mavbenchPackageDeliveryTx2(),
        preset("TX2-CPU + Navion"));
    workload::StagePipelinePlan::Scratch scratch;
    double ai_scale[3] = {1.0, 0.0, 1.0};
    double throughput[3];
    std::uint32_t bottleneck[3];
    std::uint64_t kinds[4 * 3] = {0};
    EXPECT_FALSE(plan.tryEvaluateBlock(0, false, ai_scale, 3,
                                       throughput, bottleneck, kinds,
                                       scratch));
    EXPECT_THROW(plan.evaluateBlock(0, false, ai_scale, 3,
                                    throughput, bottleneck, kinds,
                                    scratch),
                 ModelError);
}

TEST(F1Batch, KernelsMatchAnalyzeIntoBitForBit)
{
    Rng rng(11);
    constexpr std::size_t n = 64;
    double a_max[n], range[n], sensor[n], compute[n];
    core::F1Inputs inputs[n];
    for (std::size_t i = 0; i < n; ++i) {
        a_max[i] = rng.uniform(0.5, 30.0);
        range[i] = rng.uniform(0.5, 50.0);
        sensor[i] = rng.uniform(1.0, 300.0);
        compute[i] = rng.uniform(1.0, 300.0);
        inputs[i].aMax = units::MetersPerSecondSquared(a_max[i]);
        inputs[i].sensingRange = units::Meters(range[i]);
        inputs[i].sensorRate = units::Hertz(sensor[i]);
        inputs[i].computeRate = units::Hertz(compute[i]);
        inputs[i].controlRate = units::Hertz(200.0);
        inputs[i].kneeFraction = 0.98;
    }

    double v_safe[n], knee[n], roof[n];
    std::uint8_t bound[n];
    ASSERT_TRUE(core::analyzeBlock(a_max, range, sensor, compute,
                                   200.0, 0.98, n, v_safe, knee,
                                   roof, bound));
    double v_only[n];

    core::F1Analysis scalar;
    for (std::size_t i = 0; i < n; ++i) {
        core::F1Model::analyzeInto(inputs[i], scalar);
        EXPECT_EQ(v_safe[i], scalar.safeVelocity.value());
        EXPECT_EQ(knee[i], scalar.kneeThroughput.value());
        EXPECT_EQ(roof[i], scalar.roofVelocity.value());
        EXPECT_EQ(bound[i],
                  static_cast<std::uint8_t>(scalar.bound));
    }

    // Constant-physics variant against the same scalars.
    for (std::size_t i = 0; i < n; ++i) {
        inputs[i].aMax = units::MetersPerSecondSquared(6.0);
        inputs[i].sensingRange = units::Meters(4.5);
    }
    ASSERT_TRUE(core::analyzeVSafeBlock(6.0, 4.5, sensor, compute,
                                        200.0, n, v_only));
    for (std::size_t i = 0; i < n; ++i) {
        core::F1Model::analyzeInto(inputs[i], scalar);
        EXPECT_EQ(v_only[i], scalar.safeVelocity.value());
    }

    // Invalid samples flip the flag instead of throwing.
    sensor[13] = 0.0;
    EXPECT_FALSE(core::analyzeBlock(a_max, range, sensor, compute,
                                    200.0, 0.98, n, v_safe, knee,
                                    roof, bound));
    EXPECT_FALSE(core::analyzeVSafeBlock(6.0, 4.5, sensor, compute,
                                         200.0, n, v_only));
}

/** Exact equality over every field the samplers report. */
void
expectIdentical(const sim::UncertaintyResult &a,
                const sim::UncertaintyResult &b)
{
    EXPECT_EQ(a.samples, b.samples);
    const auto expect_dist = [](const sim::Distribution &x,
                                const sim::Distribution &y) {
        EXPECT_EQ(x.mean, y.mean);
        EXPECT_EQ(x.stddev, y.stddev);
        EXPECT_EQ(x.p5, y.p5);
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
    };
    expect_dist(a.safeVelocity, b.safeVelocity);
    expect_dist(a.kneeThroughput, b.kneeThroughput);
    expect_dist(a.roofVelocity, b.roofVelocity);
    EXPECT_EQ(a.probComputeBound, b.probComputeBound);
    EXPECT_EQ(a.probSensorBound, b.probSensorBound);
    EXPECT_EQ(a.probControlBound, b.probControlBound);
    EXPECT_EQ(a.probPhysicsBound, b.probPhysicsBound);
    EXPECT_EQ(a.probComputeCeilingBinds, b.probComputeCeilingBinds);
    EXPECT_EQ(a.probMemoryCeilingBinds, b.probMemoryCeilingBinds);
    ASSERT_EQ(a.stageBindings.size(), b.stageBindings.size());
    for (std::size_t s = 0; s < a.stageBindings.size(); ++s) {
        EXPECT_EQ(a.stageBindings[s].stage, b.stageBindings[s].stage);
        EXPECT_EQ(a.stageBindings[s].probComputeBound,
                  b.stageBindings[s].probComputeBound);
        EXPECT_EQ(a.stageBindings[s].probMemoryBound,
                  b.stageBindings[s].probMemoryBound);
        EXPECT_EQ(a.stageBindings[s].probMeasured,
                  b.stageBindings[s].probMeasured);
    }
}

/** The three Monte-Carlo evaluation paths under stress. */
std::vector<sim::UncertaintySpec>
monteCarloSpecs()
{
    std::vector<sim::UncertaintySpec> specs;

    sim::UncertaintySpec legacy;
    legacy.nominal = studies::pelicanInputs(units::Hertz(55.0));
    specs.push_back(legacy);

    // Flat platform path with the AI spread straddling the machine
    // knee, so the binding ceiling varies sample to sample.
    sim::UncertaintySpec flat;
    flat.nominal = studies::pelicanInputs(units::Hertz(55.0));
    flat.platform = preset("Nvidia TX2");
    flat.profile.ai = units::OpsPerByte(22.3);
    flat.workPerFrameGop = 0.04;
    flat.aiRelStd = 0.4;
    specs.push_back(flat);

    // Per-stage pipeline path on the accelerator family.
    sim::UncertaintySpec staged;
    staged.nominal = studies::pelicanInputs(units::Hertz(20.0));
    staged.platform = preset("TX2-CPU + Navion");
    staged.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    staged.aiRelStd = 0.10;
    staged.computeRelStd = 0.05;
    specs.push_back(staged);

    // Five factors per sample (an odd count, as the legacy path's
    // three): Box-Muller pairs straddle samples.
    sim::UncertaintySpec five = staged;
    five.sensorRelStd = 0.02;
    specs.push_back(five);
    sim::UncertaintySpec flat_five = flat;
    flat_five.sensorRelStd = 0.02;
    specs.push_back(flat_five);

    return specs;
}

TEST(MonteCarloBatch, RunMatchesReferenceAtEveryThreadCount)
{
    // Odd counts exercise partial kernel blocks and a partial
    // trailing RNG block. The tail sub-batch of 5003 holds 11
    // samples and that of 2113 one sample, so with three or five
    // factors per sample it draws an odd number of normals.
    for (const std::size_t count : {5003u, 2113u}) {
        for (const sim::UncertaintySpec &spec : monteCarloSpecs()) {
            const sim::MonteCarloAnalyzer analyzer(spec);
            const sim::UncertaintyResult reference =
                analyzer.runReference(count, 9);
            for (const std::size_t threads : {1u, 2u, 8u}) {
                exec::ThreadPool pool(threads);
                exec::ParallelOptions options;
                options.pool = &pool;
                expectIdentical(reference,
                                analyzer.run(count, 9, options));
            }
        }
    }
}

TEST(MonteCarloBatch, NativeAndForcedScalarRunsAreIdentical)
{
    const simd::Mode saved = simd::activeMode();
    for (const sim::UncertaintySpec &spec : monteCarloSpecs()) {
        const sim::MonteCarloAnalyzer analyzer(spec);
        simd::setMode(simd::Mode::Scalar);
        const sim::UncertaintyResult scalar = analyzer.run(5003, 13);
        simd::setMode(simd::Mode::Native);
        expectIdentical(scalar, analyzer.run(5003, 13));
    }
    simd::setMode(saved);
}

/** Exact equality over every field the campaign reports. */
void
expectIdentical(const fault::CampaignResult &a,
                const fault::CampaignResult &b)
{
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.abortProbability, b.abortProbability);
    EXPECT_EQ(a.faultActivationRate, b.faultActivationRate);
    EXPECT_EQ(a.safeVelocity.mean, b.safeVelocity.mean);
    EXPECT_EQ(a.safeVelocity.stddev, b.safeVelocity.stddev);
    EXPECT_EQ(a.safeVelocity.p5, b.safeVelocity.p5);
    EXPECT_EQ(a.safeVelocity.p50, b.safeVelocity.p50);
    EXPECT_EQ(a.safeVelocity.p95, b.safeVelocity.p95);
    EXPECT_EQ(a.probComputeCeilingBinds, b.probComputeCeilingBinds);
    EXPECT_EQ(a.probMemoryCeilingBinds, b.probMemoryCeilingBinds);
    ASSERT_EQ(a.stageBindings.size(), b.stageBindings.size());
    for (std::size_t s = 0; s < a.stageBindings.size(); ++s) {
        EXPECT_EQ(a.stageBindings[s].probComputeBound,
                  b.stageBindings[s].probComputeBound);
        EXPECT_EQ(a.stageBindings[s].probMemoryBound,
                  b.stageBindings[s].probMemoryBound);
        EXPECT_EQ(a.stageBindings[s].probMeasured,
                  b.stageBindings[s].probMeasured);
    }
}

/** A TX2 + DroNet campaign spec loaded with one standard suite. */
fault::CampaignSpec
tx2Campaign(const std::string &suite)
{
    const auto &catalog = components::Catalog::standard();
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &dronet = algorithms.byName("DroNet");

    fault::CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = tx2;
    spec.profile = workload::workloadProfile(dronet, tx2);
    spec.workPerFrameGop = dronet.workPerFrameGop();
    spec.faults = fault::findFaultSuite(suite).faults;
    (void)catalog;
    return spec;
}

/** Campaign specs covering every layer combination. */
std::vector<fault::CampaignSpec>
campaignSpecs()
{
    std::vector<fault::CampaignSpec> specs;
    for (const char *suite : {"ceiling-derate", "thermal-throttle",
                              "sensor-dropout", "mixed"})
        specs.push_back(tx2Campaign(suite));

    // Pipeline-only.
    fault::CampaignSpec staged;
    staged.nominal = studies::pelicanInputs(units::Hertz(20.0));
    staged.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    staged.redundancy = pipeline::RedundancyScheme::Dual;
    staged.faults = fault::findFaultSuite("stage-failure").faults;
    specs.push_back(staged);

    // Combined platform + pipeline + sensor: every layer at once,
    // exercising the per-stage path's outcome table.
    fault::CampaignSpec combined = staged;
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &spa = algorithms.byName("SPA package delivery");
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    combined.platform = tx2;
    combined.profile = workload::workloadProfile(spa, tx2);
    combined.workPerFrameGop = spa.workPerFrameGop();
    for (const fault::FaultSpec &fault :
         fault::findFaultSuite("mixed").faults)
        combined.faults.push_back(fault);
    specs.push_back(combined);

    return specs;
}

TEST(CampaignBatch, RunMatchesReferenceAtEveryThreadCount)
{
    const std::size_t count = 4111;
    for (const fault::CampaignSpec &spec : campaignSpecs()) {
        const fault::FaultCampaign campaign(spec);
        const fault::CampaignResult reference =
            campaign.runReference(count, 13);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            exec::ThreadPool pool(threads);
            exec::ParallelOptions options;
            options.pool = &pool;
            expectIdentical(reference,
                            campaign.run(count, 13, options));
        }
    }
}

/**
 * The widest campaign the outcome table admits: 8 platform faults
 * (stage-scoped ones included), 4 pipeline and 4 sensor faults, so
 * the table has 2^16 entries and a mission's mask needs all 16 key
 * bits.
 */
fault::CampaignSpec
sixteenFaultSpec()
{
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &spa = algorithms.byName("SPA package delivery");
    const platform::RooflinePlatform &navion =
        preset("TX2-CPU + Navion");
    fault::CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = navion;
    spec.profile = workload::workloadProfile(spa, navion);
    spec.workPerFrameGop = spa.workPerFrameGop();
    spec.pipeline = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.redundancy = pipeline::RedundancyScheme::Dual;
    for (const char *suite :
         {"ecc-fallback", "cache-contention", "ceiling-derate",
          "thermal-throttle", "stage-failure", "sensor-dropout"}) {
        for (const fault::FaultSpec &fault :
             fault::findFaultSuite(suite).faults)
            spec.faults.push_back(fault);
    }
    for (const double factor : {1.5, 2.0}) {
        fault::FaultSpec slow;
        slow.name = "SLAM slowdown x" + std::to_string(factor);
        slow.kind = fault::FaultKind::StageLatencyInflation;
        slow.probability = 0.25;
        slow.stage = "SLAM";
        slow.latencyFactor = factor;
        spec.faults.push_back(slow);
    }
    for (const double derate : {0.25, 0.75}) {
        fault::FaultSpec sensor;
        sensor.name = "sensor derate " + std::to_string(derate);
        sensor.kind = fault::FaultKind::SensorDropout;
        sensor.probability = 0.3;
        sensor.sensorDerate = derate;
        spec.faults.push_back(sensor);
    }
    return spec;
}

TEST(CampaignBatch, SixteenFaultCampaignMatchesReference)
{
    const fault::CampaignSpec spec = sixteenFaultSpec();
    ASSERT_EQ(spec.faults.size(), 16u);
    const fault::FaultCampaign campaign(spec);

    const std::size_t count = 4111;
    const fault::CampaignResult reference =
        campaign.runReference(count, 29);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        exec::ParallelOptions options;
        options.pool = &pool;
        expectIdentical(reference, campaign.run(count, 29, options));
    }
}

/** A DRAM stall, in about one mission in a thousand, that derates
 * the memory roof to the smallest subnormal bandwidth. */
fault::FaultSpec
dramStall()
{
    fault::FaultSpec stall;
    stall.name = "DRAM stall";
    stall.kind = fault::FaultKind::CeilingDerate;
    stall.ceilingKind = platform::CeilingKind::Memory;
    stall.ceilingIndex = 0;
    stall.derate = std::numeric_limits<double>::denorm_min();
    stall.probability = 0.001;
    return stall;
}

/** The ModelError message `call` throws, or "" when it returns. */
template <typename Call>
std::string
errorOf(const Call &call)
{
    try {
        call();
    } catch (const ModelError &e) {
        return e.what();
    }
    return "";
}

/** `spec` at curve level `level` of `levels`: its probabilityScale
 * scaled as sweepSeverity() scales it. */
fault::CampaignSpec
scaledSpec(fault::CampaignSpec spec, std::size_t level, std::size_t levels)
{
    spec.probabilityScale *=
        static_cast<double>(level) / static_cast<double>(levels - 1);
    return spec;
}

/** The message of the first level, in level order, whose scaled
 * campaign's oracle throws, or "" when none does. */
std::string
firstLevelError(const fault::CampaignSpec &spec, std::size_t levels,
                std::size_t count, std::uint64_t seed)
{
    for (std::size_t level = 0; level < levels; ++level) {
        const fault::FaultCampaign scaled(scaledSpec(spec, level, levels));
        const std::string message =
            errorOf([&] { scaled.runReference(count, seed); });
        if (!message.empty())
            return message;
    }
    return "";
}

TEST(CampaignBatch, RejectedOutcomeThrowsAtTheSameMissionOnBothPaths)
{
    // An outcome the scalar path rejects: a DRAM stall derates the
    // memory roof to the smallest subnormal, so the compute rate
    // underflows to 0 and F1Model refuses it. The campaign still
    // constructs; only a mission that draws the stall throws.
    fault::CampaignSpec spec = tx2Campaign("mixed");
    spec.workPerFrameGop = 1e6;
    spec.faults.push_back(dramStall());
    const fault::FaultCampaign campaign(spec);

    // Locate the first rejected mission on the oracle alone: the
    // draws of missions [0, n) do not depend on n, so the oracle
    // throws exactly when n passes that mission.
    const std::uint64_t seed = 5;
    std::size_t clean = 10;
    std::size_t rejected = 20000;
    ASSERT_EQ(errorOf([&] { campaign.runReference(clean, seed); }), "");
    ASSERT_NE(errorOf([&] { campaign.runReference(rejected, seed); }), "");
    while (rejected - clean > 1) {
        const std::size_t mid = (clean + rejected) / 2;
        if (errorOf([&] { campaign.runReference(mid, seed); }).empty())
            clean = mid;
        else
            rejected = mid;
    }
    const std::string message =
        errorOf([&] { campaign.runReference(rejected, seed); });
    EXPECT_NE(message.find("computeRate"), std::string::npos)
        << message;

    // A sweep throws what its first throwing level throws.
    const std::string sweep_message =
        firstLevelError(spec, 5, rejected, seed);
    ASSERT_NE(sweep_message, "");
    for (const std::size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        exec::ParallelOptions options;
        options.pool = &pool;
        EXPECT_EQ(errorOf([&] { campaign.run(rejected, seed, options); }),
                  message)
            << threads << " threads";
        EXPECT_EQ(errorOf([&] {
                      campaign.sweepSeverity(5, rejected, seed, options);
                  }),
                  sweep_message)
            << threads << " threads";
        // One mission fewer never draws the stall: both paths run.
        expectIdentical(campaign.runReference(clean, seed),
                        campaign.run(clean, seed, options));
    }

    // Nor does a campaign whose stall never activates.
    spec.faults.back().probability = 0.0;
    const fault::FaultCampaign idle(spec);
    expectIdentical(idle.runReference(rejected, seed),
                    idle.run(rejected, seed));
}

TEST(CampaignBatch, NaNSafeVelocityIsNamedLikeTheOracle)
{
    // The same DRAM stall at DroNet's own work per frame leaves a
    // subnormal compute rate: F1Model accepts it, but its period
    // overflows and v_safe comes out NaN. The summary then fails on
    // both paths naming the same survivor.
    fault::CampaignSpec spec = tx2Campaign("mixed");
    spec.faults.push_back(dramStall());
    const fault::FaultCampaign campaign(spec);

    const std::string message =
        errorOf([&] { campaign.runReference(20000, 5); });
    EXPECT_NE(message.find("is NaN"), std::string::npos) << message;
    // A sweep names the NaN survivor of its first throwing level. At
    // seed 3 the levels name different survivors, so the sweep must
    // throw in level order to match.
    const std::string sweep_message = firstLevelError(spec, 5, 20000, 3);
    EXPECT_NE(sweep_message.find("is NaN"), std::string::npos)
        << sweep_message;
    EXPECT_NE(sweep_message,
              errorOf([&] { campaign.runReference(20000, 3); }));
    for (const std::size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        exec::ParallelOptions options;
        options.pool = &pool;
        EXPECT_EQ(errorOf([&] { campaign.run(20000, 5, options); }),
                  message)
            << threads << " threads";
        EXPECT_EQ(errorOf([&] {
                      campaign.sweepSeverity(5, 20000, 3, options);
                  }),
                  sweep_message)
            << threads << " threads";
    }
}

TEST(CampaignBatch, DegradationCurveRidesTheBatchedRuns)
{
    // Every layer combination at 5 levels; the 16-fault campaign,
    // whose sweep draws once per level; and a 12-fault one at 20
    // levels, whose sweep bins 16 levels in its first draw and 4 in
    // its second.
    std::vector<std::pair<fault::CampaignSpec, std::size_t>> cases;
    for (const fault::CampaignSpec &spec : campaignSpecs())
        cases.emplace_back(spec, 5);
    cases.emplace_back(sixteenFaultSpec(), 5);
    fault::CampaignSpec twelve = sixteenFaultSpec();
    twelve.faults.resize(12);
    cases.emplace_back(twelve, 20);

    const std::size_t count = 4111;
    const std::uint64_t seed = 17;
    for (const auto &[spec, levels] : cases) {
        // Each level is run() on a severity-scaled spec; pin it
        // against the reference oracle of the same scaled campaign.
        std::vector<fault::CampaignResult> references;
        for (std::size_t level = 0; level < levels; ++level) {
            const fault::FaultCampaign scaled(
                scaledSpec(spec, level, levels));
            references.push_back(scaled.runReference(count, seed));
        }
        const fault::FaultCampaign campaign(spec);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            exec::ThreadPool pool(threads);
            exec::ParallelOptions options;
            options.pool = &pool;
            const fault::FaultCampaign::SeveritySweep sweep =
                campaign.sweepSeverity(levels, count, seed, options);
            ASSERT_EQ(sweep.curve.size(), levels);
            for (std::size_t level = 0; level < levels; ++level) {
                const fault::DegradationPoint &point = sweep.curve[level];
                const fault::CampaignResult &reference =
                    references[level];
                EXPECT_EQ(point.scale,
                          static_cast<double>(level) /
                              static_cast<double>(levels - 1));
                EXPECT_EQ(point.meanSafeVelocity,
                          reference.safeVelocity.mean);
                EXPECT_EQ(point.p5SafeVelocity, reference.safeVelocity.p5);
                EXPECT_EQ(point.p95SafeVelocity,
                          reference.safeVelocity.p95);
                EXPECT_EQ(point.abortProbability,
                          reference.abortProbability);
            }
            expectIdentical(references.back(), sweep.fullSeverity);
            const std::vector<fault::DegradationPoint> curve =
                campaign.degradationCurve(levels, count, seed, options);
            ASSERT_EQ(curve.size(), levels);
            for (std::size_t level = 0; level < levels; ++level) {
                EXPECT_EQ(curve[level].meanSafeVelocity,
                          sweep.curve[level].meanSafeVelocity);
                EXPECT_EQ(curve[level].abortProbability,
                          sweep.curve[level].abortProbability);
            }
        }
    }
}

TEST(Kernels, BlockEvaluationIsAllocationFree)
{
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    platform::WorkloadProfile profile;
    profile.ai = units::OpsPerByte(1.0);
    const platform::EvaluationPlan plan(tx2, profile);
    const workload::StagePipelinePlan stage_plan(
        workload::SpaPipeline::mavbenchPackageDeliveryTx2(),
        preset("TX2-CPU + Navion"));

    constexpr std::size_t n = 64;
    double ai[n], ai_scale[n], attainable[n], throughput[n];
    double sensor[n], compute[n], v_safe[n], knee[n], roof[n];
    std::uint32_t slot[n], bottleneck[n];
    std::uint8_t bound[n];
    std::uint64_t kinds[4 * 3] = {0};
    workload::StagePipelinePlan::Scratch scratch;
    for (std::size_t i = 0; i < n; ++i) {
        ai[i] = 1.0 + 0.25 * static_cast<double>(i);
        ai_scale[i] = 0.5 + 0.01 * static_cast<double>(i);
        sensor[i] = 30.0 + static_cast<double>(i);
        compute[i] = 20.0 + static_cast<double>(i);
    }

    const double spreads[] = {0.1, 0.05, 0.2, 0.1, 0.02};
    const sim::LognormalDraw draw(spreads);
    double factors[sim::LognormalDraw::maxFactors][n];
    double *const columns[] = {factors[0], factors[1], factors[2],
                               factors[3], factors[4]};
    Rng rng(5);
    sim::LognormalDraw::Carry carry;

    // Warm-up (first call may fault in lazily-initialized state).
    plan.evaluateBlock(0, ai, n, attainable, slot);
    stage_plan.evaluateBlock(0, false, ai_scale, n, throughput,
                             bottleneck, kinds, scratch);
    draw.drawBlock(rng, n, columns);

    const std::size_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    for (int iter = 0; iter < 16; ++iter) {
        plan.evaluateBlock(0, ai, n, attainable, slot);
        stage_plan.evaluateBlock(0, false, ai_scale, n, throughput,
                                 bottleneck, kinds, scratch);
        core::analyzeBlock(ai, ai_scale, sensor, compute, 200.0,
                           0.98, n, v_safe, knee, roof, bound);
        core::analyzeVSafeBlock(6.0, 4.5, sensor, compute, 200.0, n,
                                v_safe);
        draw.drawBlock(rng, n, columns);
        draw.drawSample(rng, carry, factors[0]);
    }
    const std::size_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "block kernels must not allocate on the hot path";
}

TEST(Exec, ParallelForSlotsCoversEveryIndexWithBoundedSlots)
{
    exec::ThreadPool pool(4);
    exec::ParallelOptions options;
    options.pool = &pool;
    options.grain = 8;
    const std::size_t slots = exec::maxSlots(options);
    EXPECT_EQ(slots, 4u);

    constexpr std::size_t count = 1000;
    std::vector<std::atomic<int>> visits(count);
    std::mutex mutex;
    std::set<std::size_t> seen_slots;
    exec::parallelForSlots(
        count,
        [&](std::size_t slot, std::size_t begin, std::size_t end) {
            ASSERT_LT(slot, slots);
            {
                const std::lock_guard<std::mutex> lock(mutex);
                seen_slots.insert(slot);
            }
            for (std::size_t i = begin; i < end; ++i)
                visits[i].fetch_add(1, std::memory_order_relaxed);
        },
        options);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(visits[i].load(), 1) << i;
    EXPECT_GE(seen_slots.size(), 1u);
}

TEST(Exec, SuggestedGrainIsThreadIndependentAndBounded)
{
    // Pure function of (count, cost): no thread-count input at all,
    // so chunk geometry can never depend on the machine.
    const std::size_t g = exec::suggestedGrain(1u << 20, 100.0);
    EXPECT_EQ(g, exec::suggestedGrain(1u << 20, 100.0));
    EXPECT_GE(g, 1u);

    // Cheap work gets big chunks, expensive work small ones.
    EXPECT_GT(exec::suggestedGrain(1u << 20, 1.0),
              exec::suggestedGrain(1u << 20, 10000.0));
    // Never exceeds the loop itself.
    EXPECT_LE(exec::suggestedGrain(10, 1.0), 10u);
    EXPECT_GE(exec::suggestedGrain(0, 1.0), 1u);
}

TEST(DseBatch, SweepMatchesPerPointAnalyze)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    core::UavConfig::Builder prototype("dse");
    prototype
        .airframe(catalog.airframes().byName("AscTec Pelican"))
        .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"));
    const skyline::DesignSpaceExplorer dse(prototype);

    const std::vector<components::ComputePlatform> computes = {
        catalog.computes().byName("Nvidia TX2"),
        catalog.computes().byName("Intel NCS"),
        catalog.computes().byName("Ras-Pi4"),
        catalog.computes().byName("Nvidia AGX")};
    const std::vector<workload::AutonomyAlgorithm> algos = {
        algorithms.byName("DroNet"),
        algorithms.byName("TrailNet")};

    const auto points = dse.sweep(computes, algos);
    ASSERT_EQ(points.size(), computes.size() * algos.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &point = points[i];
        if (!point.feasible) {
            EXPECT_FALSE(point.infeasibleReason.empty());
            continue;
        }
        // Rebuild the config and compare the sweep's analysis with
        // F1Model::analyze(), field for field.
        core::UavConfig::Builder builder = prototype;
        const core::UavConfig config =
            builder.compute(computes[i / algos.size()])
                .algorithm(algos[i % algos.size()])
                .build();
        const core::F1Analysis scalar = config.f1Model().analyze();
        EXPECT_EQ(point.analysis.safeVelocity.value(),
                  scalar.safeVelocity.value());
        EXPECT_EQ(point.analysis.kneeThroughput.value(),
                  scalar.kneeThroughput.value());
        EXPECT_EQ(point.analysis.roofVelocity.value(),
                  scalar.roofVelocity.value());
        EXPECT_EQ(point.analysis.bound, scalar.bound);
        EXPECT_EQ(point.analysis.verdict, scalar.verdict);
        EXPECT_EQ(point.safeVelocity, scalar.safeVelocity.value());
    }
}

} // namespace
