/**
 * @file
 * Unit tests for the workload library: algorithm descriptors, the
 * SPA stage pipeline (incl. the Navion substitution numbers) and
 * the throughput oracle with its classic-roofline bound.
 */

#include <gtest/gtest.h>

#include "components/catalog.hh"
#include "platform/roofline_platform.hh"
#include "support/errors.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::workload;

TEST(Algorithm, ArithmeticIntensity)
{
    const AutonomyAlgorithm algo("x", Paradigm::EndToEnd, 0.04, 2.0);
    // 0.04 GOP / 2 MB = 4e7 / 2e6 = 20 op/B.
    EXPECT_NEAR(algo.arithmeticIntensity().value(), 20.0, 1e-9);
}

TEST(Algorithm, StandardRegistryContents)
{
    const auto algorithms = standardAlgorithms();
    for (const char *name : {"DroNet", "TrailNet", "CAD2RL", "VGG16",
                             "SPA package delivery"}) {
        EXPECT_TRUE(algorithms.contains(name)) << name;
    }
    EXPECT_EQ(algorithms.byName("DroNet").paradigm(),
              Paradigm::EndToEnd);
    EXPECT_EQ(algorithms.byName("SPA package delivery").paradigm(),
              Paradigm::SensePlanAct);
}

TEST(Algorithm, ParadigmNames)
{
    EXPECT_STREQ(toString(Paradigm::SensePlanAct), "Sense-Plan-Act");
    EXPECT_STREQ(toString(Paradigm::EndToEnd), "End-to-End");
}

TEST(Algorithm, WorkloadSizesOrdered)
{
    const auto algorithms = standardAlgorithms();
    // DroNet is the smallest network, VGG16 the biggest.
    EXPECT_LT(algorithms.byName("DroNet").workPerFrameGop(),
              algorithms.byName("TrailNet").workPerFrameGop());
    EXPECT_LT(algorithms.byName("TrailNet").workPerFrameGop(),
              algorithms.byName("CAD2RL").workPerFrameGop());
    EXPECT_LT(algorithms.byName("CAD2RL").workPerFrameGop(),
              algorithms.byName("VGG16").workPerFrameGop());
}

TEST(SpaPipeline, PaperAnchorLatencies)
{
    const auto pipeline = SpaPipeline::mavbenchPackageDeliveryTx2();
    // Paper Section VI-B: 1.1 Hz end-to-end on TX2.
    EXPECT_NEAR(pipeline.totalLatency().value(), 0.909, 1e-3);
    EXPECT_NEAR(pipeline.throughput().value(), 1.1, 0.005);
    EXPECT_EQ(pipeline.stages().size(), 4u);
}

TEST(SpaPipeline, NavionSubstitutionMatchesPaper)
{
    const auto host = SpaPipeline::mavbenchPackageDeliveryTx2();
    const auto with_navion = host.withStageLatency(
        "SLAM", SpaPipeline::navionSlamLatency(), " + Navion");
    // Paper Section VII: 810 ms total, 1.23 Hz.
    EXPECT_NEAR(with_navion.totalLatency().value(), 0.810, 0.002);
    EXPECT_NEAR(with_navion.throughput().value(), 1.23, 0.01);
    // Navion runs SLAM at 172 FPS.
    EXPECT_NEAR(SpaPipeline::navionSlamLatency().value(),
                1.0 / 172.0, 1e-12);
}

TEST(SpaPipeline, StandardRegistryContents)
{
    const auto &pipelines = standardPipelines();
    EXPECT_EQ(pipelines.size(), 2u);
    EXPECT_TRUE(
        pipelines.contains("MAVBench package delivery (TX2)"));

    // The Navion entry matches the paper's Section VII what-if:
    // SLAM replaced by the 172 FPS kernel, 810 ms end-to-end.
    const auto &navion = pipelines.byName(
        "MAVBench package delivery (TX2) + Navion SLAM");
    EXPECT_NEAR(navion.totalLatency().value(), 0.810, 0.002);
    EXPECT_EQ(navion.measuredOn(), "Nvidia TX2");

    // Unknown names get the catalog's did-you-mean treatment.
    try {
        (void)pipelines.byName("MAVBench package delivery (TX1)");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean"),
                  std::string::npos);
    }

    // The algorithm mapping and the registry agree on the baseline.
    const auto mapped = standardPipelineFor("SPA package delivery");
    ASSERT_TRUE(mapped.has_value());
    EXPECT_EQ(mapped->name(),
              pipelines.items().front().name());
}

TEST(SpaPipeline, UnknownStageThrows)
{
    const auto pipeline = SpaPipeline::mavbenchPackageDeliveryTx2();
    EXPECT_THROW(
        pipeline.withStageLatency("Nonexistent", Seconds(0.01), "x"),
        ModelError);
    EXPECT_THROW(SpaPipeline("empty", {}), ModelError);
}

TEST(Oracle, SeededWithPaperMeasurements)
{
    const auto oracle = ThroughputOracle::standard();
    EXPECT_DOUBLE_EQ(
        oracle.measured("DroNet", "Nvidia TX2").value(), 178.0);
    EXPECT_DOUBLE_EQ(
        oracle.measured("DroNet", "Nvidia AGX").value(), 230.0);
    EXPECT_DOUBLE_EQ(
        oracle.measured("DroNet", "Intel NCS").value(), 150.0);
    EXPECT_DOUBLE_EQ(
        oracle.measured("TrailNet", "Nvidia TX2").value(), 55.0);
    EXPECT_DOUBLE_EQ(
        oracle.measured("DroNet", "PULP-GAP8").value(), 6.0);
    EXPECT_DOUBLE_EQ(
        oracle.measured("SPA package delivery", "Nvidia TX2").value(),
        1.1);
}

TEST(Oracle, MissingMeasurementThrows)
{
    const auto oracle = ThroughputOracle::standard();
    EXPECT_THROW(oracle.measured("DroNet", "Intel NUC"), ModelError);
    EXPECT_FALSE(oracle.hasMeasurement("DroNet", "Intel NUC"));
    EXPECT_TRUE(oracle.hasMeasurement("DroNet", "Nvidia TX2"));
}

TEST(Oracle, MeasuredTakesPrecedenceOverBound)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = standardAlgorithms();
    const auto oracle = ThroughputOracle::standard();

    const auto measured = oracle.throughput(
        algorithms.byName("DroNet"),
        catalog.computes().byName("Nvidia TX2"));
    EXPECT_EQ(measured.source, ThroughputSource::Measured);
    EXPECT_DOUBLE_EQ(measured.value.value(), 178.0);

    const auto bound = oracle.throughput(
        algorithms.byName("DroNet"),
        catalog.computes().byName("Intel NUC"));
    EXPECT_EQ(bound.source, ThroughputSource::RooflineBound);
    EXPECT_GT(bound.value.value(), 0.0);
}

TEST(Oracle, RooflineBoundIsAnUpperBoundOnMeasurements)
{
    // The classic roofline gives *attainable* performance; every
    // paper measurement must sit at or below it.
    const auto catalog = components::Catalog::standard();
    const auto algorithms = standardAlgorithms();
    const auto oracle = ThroughputOracle::standard();

    const struct { const char *algo, *platform; } pairs[] = {
        {"DroNet", "Nvidia TX2"},   {"DroNet", "Nvidia AGX"},
        {"DroNet", "Intel NCS"},    {"DroNet", "Ras-Pi4"},
        {"DroNet", "PULP-GAP8"},    {"TrailNet", "Nvidia TX2"},
        {"TrailNet", "Ras-Pi4"},    {"VGG16", "Nvidia TX2"},
    };
    for (const auto &pair : pairs) {
        const double bound =
            rooflineBound(
                algorithms.byName(pair.algo),
                catalog.computes().byName(pair.platform).roofline())
                .value.value();
        const double measured =
            oracle.measured(pair.algo, pair.platform).value();
        EXPECT_GE(bound, measured)
            << pair.algo << " on " << pair.platform;
    }
}

TEST(Oracle, RooflineBoundSelectsMemoryOrComputeRoof)
{
    // Tiny AI workload on a bandwidth-starved machine must be
    // memory-bound: bound = AI * BW / work.
    const AutonomyAlgorithm streamy("streamy", Paradigm::EndToEnd,
                                    0.001, 100.0); // AI = 0.01 op/B
    const components::ComputePlatform fat_compute({
        .name = "fat",
        .tdp = Watts(10.0),
        .moduleMass = Grams(100.0),
        .peakThroughput = Gops(1000.0),
        .memoryBandwidth = GigabytesPerSecond(1.0),
        .role = components::ComputeRole::GeneralPurpose,
        .description = "",
    });
    const double expected = 0.01 * 1.0 / 0.001; // 10 Hz.
    EXPECT_NEAR(
        rooflineBound(streamy, fat_compute.roofline()).value.value(),
        expected, 1e-9);

    // Compute-heavy workload on the same machine is compute-bound.
    const AutonomyAlgorithm dense("dense", Paradigm::EndToEnd, 10.0,
                                  1.0); // AI = 10000 op/B
    EXPECT_NEAR(
        rooflineBound(dense, fat_compute.roofline()).value.value(),
        1000.0 / 10.0, 1e-9);
}

TEST(Oracle, RooflineBoundRejectsDegenerateInputs)
{
    // Satellite hardening contract: degenerate workload or machine
    // parameters raise a clear ModelError instead of producing
    // inf/NaN Hertz.
    const auto machine = platform::RooflinePlatform::singleCeiling(
        "m", Gops(100.0), GigabytesPerSecond(10.0));

    // Zero / negative work per frame.
    platform::WorkloadProfile profile;
    profile.ai = OpsPerByte(1.0);
    EXPECT_THROW(rooflineBound(0.0, profile, machine), ModelError);
    EXPECT_THROW(rooflineBound(-1.0, profile, machine), ModelError);
    // Zero arithmetic intensity.
    profile.ai = OpsPerByte(0.0);
    EXPECT_THROW(rooflineBound(1.0, profile, machine), ModelError);
    // Zero bandwidth: rejected at platform construction, before a
    // bound can ever divide by it.
    EXPECT_THROW(platform::RooflinePlatform::singleCeiling(
                     "z", Gops(100.0), GigabytesPerSecond(0.0)),
                 ModelError);
    EXPECT_THROW(platform::RooflinePlatform::singleCeiling(
                     "z", Gops(0.0), GigabytesPerSecond(10.0)),
                 ModelError);
    // Algorithms reject degenerate per-frame profiles at
    // construction, so the algorithm overloads can't reach them.
    EXPECT_THROW(
        AutonomyAlgorithm("bad", Paradigm::EndToEnd, 0.0, 1.0),
        ModelError);
    EXPECT_THROW(
        AutonomyAlgorithm("bad", Paradigm::EndToEnd, -0.5, 1.0),
        ModelError);
    EXPECT_THROW(
        AutonomyAlgorithm("bad", Paradigm::EndToEnd, 1.0, 0.0),
        ModelError);
    // A vanishing work-per-frame against a large roof would round
    // to inf Hz: clear error instead.
    profile.ai = OpsPerByte(1000.0);
    EXPECT_THROW(rooflineBound(1e-305, profile, machine), ModelError);
}

TEST(Oracle, FallbackCarriesBindingCeiling)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = standardAlgorithms();
    const auto oracle = ThroughputOracle::standard();

    // DroNet (AI ~26.7 op/B) on the NUC: AI x BW = 682 GB/s-op
    // exceeds the 400 GOPS peak, so the compute ceiling binds.
    const auto bound = oracle.throughput(
        algorithms.byName("DroNet"),
        catalog.computes().byName("Intel NUC"));
    EXPECT_EQ(bound.source, ThroughputSource::RooflineBound);
    EXPECT_TRUE(bound.binding.attributed);
    EXPECT_EQ(bound.binding.kind, platform::CeilingKind::Compute);
    EXPECT_EQ(bound.binding.index, 0);
    EXPECT_EQ(catalog.computes()
                  .byName("Intel NUC")
                  .roofline()
                  .ceilingName(bound.binding),
              "effective peak");

    // Measured entries carry no ceiling attribution.
    const auto measured = oracle.throughput(
        algorithms.byName("DroNet"),
        catalog.computes().byName("Nvidia TX2"));
    EXPECT_EQ(measured.source, ThroughputSource::Measured);
    EXPECT_FALSE(measured.binding.attributed);
}

TEST(Oracle, AddMeasurementOverrides)
{
    auto oracle = ThroughputOracle::standard();
    oracle.addMeasurement("DroNet", "Nvidia TX2", Hertz(200.0));
    EXPECT_DOUBLE_EQ(
        oracle.measured("DroNet", "Nvidia TX2").value(), 200.0);
    EXPECT_THROW(
        oracle.addMeasurement("x", "y", Hertz(0.0)), ModelError);
}

TEST(Oracle, SourceNames)
{
    EXPECT_STREQ(toString(ThroughputSource::Measured), "measured");
    EXPECT_STREQ(toString(ThroughputSource::RooflineBound),
                 "roofline-bound");
}

} // namespace
