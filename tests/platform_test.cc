/**
 * @file
 * Unit tests for the platform layer: the multi-ceiling
 * RooflinePlatform, DVFS operating points, the single-ceiling
 * ComputePlatform adapter, the catalog presets, and the ceiling
 * attribution pass-through in the F-1 hot path.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "components/catalog.hh"
#include "core/f1_model.hh"
#include "platform/roofline_platform.hh"
#include "plot/roofline_chart.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::platform;

/** A TX2-flavoured two-by-two family used across the tests. */
RooflinePlatform::Spec
familySpec()
{
    RooflinePlatform::Spec spec;
    spec.name = "family";
    spec.computeCeilings = {{"scalar", Gops(40.0),
                             ComputeTarget::Scalar, {}},
                            {"GPU", Gops(1000.0),
                             ComputeTarget::Accelerator, {}}};
    spec.memoryCeilings = {{"DRAM", GigabytesPerSecond(60.0)},
                           {"on-chip", GigabytesPerSecond(300.0)}};
    spec.operatingPoints = {{"nominal", 1.0, Watts(10.0)},
                            {"half", 0.5, Watts(3.0)}};
    return spec;
}

TEST(RooflinePlatform, ValidatesSpec)
{
    RooflinePlatform::Spec spec = familySpec();
    spec.name.clear();
    EXPECT_THROW(RooflinePlatform{spec}, ModelError);

    spec = familySpec();
    spec.computeCeilings.clear();
    EXPECT_THROW(RooflinePlatform{spec}, ModelError);

    spec = familySpec();
    spec.memoryCeilings.clear();
    EXPECT_THROW(RooflinePlatform{spec}, ModelError);

    spec = familySpec();
    spec.computeCeilings[0].peak = Gops(0.0);
    EXPECT_THROW(RooflinePlatform{spec}, ModelError);

    spec = familySpec();
    spec.memoryCeilings[1].bandwidth = GigabytesPerSecond(-1.0);
    EXPECT_THROW(RooflinePlatform{spec}, ModelError);

    spec = familySpec();
    spec.operatingPoints[1].frequencyFraction = 1.5;
    EXPECT_THROW(RooflinePlatform{spec}, ModelError);

    spec = familySpec();
    spec.operatingPoints[1].frequencyFraction = 0.0;
    EXPECT_THROW(RooflinePlatform{spec}, ModelError);
}

TEST(RooflinePlatform, DefaultsToANominalOperatingPoint)
{
    RooflinePlatform::Spec spec = familySpec();
    spec.operatingPoints.clear();
    const RooflinePlatform machine{spec};
    ASSERT_EQ(machine.operatingPoints().size(), 1u);
    EXPECT_EQ(machine.operatingPoints()[0].name, "nominal");
    EXPECT_DOUBLE_EQ(machine.operatingPoints()[0].frequencyFraction,
                     1.0);
}

TEST(RooflinePlatform, AttributesTheBindingCeiling)
{
    const RooflinePlatform machine{familySpec()};

    // High AI: the best compute roof binds (GPU, index 1).
    const AttainableBound compute_bound =
        machine.attainable(OpsPerByte(100.0));
    EXPECT_DOUBLE_EQ(compute_bound.attainable.value(), 1000.0);
    EXPECT_TRUE(compute_bound.binding.attributed);
    EXPECT_EQ(compute_bound.binding.kind, CeilingKind::Compute);
    EXPECT_EQ(compute_bound.binding.index, 1);
    EXPECT_EQ(machine.ceilingName(compute_bound.binding), "GPU");
    // An attribution is never equal to the unattributed default.
    EXPECT_NE(compute_bound.binding, CeilingRef{});

    // Low AI: the slowest memory level binds (DRAM, index 0).
    const AttainableBound memory_bound =
        machine.attainable(OpsPerByte(0.1));
    EXPECT_DOUBLE_EQ(memory_bound.attainable.value(), 6.0);
    EXPECT_EQ(memory_bound.binding.kind, CeilingKind::Memory);
    EXPECT_EQ(memory_bound.binding.index, 0);
    EXPECT_EQ(machine.ceilingName(memory_bound.binding), "DRAM");
}

TEST(RooflinePlatform, OperatingPointScalesTheWholeFamily)
{
    const RooflinePlatform machine{familySpec()};
    const std::size_t half = machine.operatingPointIndex("half");
    EXPECT_EQ(half, 1u);
    for (const double ai : {0.01, 0.3, 3.0, 40.0, 500.0}) {
        const double nominal =
            machine.attainable(OpsPerByte(ai), 0).attainable.value();
        const double scaled =
            machine.attainable(OpsPerByte(ai), half)
                .attainable.value();
        EXPECT_NEAR(scaled, 0.5 * nominal, 1e-9 * nominal) << ai;
        // Scaling never changes which ceiling binds.
        EXPECT_EQ(machine.attainable(OpsPerByte(ai), 0).binding,
                  machine.attainable(OpsPerByte(ai), half).binding)
            << ai;
    }
    EXPECT_THROW(machine.operatingPointIndex("turbo"), ModelError);
    EXPECT_THROW(machine.attainable(OpsPerByte(1.0), 2), ModelError);
}

TEST(RooflinePlatform, RejectsDegenerateArithmeticIntensity)
{
    const RooflinePlatform machine{familySpec()};
    EXPECT_THROW(machine.attainable(OpsPerByte(0.0)), ModelError);
    EXPECT_THROW(machine.attainable(OpsPerByte(-1.0)), ModelError);
}

TEST(RooflinePlatform, PropertySingleCeilingEqualsFlatBound)
{
    // The acceptance property: a one-compute/one-memory family must
    // reproduce the flat min(peak, AI x BW) bound bit-for-bit at
    // every DVFS operating point, and on every family -- the
    // multi-ceiling catalog presets included -- the default
    // (unannotated) WorkloadProfile is the flat-AI evaluation,
    // bit-for-bit.
    const double peak = 1330.0;
    const double bw = 59.7;
    RooflinePlatform::Spec flat_spec;
    flat_spec.name = "flat";
    flat_spec.computeCeilings.push_back(
        {"effective peak", Gops(peak), ComputeTarget::General, {}});
    flat_spec.memoryCeilings.push_back(
        {"DRAM", GigabytesPerSecond(bw)});
    flat_spec.operatingPoints = platform::dvfsOperatingPoints(
        Watts(7.5), {{"nominal", 1.0},
                     {"p80", 0.8},
                     {"p55", 0.55},
                     {"p33", 0.33},
                     {"floor", 0.2}});
    const RooflinePlatform flat_machine{flat_spec};
    const auto catalog = components::Catalog::standard();
    std::vector<const RooflinePlatform *> machines = {&flat_machine};
    for (const RooflinePlatform &family : catalog.rooflines().items())
        machines.push_back(&family);

    for (const RooflinePlatform *machine : machines) {
        const auto &ops = machine->operatingPoints();
        for (std::size_t op = 0; op < ops.size(); ++op) {
            const double f = ops[op].frequencyFraction;
            // 37 log-spaced intensities across eight decades.
            for (int i = 0; i <= 36; ++i) {
                const double ai = std::pow(10.0, -4.0 + i * 8.0 / 36.0);
                const AttainableBound bound =
                    machine->attainable(OpsPerByte(ai), op);
                WorkloadProfile profile;
                profile.ai = OpsPerByte(ai);
                const AttainableBound via_profile =
                    machine->attainable(profile, op);
                EXPECT_EQ(via_profile.attainable.value(),
                          bound.attainable.value())
                    << machine->name() << " op " << op << " ai " << ai;
                EXPECT_EQ(via_profile.binding, bound.binding)
                    << machine->name() << " op " << op << " ai " << ai;
                if (machine != &flat_machine)
                    continue;

                const double flat = std::min(peak * f, ai * (bw * f));
                EXPECT_EQ(bound.attainable.value(), flat)
                    << "op " << op << " ai " << ai;
                // With one ceiling per family the attribution index
                // is always 0 and the kind matches the flat argmin.
                EXPECT_EQ(bound.binding.index, 0);
                EXPECT_EQ(bound.binding.kind,
                          peak * f <= ai * (bw * f)
                              ? CeilingKind::Compute
                              : CeilingKind::Memory);
            }
        }
    }
}

TEST(ComputePlatform, IsASingleCeilingAdapter)
{
    const auto catalog = components::Catalog::standard();
    for (const auto &flat : catalog.computes().items()) {
        const RooflinePlatform &family = flat.roofline();
        ASSERT_EQ(family.computeCeilings().size(), 1u) << flat.name();
        ASSERT_EQ(family.memoryCeilings().size(), 1u) << flat.name();
        // Bit-for-bit: the adapter exposes the family's ceilings.
        EXPECT_EQ(flat.peakThroughput().value(),
                  family.computeCeilings()[0].peak.value());
        EXPECT_EQ(flat.memoryBandwidth().value(),
                  family.memoryCeilings()[0].bandwidth.value());
        EXPECT_EQ(family.operatingPoints()[0].tdp.value(),
                  flat.tdp().value());
    }
}

TEST(Catalog, RooflinePresetsAreMultiCeiling)
{
    const auto catalog = components::Catalog::standard();
    for (const char *name :
         {"Nvidia TX2", "Nvidia AGX", "ARM Cortex-M4"}) {
        const RooflinePlatform &machine =
            catalog.rooflines().byName(name);
        EXPECT_GE(machine.computeCeilings().size(), 2u) << name;
        EXPECT_GE(machine.memoryCeilings().size(), 2u) << name;
        EXPECT_GE(machine.operatingPoints().size(), 3u) << name;

        // The binding ceilings (best compute target, slowest memory
        // level) match the flat catalog entry of the same name, so
        // adapter and family agree on the attainable bound.
        const auto &flat = catalog.computes().byName(name);
        double best_peak = 0.0;
        for (const auto &ceiling : machine.computeCeilings())
            best_peak = std::max(best_peak, ceiling.peak.value());
        double slowest_bw = machine.memoryCeilings()[0].bandwidth
                                .value();
        for (const auto &ceiling : machine.memoryCeilings())
            slowest_bw =
                std::min(slowest_bw, ceiling.bandwidth.value());
        EXPECT_EQ(best_peak, flat.peakThroughput().value()) << name;
        EXPECT_EQ(slowest_bw, flat.memoryBandwidth().value())
            << name;

        // DVFS operating points: monotone frequency, monotone TDP,
        // nominal first at the flat part's TDP.
        const auto &points = machine.operatingPoints();
        EXPECT_EQ(points[0].name, "nominal");
        EXPECT_EQ(points[0].tdp.value(), flat.tdp().value()) << name;
        for (std::size_t i = 1; i < points.size(); ++i) {
            EXPECT_LT(points[i].frequencyFraction,
                      points[i - 1].frequencyFraction);
            EXPECT_LT(points[i].tdp.value(),
                      points[i - 1].tdp.value());
        }
    }
    EXPECT_TRUE(
        studies::rooflinePlatformPresets().contains("Nvidia TX2"));
}

TEST(Throughput, CeilingSetBoundCarriesAttribution)
{
    const RooflinePlatform machine{familySpec()};
    // AI = 100 op/B, work = 2 GOP: compute roof 1000 GOPS -> 500 Hz.
    WorkloadProfile profile;
    profile.ai = OpsPerByte(100.0);
    const auto compute_bound =
        workload::rooflineBound(2.0, profile, machine);
    EXPECT_DOUBLE_EQ(compute_bound.value.value(), 500.0);
    EXPECT_EQ(compute_bound.source,
              workload::ThroughputSource::RooflineBound);
    EXPECT_EQ(compute_bound.binding.kind, CeilingKind::Compute);
    EXPECT_EQ(compute_bound.binding.index, 1);

    // AI = 0.1 op/B: DRAM roof 6 GOPS -> 3 Hz.
    profile.ai = OpsPerByte(0.1);
    const auto memory_bound =
        workload::rooflineBound(2.0, profile, machine);
    EXPECT_DOUBLE_EQ(memory_bound.value.value(), 3.0);
    EXPECT_EQ(memory_bound.binding.kind, CeilingKind::Memory);
    EXPECT_EQ(memory_bound.binding.index, 0);
}

TEST(F1Model, CeilingAttributionPassesThroughTheHotPath)
{
    static_assert(
        std::is_trivially_copyable_v<platform::CeilingRef>,
        "CeilingRef must stay trivially copyable for the "
        "allocation-free hot path");

    core::F1Inputs inputs;
    inputs.aMax = MetersPerSecondSquared(4.12);
    inputs.sensingRange = Meters(2.73);
    inputs.sensorRate = Hertz(60.0);
    inputs.computeRate = Hertz(20.0);

    // The default is unattributed (measured throughput, override).
    core::F1Analysis out;
    core::F1Model::analyzeInto(inputs, out);
    EXPECT_FALSE(out.computeBinding.attributed);

    inputs.computeBinding = {CeilingKind::Memory, 1, true};
    core::F1Model::analyzeInto(inputs, out);
    EXPECT_TRUE(out.computeBinding.attributed);
    EXPECT_EQ(out.computeBinding, inputs.computeBinding);
    EXPECT_EQ(core::F1Model(inputs).analyze().computeBinding,
              inputs.computeBinding);
}

TEST(Plot, CeilingFamilySeriesCoverEveryCeiling)
{
    const RooflinePlatform machine{familySpec()};
    const auto series =
        plot::ceilingFamilySeries(machine, 0, 0.01, 1000.0, 33);
    // 2 compute + 2 memory + the attainable envelope.
    ASSERT_EQ(series.size(), 5u);
    EXPECT_EQ(series[0].name(), "compute: scalar");
    EXPECT_EQ(series[3].name(), "memory: on-chip");
    EXPECT_EQ(series[4].name(), "attainable");
    EXPECT_EQ(series[4].size(), 33u);
    // At high AI the envelope sits on the best compute roof.
    EXPECT_DOUBLE_EQ(series[4].points().back().y, 1000.0);

    const plot::Chart chart = plot::makeCeilingFamilyChart(
        "family roofline", machine, 1, 0.01, 1000.0, 17);
    EXPECT_EQ(chart.series().size(), 5u);
    EXPECT_THROW(
        plot::ceilingFamilySeries(machine, 0, 0.0, 1.0, 8),
        ModelError);
    EXPECT_THROW(
        plot::ceilingFamilySeries(machine, 0, 1.0, 1.0, 8),
        ModelError);
    EXPECT_THROW(
        plot::ceilingFamilySeries(machine, 0, 0.1, 1.0, 1),
        ModelError);
}

TEST(Dvfs, OperatingPointsFollowTheCmosLaw)
{
    const auto points = platform::dvfsOperatingPoints(
        Watts(10.0), {{"nominal", 1.0}, {"half", 0.5}});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].tdp.value(), 10.0);
    // leakage 1 W + dynamic 9 W * 0.5^3.
    EXPECT_NEAR(points[1].tdp.value(), 1.0 + 9.0 * 0.125, 1e-12);
    EXPECT_THROW(
        platform::dvfsOperatingPoints(Watts(10.0), {{"stopped", 0.0}}),
        ModelError);
}

TEST(RooflinePlatform, CeilingNamesAndKinds)
{
    const RooflinePlatform machine{familySpec()};
    EXPECT_STREQ(toString(CeilingKind::Compute), "compute");
    EXPECT_STREQ(toString(CeilingKind::Memory), "memory");
    EXPECT_EQ(machine.ceilingName({CeilingKind::Compute, 0}),
              "scalar");
    EXPECT_EQ(machine.ceilingName({CeilingKind::Memory, 0}), "DRAM");
    EXPECT_THROW(machine.ceilingName({CeilingKind::Compute, 9}),
                 ModelError);
    EXPECT_THROW(machine.ceilingName({CeilingKind::Memory, 9}),
                 ModelError);
}

TEST(CeilingRef, FamilyTagMakesMisattributionDetectable)
{
    const RooflinePlatform machine{familySpec()};
    RooflinePlatform::Spec other_spec = familySpec();
    other_spec.name = "other-family";
    const RooflinePlatform other{other_spec};

    ASSERT_NE(machine.familyTag(), 0u);
    ASSERT_NE(machine.familyTag(), other.familyTag());

    const CeilingRef ref =
        machine.attainable(OpsPerByte(100.0)).binding;
    EXPECT_EQ(ref.family, machine.familyTag());
    EXPECT_TRUE(machine.resolves(ref));
    EXPECT_FALSE(other.resolves(ref));
    // Resolving against the producing family works; against any
    // other family it is an error, not a silent misattribution.
    EXPECT_EQ(machine.ceilingName(ref), "GPU");
    EXPECT_THROW(other.ceilingName(ref), ModelError);
    EXPECT_THROW(other.ceilingRoof(ref, OpsPerByte(1.0)),
                 ModelError);

    // Untagged (hand-made) refs resolve anywhere, bounds allowing.
    const CeilingRef untagged{CeilingKind::Compute, 0, true};
    EXPECT_TRUE(machine.resolves(untagged));
    EXPECT_TRUE(other.resolves(untagged));
    // A name-preserving copy keeps the tag, so DVFS variants of one
    // platform stay interchangeable.
    RooflinePlatform::Spec variant_spec = familySpec();
    variant_spec.operatingPoints = {{"nominal", 1.0, Watts(10.0)}};
    const RooflinePlatform variant{variant_spec};
    EXPECT_EQ(variant.familyTag(), machine.familyTag());
    EXPECT_TRUE(variant.resolves(ref));

    // Equality distinguishes same-looking refs from different
    // families.
    const CeilingRef foreign =
        other.attainable(OpsPerByte(100.0)).binding;
    EXPECT_EQ(foreign.kind, ref.kind);
    EXPECT_EQ(foreign.index, ref.index);
    EXPECT_NE(foreign, ref);
}

TEST(WorkloadProfile, ApplicabilityMaskSkipsForeignTargets)
{
    const RooflinePlatform machine{familySpec()};

    // A scalar-only kernel cannot ride the GPU roof: the scalar
    // ceiling — not the platform's most capable target — binds.
    WorkloadProfile scalar_only;
    scalar_only.ai = OpsPerByte(100.0);
    scalar_only.targets = targetBit(ComputeTarget::Scalar);
    const AttainableBound bound = machine.attainable(scalar_only);
    EXPECT_DOUBLE_EQ(bound.attainable.value(), 40.0);
    EXPECT_EQ(bound.binding.kind, CeilingKind::Compute);
    EXPECT_EQ(bound.binding.index, 0);

    // A mask admitting every target reproduces the unannotated
    // evaluation.
    WorkloadProfile all = scalar_only;
    all.targets = kAllTargets;
    EXPECT_EQ(machine.attainable(all).attainable.value(),
              machine.attainable(OpsPerByte(100.0))
                  .attainable.value());

    // A mask no ceiling satisfies is an error, not a silent
    // fallback (familySpec has no Simd ceiling).
    WorkloadProfile simd_only = scalar_only;
    simd_only.targets = targetBit(ComputeTarget::Simd);
    EXPECT_THROW(machine.attainable(simd_only), ModelError);

    // General ceilings apply to every workload: the single-ceiling
    // adapter family accepts even a scalar-only profile.
    const RooflinePlatform flat = RooflinePlatform::singleCeiling(
        "flat", Gops(100.0), GigabytesPerSecond(10.0));
    EXPECT_NO_THROW(flat.attainable(scalar_only));
}

TEST(WorkloadProfile, StageGatedCeilingAppliesOnlyToItsStage)
{
    RooflinePlatform::Spec spec = familySpec();
    spec.computeCeilings.push_back(
        {"VIO ASIC", Gops(5000.0), ComputeTarget::Accelerator,
         "SLAM"});
    const RooflinePlatform machine{spec};

    WorkloadProfile profile;
    profile.ai = OpsPerByte(1000.0);

    // A whole-algorithm profile (no stage) cannot use the gated
    // ceiling: the ungated GPU roof binds.
    EXPECT_DOUBLE_EQ(machine.attainable(profile).attainable.value(),
                     1000.0);

    // The SLAM-stage kernel unlocks it.
    profile.stage = stageTag("SLAM");
    const AttainableBound slam = machine.attainable(profile);
    EXPECT_DOUBLE_EQ(slam.attainable.value(), 5000.0);
    EXPECT_EQ(machine.ceilingName(slam.binding), "VIO ASIC");

    // A different stage does not.
    profile.stage = stageTag("planning");
    EXPECT_DOUBLE_EQ(machine.attainable(profile).attainable.value(),
                     1000.0);
    EXPECT_NE(stageTag("SLAM"), stageTag("planning"));
    EXPECT_EQ(stageTag(""), 0u);
}

TEST(WorkloadProfile, CarmCrossoverBindsOnChipThenCompute)
{
    // The CARM acceptance property: a working set that fits on
    // chip (only 5% of its bytes reach DRAM) must bind the on-chip
    // ceiling at low AI and hand off to the compute roof at high
    // AI — the weakest-link chain would pin DRAM forever.
    const RooflinePlatform machine{familySpec()};
    WorkloadProfile cached;
    cached.trafficFraction[0] = 0.05; // DRAM sees 5% of the bytes.

    // Low AI: on-chip (300 GB/s at the raw AI) is below both the
    // DRAM level (60 GB/s at 20x the AI => 1200 x ai) and the GPU.
    cached.ai = OpsPerByte(1.0);
    const AttainableBound low = machine.attainable(cached);
    EXPECT_EQ(low.binding.kind, CeilingKind::Memory);
    EXPECT_EQ(machine.ceilingName(low.binding), "on-chip");
    EXPECT_DOUBLE_EQ(low.attainable.value(), 300.0);
    // The unannotated profile at the same AI stays DRAM-bound.
    const AttainableBound flat =
        machine.attainable(OpsPerByte(1.0));
    EXPECT_EQ(machine.ceilingName(flat.binding), "DRAM");
    EXPECT_DOUBLE_EQ(flat.attainable.value(), 60.0);

    // High AI: the compute roof takes over (crossover at
    // ai = 1000/300).
    cached.ai = OpsPerByte(50.0);
    const AttainableBound high = machine.attainable(cached);
    EXPECT_EQ(high.binding.kind, CeilingKind::Compute);
    EXPECT_EQ(machine.ceilingName(high.binding), "GPU");
    EXPECT_DOUBLE_EQ(high.attainable.value(), 1000.0);

    // Zero traffic at a level: that level can never bind.
    WorkloadProfile sram_only;
    sram_only.ai = OpsPerByte(0.001);
    sram_only.trafficFraction[0] = 0.0;
    const AttainableBound no_dram = machine.attainable(sram_only);
    EXPECT_EQ(machine.ceilingName(no_dram.binding), "on-chip");

    // Degenerate fractions are rejected.
    WorkloadProfile bad;
    bad.ai = OpsPerByte(1.0);
    bad.trafficFraction[1] = -0.5;
    EXPECT_THROW(machine.attainable(bad), ModelError);
}

TEST(WorkloadProfile, ValidationNamesTheOffendingField)
{
    const RooflinePlatform machine{familySpec()};
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // NaN / non-positive AI is rejected, and the diagnostic names
    // the field so a bad annotation is findable from the message.
    WorkloadProfile bad_ai;
    bad_ai.ai = OpsPerByte(nan);
    try {
        machine.attainable(bad_ai);
        FAIL() << "NaN ai must throw";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("ai"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("family"),
                  std::string::npos);
    }
    bad_ai.ai = OpsPerByte(-2.0);
    EXPECT_THROW(machine.attainable(bad_ai), ModelError);
    bad_ai.ai = OpsPerByte(0.0);
    EXPECT_THROW(machine.attainable(bad_ai), ModelError);
    bad_ai.ai =
        OpsPerByte(std::numeric_limits<double>::infinity());
    EXPECT_THROW(machine.attainable(bad_ai), ModelError);

    // NaN and negative traffic fractions likewise, with the level
    // index in the message.
    WorkloadProfile bad_traffic;
    bad_traffic.ai = OpsPerByte(1.0);
    bad_traffic.trafficFraction[1] = nan;
    try {
        machine.attainable(bad_traffic);
        FAIL() << "NaN trafficFraction must throw";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("trafficFraction[1]"),
                  std::string::npos);
    }
    bad_traffic.trafficFraction[1] = -0.25;
    EXPECT_THROW(machine.attainable(bad_traffic), ModelError);

    // A fraction above 1 is legal: write amplification means a
    // level can see more bytes than the algorithm's nominal count.
    WorkloadProfile amplified;
    amplified.ai = OpsPerByte(1.0);
    amplified.trafficFraction[0] = 2.0;
    EXPECT_NO_THROW(machine.attainable(amplified));

    // The standalone validator is callable directly.
    EXPECT_NO_THROW(validateWorkloadProfile(amplified, "test"));
    EXPECT_THROW(validateWorkloadProfile(bad_traffic, "test"),
                 ModelError);
}

TEST(Workload, TraitsMapOntoAPlatformProfile)
{
    const auto algorithms = workload::annotatedAlgorithms();
    const auto catalog = components::Catalog::standard();
    const RooflinePlatform &tx2 =
        catalog.rooflines().byName("Nvidia TX2");

    // The calibrated DroNet annotation (DRAM traffic fraction
    // 0.95 <= 1) maps onto the TX2's DRAM level, leaves targets and
    // stage unconstrained, and — because it only *raises* the DRAM
    // CARM roof — keeps the classic compute-bound number
    // bit-for-bit.
    const auto &dronet = algorithms.byName("DroNet");
    const WorkloadProfile plain =
        workload::workloadProfile(dronet, tx2);
    EXPECT_EQ(plain.targets, kAllTargets);
    EXPECT_EQ(plain.stage, 0u);
    EXPECT_DOUBLE_EQ(plain.trafficFraction[0], 0.95);
    WorkloadProfile flat;
    flat.ai = dronet.arithmeticIntensity();
    EXPECT_EQ(workload::rooflineBound(dronet, tx2).value.value(),
              workload::rooflineBound(dronet.workPerFrameGop(), flat,
                                      tx2)
                  .value.value());

    // The scalar-only variant binds the scalar ceiling (index 0),
    // not the platform's top GPU roof.
    const auto scalar_bound = workload::rooflineBound(
        algorithms.byName("DroNet (scalar-only)"), tx2);
    EXPECT_EQ(scalar_bound.binding.kind, CeilingKind::Compute);
    EXPECT_EQ(tx2.ceilingName(scalar_bound.binding),
              "Denver2/A57 scalar");
    EXPECT_DOUBLE_EQ(scalar_bound.value.value(), 42.0 / 0.04);

    // The cache-resident VIO kernel binds the on-chip memory level
    // on the TX2 family (CARM), and the stage-gated Navion ceiling
    // on the accelerator family.
    const auto &vio =
        algorithms.byName("VIO frontend (cache-resident)");
    const auto vio_tx2 = workload::rooflineBound(vio, tx2);
    EXPECT_EQ(vio_tx2.binding.kind, CeilingKind::Memory);
    EXPECT_EQ(tx2.ceilingName(vio_tx2.binding), "GPU L2/shared");

    const RooflinePlatform &navion =
        catalog.rooflines().byName("TX2-CPU + Navion");
    const auto vio_navion = workload::rooflineBound(vio, navion);
    // AI 0.5: on-chip roof 150 GOPS < the 200 GOPS Navion ceiling,
    // so memory still binds; a denser SLAM kernel rides the ASIC.
    EXPECT_EQ(navion.ceilingName(vio_navion.binding),
              "on-chip SRAM");
    workload::AutonomyAlgorithm dense_vio =
        workload::AutonomyAlgorithm("dense VIO",
                                    workload::Paradigm::SensePlanAct,
                                    0.2, 10.0)
            .withTraits(vio.traits());
    const auto dense_bound =
        workload::rooflineBound(dense_vio, navion);
    EXPECT_EQ(navion.ceilingName(dense_bound.binding),
              "Navion VIO ASIC");

    // Level names a platform lacks are ignored — annotations travel
    // across platforms.
    const RooflinePlatform &m4 =
        catalog.rooflines().byName("ARM Cortex-M4");
    EXPECT_NO_THROW(workload::rooflineBound(vio, m4));

    // Traits validation.
    workload::WorkloadTraits bad;
    bad.levelTraffic = {{"DRAM", -1.0}};
    EXPECT_THROW(dronet.withTraits(bad), ModelError);
}

} // namespace
