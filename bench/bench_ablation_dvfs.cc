/**
 * @file
 * Ablation: DVFS derating — the paper's prescribed remedy,
 * executed.
 *
 * Section VI-C: "architects can replace the over-provisioned TX2
 * with an onboard computer with 1/5th of throughput for DroNet.
 * This will lower the TDP, which will help accommodate two onboard
 * computers within the same power envelope and reduce the payload
 * weight." Section VI-D makes the same suggestion for the Spark.
 * This bench runs that remedy through the DVFS model and measures
 * the recovered safe velocity, including the reliability side of
 * the trade.
 */

#include <cstdio>

#include "bench_common.hh"
#include "components/catalog.hh"
#include "core/uav_config.hh"
#include "pipeline/reliability.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/dvfs.hh"

namespace {

using namespace uavf1;

/** Pelican + (possibly derated) TX2 with a redundancy scheme. */
core::UavConfig
buildConfig(const components::ComputePlatform &platform,
            units::Hertz throughput,
            pipeline::RedundancyScheme scheme)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    workload::ThroughputOracle oracle =
        workload::ThroughputOracle::standard();
    oracle.addMeasurement("DroNet", platform.name(), throughput);

    physics::AccelerationOptions accel;
    accel.law = physics::AccelerationLaw::VerticalExcess;

    return core::UavConfig::Builder(platform.name())
        .airframe(catalog.airframes().byName("AscTec Pelican"))
        .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"))
        .compute(platform)
        .algorithm(algorithms.byName("DroNet"))
        .throughputOracle(oracle)
        .redundancy(pipeline::ModularRedundancy(scheme))
        .accelerationOptions(accel)
        .thrustDerate(0.833)
        .build();
}

void
printAblation()
{
    bench::banner("Ablation", "DVFS derating: the paper's remedy "
                              "for over-provisioned DMR (Fig. 14)");

    const auto catalog = components::Catalog::standard();
    const auto &tx2 = catalog.computes().byName("Nvidia TX2");
    const workload::DvfsModel dvfs;

    // The paper's 1/5-throughput suggestion: 178 -> 35.6 Hz, still
    // comfortably above... the knee region of this configuration.
    const units::Hertz nominal(178.0);
    const units::Hertz fifth(178.0 / 5.0);
    const auto tx2_fifth = dvfs.derateToThroughput(
        tx2, nominal, fifth, " (1/5 clock)");

    const thermal::HeatsinkModel heatsink;
    TextTable table({"Configuration", "f_compute (Hz)", "TDP (W)",
                     "Heatsink (g)", "Compute payload (g)",
                     "v_safe (m/s)"});

    const struct
    {
        const char *label;
        const components::ComputePlatform *platform;
        units::Hertz throughput;
        pipeline::RedundancyScheme scheme;
    } rows[] = {
        {"1x TX2 @ nominal", &tx2, nominal,
         pipeline::RedundancyScheme::None},
        {"2x TX2 @ nominal (Fig. 14 DMR)", &tx2, nominal,
         pipeline::RedundancyScheme::Dual},
        {"1x TX2 @ 1/5 clock", &tx2_fifth, fifth,
         pipeline::RedundancyScheme::None},
        {"2x TX2 @ 1/5 clock (remedied DMR)", &tx2_fifth, fifth,
         pipeline::RedundancyScheme::Dual},
    };

    double v_baseline = 0.0;
    double v_dmr_nominal = 0.0;
    double v_dmr_derated = 0.0;
    for (const auto &row : rows) {
        const auto config =
            buildConfig(*row.platform, row.throughput, row.scheme);
        const auto analysis = config.f1Model().analyze();
        const double v = analysis.safeVelocity.value();
        if (std::string(row.label) == "1x TX2 @ nominal")
            v_baseline = v;
        if (std::string(row.label).find("Fig. 14") !=
            std::string::npos) {
            v_dmr_nominal = v;
        }
        if (std::string(row.label).find("remedied") !=
            std::string::npos) {
            v_dmr_derated = v;
        }
        table.addRow(
            {row.label, trimmedNumber(row.throughput.value(), 1),
             trimmedNumber(row.platform->tdp().value(), 2),
             trimmedNumber(
                 row.platform->heatsinkMass(heatsink).value(), 1),
             trimmedNumber(
                 config.redundancy()
                     .payloadMass(*row.platform, heatsink)
                     .value(),
                 1),
             trimmedNumber(v, 2)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("  DMR velocity loss at nominal clock: %.1f%%\n",
                100.0 * (1.0 - v_dmr_nominal / v_baseline));
    std::printf("  DMR velocity loss after DVFS remedy: %.1f%%\n",
                100.0 * (1.0 - v_dmr_derated / v_baseline));
    bench::note("derating each replica to 1/5 clock recovers most "
                "of the DMR penalty, exactly as Section VI-C "
                "predicts; the power envelope of the redundant "
                "pair drops below a single nominal TX2");

    // Reliability side of the trade (extension).
    const pipeline::ReliabilityModel reliability(0.05);
    const units::Seconds mission(1800.0);
    std::printf("\n  reliability over a 30-min mission (lambda = "
                "0.05/h per module):\n");
    for (const auto scheme : {pipeline::RedundancyScheme::None,
                              pipeline::RedundancyScheme::Dual,
                              pipeline::RedundancyScheme::Triple}) {
        std::printf("    %-14s P(unsafe) = %.2e, P(mission "
                    "success) = %.4f\n",
                    pipeline::toString(scheme),
                    reliability.unsafeFailure(scheme, mission),
                    reliability.missionSuccess(scheme, mission));
    }
}

} // namespace

int
main()
{
    printAblation();
    return 0;
}
