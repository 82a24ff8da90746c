/**
 * @file
 * Fig. 11 (Section VI-A): Intel NCS or Nvidia AGX on a DJI Spark
 * running DroNet, built through the component path: the Spark
 * airframe, a 60 FPS / 6 m camera and each platform's paper-quoted
 * payload (NCS 47 g; AGX 280 g module + 162 g heat sink at 30 W).
 * The what-if runs the AGX at 15 W and equal throughput, which halves
 * its heat sink to 81 g and raises its roof ~1.75x.
 */

#include "components/catalog.hh"
#include "core/uav_config.hh"
#include "scenario/studies/common.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/throughput.hh"

namespace uavf1::scenario::detail {

namespace {

/** The Spark running DroNet on `platform`. */
core::UavConfig
sparkConfig(const components::Catalog &catalog,
            const components::ComputePlatform &platform)
{
    // The AGX-15W variant keeps the measured 30 W throughput (the
    // paper assumes the optimization is performance-neutral).
    workload::ThroughputOracle oracle =
        workload::ThroughputOracle::standard();
    if (!oracle.hasMeasurement("DroNet", platform.name())) {
        oracle.addMeasurement("DroNet", platform.name(),
                              oracle.measured("DroNet", "Nvidia AGX"));
    }
    core::UavConfig::Builder builder("DJI Spark + " + platform.name());
    builder.airframe(catalog.airframes().byName("DJI Spark"))
        .sensor(catalog.sensors().byName("60FPS camera (6m)"))
        .compute(platform)
        .algorithm(workload::standardAlgorithms().byName("DroNet"))
        .throughputOracle(oracle);
    return builder.build();
}

StudyResult
run(const StudyContext &)
{
    const auto catalog = components::Catalog::standard();
    const components::ComputePlatform agx =
        catalog.computes().byName("Nvidia AGX");
    // NCS, AGX at 30 W, AGX at 15 W.
    const components::ComputePlatform platforms[] = {
        catalog.computes().byName("Intel NCS"), agx,
        agx.withTdp(units::Watts(15.0), "-15W")};

    StudyResult result;
    result.xLabel = "f_compute_hz";
    result.yLabel = "v_safe_mps";

    TextTable table({"Option", "Throughput (Hz)", "Heatsink (g)",
                     "Takeoff (g)", "Roof (m/s)"});
    plot::Series points("compute options",
                        plot::SeriesStyle::Markers);
    double throughput[3];
    double heatsink[3];
    double roof[3];
    for (std::size_t i = 0; i < 3; ++i) {
        const core::UavConfig config =
            sparkConfig(catalog, platforms[i]);
        const core::F1Analysis analysis = config.f1Model().analyze();
        throughput[i] = config.computeRate().value();
        heatsink[i] =
            platforms[i].heatsinkMass(config.heatsinkModel()).value();
        roof[i] = analysis.roofVelocity.value();
        table.addRow({platforms[i].name(), trimmedNumber(throughput[i]),
                      trimmedNumber(heatsink[i], 1),
                      trimmedNumber(config.takeoffMass().value()),
                      trimmedNumber(roof[i], 2)});
        points.add(throughput[i], analysis.safeVelocity.value());
    }
    result.series.push_back(std::move(points));

    const double agx_tdp_gain = roof[2] / roof[1];
    const bool ncs_wins = roof[0] > roof[1];
    result.addMetric("ncs_roof", roof[0], "m/s")
        .addMetric("agx30_roof", roof[1], "m/s")
        .addMetric("agx15_roof", roof[2], "m/s")
        .addMetric("agx_tdp_gain", agx_tdp_gain, "",
                   paper(1.75, 0.01,
                         "Fig. 11: the AGX at 15 W raises its roof "
                         "1.75x"))
        .addMetric("ncs_wins", ncs_wins ? 1.0 : 0.0, "",
                   paper(1.0, 0.0,
                         "Fig. 11: the NCS roofline tops the "
                         "AGX-30W one"))
        .addMetric("ncs_throughput", throughput[0], "Hz",
                   paper(150.0, 1.0, "Fig. 11: DroNet on the NCS"))
        .addMetric("agx30_throughput", throughput[1], "Hz",
                   paper(230.0, 1.0, "Fig. 11: DroNet on the AGX"))
        .addMetric("agx30_heatsink", heatsink[1], "g",
                   paper(162.0, 1.0, "Fig. 11: AGX heat sink at 30 W"))
        .addMetric("agx15_heatsink", heatsink[2], "g",
                   paper(81.0, 1.0, "Fig. 11: AGX heat sink at 15 W"));
    result.summary =
        table.render() +
        strFormat("AGX 30 W -> 15 W raises the roof %.2fx; NCS %s "
                  "the AGX-30W roofline\n",
                  agx_tdp_gain, ncs_wins ? "tops" : "trails");
    return result;
}

} // namespace

StudyInfo
fig11Study()
{
    return {"fig11", "Fig. 11: compute choice",
            "Intel NCS vs Nvidia AGX on a DJI Spark running "
            "DroNet",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
