/**
 * @file
 * Fig. 14 (Section VI-C): dual-modular-redundant compute on an AscTec
 * Pelican. DroNet on a TX2 (178 Hz) with an RGB-D camera (60 FPS,
 * 4.5 m) is physics-bound; a second TX2 plus validator leaves the
 * throughput unchanged but adds payload, which lowers a_max and the
 * roof.
 *
 * Calibration: with the Pelican's 4 x 448 g-f static pull sustained
 * at 83.3% (1493 g-f usable, the derate the conservative autonomy
 * stack holds in reserve), the vertical-excess acceleration law
 * yields a 0.449x acceleration drop when the second TX2 + validator
 * joins the payload, i.e. sqrt(0.449) = 0.67x velocity: the paper's
 * 33% loss.
 */

#include "components/catalog.hh"
#include "core/uav_config.hh"
#include "scenario/studies/common.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/throughput.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &)
{
    const auto catalog = components::Catalog::standard();
    physics::AccelerationOptions accel;
    accel.law = physics::AccelerationLaw::VerticalExcess;

    StudyResult result;
    result.xLabel = "compute_g";
    result.yLabel = "v_safe_mps";

    TextTable table({"Arrangement", "Replicas", "Compute (g)",
                     "Takeoff (g)", "v_safe (m/s)"});
    plot::Series points("redundancy", plot::SeriesStyle::Markers);
    double v_safe[2];
    for (const pipeline::RedundancyScheme scheme :
         {pipeline::RedundancyScheme::None,
          pipeline::RedundancyScheme::Dual}) {
        const bool single = scheme == pipeline::RedundancyScheme::None;
        core::UavConfig::Builder builder(
            single ? "AscTec Pelican + TX2"
                   : "AscTec Pelican + 2x TX2 (DMR)");
        builder.airframe(catalog.airframes().byName("AscTec Pelican"))
            .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"))
            .compute(catalog.computes().byName("Nvidia TX2"))
            .algorithm(workload::standardAlgorithms().byName("DroNet"))
            .redundancy(pipeline::ModularRedundancy(scheme))
            .accelerationOptions(accel)
            .thrustDerate(0.833);
        const core::UavConfig config = builder.build();
        const double compute =
            config.redundancy()
                .payloadMass(*config.compute(), config.heatsinkModel())
                .value();
        double &v = v_safe[single ? 0 : 1];
        v = config.f1Model().analyze().safeVelocity.value();
        table.addRow({single ? "Roofline-TX2" : "Roofline-2x TX2",
                      trimmedNumber(config.redundancy().replicas()),
                      trimmedNumber(compute),
                      trimmedNumber(config.takeoffMass().value()),
                      trimmedNumber(v, 2)});
        points.add(compute, v);
    }
    result.series.push_back(std::move(points));

    const double loss = 100.0 * (1.0 - v_safe[1] / v_safe[0]);
    result
        .addMetric("velocity_loss", loss, "%",
                   paper(33.0, 1.0,
                         "Fig. 14: DMR costs 33% of v_safe"))
        .addMetric("single_v_safe", v_safe[0], "m/s")
        .addMetric("dual_v_safe", v_safe[1], "m/s");
    result.summary =
        table.render() +
        strFormat("DMR compute lowers v_safe by %.0f%%\n", loss);
    return result;
}

} // namespace

StudyInfo
fig14Study()
{
    return {"fig14", "Fig. 14: compute redundancy",
            "Single vs dual-modular-redundant TX2 on the "
            "Pelican",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
