/**
 * @file
 * Fig. 16 (Section VII): accelerator pitfalls on the nano-UAV.
 * PULP-DroNet runs full autonomy at 6 Hz in 64 mW; Navion runs SLAM
 * at 172 FPS in 2 mW, but inside the SPA pipeline the path planner
 * then bounds the decision rate.
 */

#include "scenario/studies/common.hh"
#include "studies/presets.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &)
{
    const workload::SpaPipeline navion_pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2()
            .withStageLatency("SLAM",
                              workload::SpaPipeline::navionSlamLatency(),
                              " + Navion");
    const struct
    {
        const char *name;
        double throughputHz;
        double powerWatts;
    } entries[] = {
        {"PULP-DroNet",
         workload::ThroughputOracle::standard()
             .measured("DroNet", "PULP-GAP8")
             .value(),
         0.064},
        {"Navion (SPA pipeline)", navion_pipeline.throughput().value(),
         0.002},
    };

    StudyResult result;
    result.xLabel = "f_action_hz";
    result.yLabel = "v_safe_mps";

    TextTable table({"Accelerator", "Decision rate (Hz)",
                     "Power (W)", "Required speedup"});
    plot::Series points("accelerators", plot::SeriesStyle::Markers);
    core::F1Analysis analyses[2];
    for (std::size_t i = 0; i < 2; ++i) {
        core::F1Model::analyzeInto(
            studies::nanoInputs(units::Hertz(entries[i].throughputHz)),
            analyses[i]);
        table.addRow({entries[i].name,
                      trimmedNumber(entries[i].throughputHz, 3),
                      trimmedNumber(entries[i].powerWatts, 3),
                      trimmedNumber(analyses[i].requiredSpeedup, 2)});
        points.add(entries[i].throughputHz,
                   analyses[i].safeVelocity.value());
    }
    result.series.push_back(std::move(points));

    result
        .addMetric("knee_throughput",
                   analyses[0].kneeThroughput.value(), "Hz",
                   paper(26.0, 1.0, "Fig. 16: nano-UAV knee at 26 Hz"))
        .addMetric("pulp_required_speedup", analyses[0].requiredSpeedup,
                   "",
                   paper(4.33, 0.01, "Fig. 16: PULP-DroNet needs "
                                     "4.33x"))
        .addMetric("navion_required_speedup",
                   analyses[1].requiredSpeedup, "",
                   paper(21.1, 0.1, "Fig. 16: Navion in SPA needs "
                                    "21.1x"))
        .addMetric("pulp_throughput", entries[0].throughputHz, "Hz",
                   paper(6.0, 1.0, "Fig. 16: PULP-DroNet at 6 Hz"))
        .addMetric("navion_latency",
                   navion_pipeline.totalLatency().value() * 1000.0,
                   "ms",
                   paper(810.0, 1.0,
                         "Fig. 16: SPA with Navion takes 810 ms"))
        .addMetric("navion_throughput", entries[1].throughputHz, "Hz",
                   paper(1.23, 0.01,
                         "Fig. 16: SPA with Navion at 1.23 Hz"));
    result.summary = table.render();
    return result;
}

} // namespace

StudyInfo
fig16Study()
{
    return {"fig16", "Fig. 16: accelerator pitfalls",
            "PULP-DroNet and Navion-in-SPA on the nano-UAV",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
