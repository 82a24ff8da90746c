/**
 * @file
 * Fig. 15 (Section VI-D): {NCS, TX2, Ras-Pi4} x {DroNet, TrailNet,
 * VGG16, CAD2RL} on the Pelican and the Spark, each throughput
 * measured where the paper measured it and a roofline bound
 * elsewhere.
 */

#include <map>

#include "components/catalog.hh"
#include "scenario/studies/common.hh"
#include "studies/presets.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/algorithm.hh"
#include "workload/throughput.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    const auto oracle = workload::ThroughputOracle::standard();

    StudyResult result;
    result.xLabel = "f_compute_hz";
    result.yLabel = "v_safe_mps";

    TextTable table({"UAV", "Algorithm", "Compute",
                     "Throughput (Hz)", "v_safe (m/s)",
                     "Factor vs knee"});
    plot::Series pelican("AscTec Pelican",
                         plot::SeriesStyle::Markers);
    plot::Series spark("DJI Spark", plot::SeriesStyle::Markers);
    double pelican_knee = 0.0;
    double spark_knee = 0.0;
    // Throughput and factor vs knee by "uav/algorithm/compute".
    std::map<std::string, double> throughput;
    std::map<std::string, double> factor;
    for (const char *uav : {"AscTec Pelican", "DJI Spark"}) {
        const bool is_spark = uav == std::string("DJI Spark");
        for (const char *algorithm :
             {"DroNet", "TrailNet", "VGG16", "CAD2RL"}) {
            for (const char *compute :
                 {"Intel NCS", "Nvidia TX2", "Ras-Pi4"}) {
                const units::Hertz rate =
                    oracle
                        .throughput(algorithms.byName(algorithm),
                                    catalog.computes().byName(compute))
                        .value;
                const core::F1Analysis analysis =
                    core::F1Model(is_spark ? studies::sparkInputs(rate)
                                           : studies::pelicanInputs(rate))
                        .analyze();
                const std::string key = std::string(uav) + "/" +
                                        algorithm + "/" + compute;
                throughput[key] = rate.value();
                factor[key] = factorVsKnee(analysis);
                (is_spark ? spark_knee : pelican_knee) =
                    analysis.kneeThroughput.value();
                table.addRow(
                    {uav, algorithm, compute,
                     trimmedNumber(rate.value(), 4),
                     trimmedNumber(analysis.safeVelocity.value(), 2),
                     trimmedNumber(factor[key], 2)});
                (is_spark ? spark : pelican)
                    .add(rate.value(), analysis.safeVelocity.value());
            }
        }
    }
    result.series.push_back(std::move(pelican));
    result.series.push_back(std::move(spark));

    result
        .addMetric("pelican_knee", pelican_knee, "Hz",
                   paper(43.0, 1.0, "Fig. 15: Pelican knee at 43 Hz"))
        .addMetric("spark_knee", spark_knee, "Hz",
                   paper(30.0, 1.0, "Fig. 15: Spark knee at 30 Hz"))
        .addMetric("entries", static_cast<double>(throughput.size()))
        .addMetric("spark_tx2_dronet_over_provision",
                   throughput.at("DJI Spark/DroNet/Nvidia TX2") /
                       spark_knee,
                   "",
                   paper(6.0, 0.6,
                         "Fig. 15: DroNet on a TX2 over-provisions "
                         "the Spark ~6x"))
        .addMetric("pelican_raspi4_dronet_speedup",
                   factor.at("AscTec Pelican/DroNet/Ras-Pi4"), "",
                   paper(3.3, 0.1,
                         "Fig. 15: Ras-Pi4 needs 3.3x for DroNet"))
        .addMetric("pelican_raspi4_trailnet_speedup",
                   factor.at("AscTec Pelican/TrailNet/Ras-Pi4"), "",
                   paper(110.0, 1.0,
                         "Fig. 15: Ras-Pi4 needs 110x for TrailNet"))
        .addMetric("pelican_raspi4_cad2rl_speedup",
                   factor.at("AscTec Pelican/CAD2RL/Ras-Pi4"), "",
                   paper(660.0, 1.0,
                         "Fig. 15: Ras-Pi4 needs 660x for CAD2RL"));
    result.summary = table.render();
    return result;
}

} // namespace

StudyInfo
fig15Study()
{
    return {"fig15", "Fig. 15: full-system sweep",
            "{NCS, TX2, Ras-Pi4} x {DroNet, TrailNet, VGG16, "
            "CAD2RL} on Pelican and Spark",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
