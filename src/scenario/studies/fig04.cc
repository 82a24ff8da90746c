/**
 * @file
 * Fig. 4: the sensor-, compute- and physics-bound regions of the F-1
 * model, one point each on the Pelican configuration.
 */

#include "scenario/studies/common.hh"
#include "studies/presets.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &)
{
    StudyResult result;
    result.xLabel = "f_compute_hz";
    result.yLabel = "v_safe_mps";

    const struct
    {
        const char *label;
        double sensor;
        double compute;
    } scenarios[] = {
        {"compute-bound", 60.0, 5.0},
        {"sensor-bound", 10.0, 178.0},
        {"physics-bound", 60.0, 178.0},
    };
    TextTable table({"Scenario", "f_sensor (Hz)", "f_compute (Hz)",
                     "f_action (Hz)", "v_safe (m/s)", "Bound"});
    plot::Series points("bound regions",
                        plot::SeriesStyle::Markers);
    for (const auto &scenario : scenarios) {
        core::F1Inputs inputs = studies::pelicanInputs(
            units::Hertz(scenario.compute));
        inputs.sensorRate = units::Hertz(scenario.sensor);
        const core::F1Analysis analysis =
            core::F1Model(inputs).analyze();
        table.addRow({scenario.label,
                      trimmedNumber(scenario.sensor),
                      trimmedNumber(scenario.compute),
                      trimmedNumber(analysis.actionThroughput.value()),
                      trimmedNumber(analysis.safeVelocity.value(), 2),
                      core::toString(analysis.bound)});
        points.add(scenario.compute,
                   analysis.safeVelocity.value());
        result.addMetric(std::string(scenario.label) + "_v_safe",
                         analysis.safeVelocity.value(), "m/s");
    }
    result.series.push_back(std::move(points));
    result.summary = table.render();
    return result;
}

} // namespace

StudyInfo
fig04Study()
{
    return {"fig04", "Fig. 4: bound regions",
            "Sensor-, compute- and physics-bound regions on "
            "the Pelican configuration",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
