/**
 * @file
 * Fig. 7: model validation. Simulated flights of the four Table-I
 * builds measure the fastest safe velocity, against the F-1
 * prediction.
 */

#include "scenario/studies/common.hh"
#include "sim/table1.hh"
#include "sim/validation.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &ctx)
{
    const auto results = sim::ValidationHarness::validateAll(
        sim::table1ValidationCases(), ctx.parallel);
    const auto paper_errors = sim::table1PaperErrorPercent();
    // One 0.05 m/s step of the simulated velocity sweep moves a
    // build's error by 2.1-5.1 pp, so 2 pp is the finest match the
    // simulated flights resolve.
    const double error_resolution = 2.0;

    StudyResult result;
    result.xLabel = "commanded_velocity_mps";
    result.yLabel = "infraction_fraction";

    TextTable table({"UAV", "Predicted (m/s)", "Observed (m/s)",
                     "Error (%)", "Paper error (%)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sim::ValidationResult &r = results[i];
        table.addRow({r.name, trimmedNumber(r.predicted, 3),
                      trimmedNumber(r.observed, 3),
                      trimmedNumber(r.errorPercent, 2),
                      i < paper_errors.size()
                          ? trimmedNumber(paper_errors[i], 2)
                          : "-"});
        result.addMetric(r.name + "_predicted", r.predicted, "m/s");
        result.addMetric(r.name + "_observed", r.observed, "m/s");
        result.addMetric(
            r.name + "_error", r.errorPercent, "%",
            r.name == "UAV-C"
                ? gap(paper_errors[i], error_resolution,
                      "Fig. 7b: our UAV-C flies at 2.54 m/s, not the "
                      "paper's 1.58 (see table1), and the simulated "
                      "error grows with speed through the drag and "
                      "actuation lag the F-1 model omits")
                : paper(paper_errors[i], error_resolution,
                        "Fig. 7b: model-vs-flight error"));

        plot::Series sweep(r.name,
                           plot::SeriesStyle::LineAndMarkers);
        for (const auto &outcome : r.sweep) {
            sweep.add(outcome.velocity,
                      outcome.trials > 0
                          ? static_cast<double>(outcome.infractions) /
                                outcome.trials
                          : 0.0);
        }
        result.series.push_back(std::move(sweep));
    }
    result.summary = table.render();
    return result;
}

} // namespace

StudyInfo
fig07Study()
{
    return {"fig07", "Fig. 7: model validation",
            "Predicted vs simulated safe velocity for the "
            "four Table-I builds",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
