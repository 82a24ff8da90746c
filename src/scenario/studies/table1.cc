/**
 * @file
 * Table I: takeoff masses and predicted safe velocities of the four
 * validation builds, UAV-A..D.
 */

#include "scenario/studies/common.hh"
#include "sim/table1.hh"
#include "sim/validation.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &)
{
    const auto cases = sim::table1ValidationCases();
    StudyResult result;
    result.xLabel = "takeoff_g";
    result.yLabel = "predicted_v_safe_mps";

    TextTable table({"UAV", "Takeoff (g)", "Predicted (m/s)"});
    plot::Series points("Table I builds",
                        plot::SeriesStyle::Markers);
    // The paper's predictions for UAV-A..D (its Fig. 9 markers).
    const double paper_predicted[] = {2.13, 1.51, 1.58, 1.53};
    const std::string predicted_cause =
        std::string("Fig. 9 marker; ") + kThrustCalibration;
    char letter = 'A';
    for (const auto &vcase : cases) {
        const double takeoff =
            sim::table1TakeoffMass(letter).value();
        const double predicted =
            sim::ValidationHarness::predictedSafeVelocity(vcase);
        table.addRow({vcase.name, trimmedNumber(takeoff),
                      trimmedNumber(predicted, 3)});
        points.add(takeoff, predicted);
        result.addMetric(
            vcase.name + "_predicted", predicted, "m/s",
            gap(paper_predicted[letter - 'A'], 0.01, predicted_cause));
        result.addMetric(vcase.name + "_takeoff", takeoff, "g");
        ++letter;
    }
    result.series.push_back(std::move(points));
    result.addMetric("usable_thrust",
                     sim::table1UsableThrust().value(), "g");
    result.summary = table.render();
    return result;
}

} // namespace

StudyInfo
table1Study()
{
    return {"table1", "Table I: validation UAV specs",
            "Takeoff masses and predicted safe velocities of "
            "UAV-A..D",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
