/**
 * @file
 * Fig. 2b: SWaP taxonomy. Size, battery capacity and endurance across
 * nano, micro and mini UAVs, and the average draw each endurance
 * implies.
 */

#include "components/catalog.hh"
#include "physics/battery.hh"
#include "scenario/studies/common.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &)
{
    const auto catalog = components::Catalog::standard();
    // The paper's frame sizes and endurances per size class.
    const struct
    {
        const char *sizeClass;
        const char *battery;
        double frameMm;
        double enduranceMin;
    } rows[] = {
        {"nano", "Nano 240mAh", 7.0, 6.0},
        {"micro", "Micro 1300mAh", 250.0, 15.0},
        {"mini", "Mini 3830mAh", 335.0, 30.0},
    };

    StudyResult result;
    result.xLabel = "capacity_mah";
    result.yLabel = "endurance_min";

    TextTable table({"Class", "Frame (mm)", "Capacity (mAh)",
                     "Endurance (min)", "Implied draw (W)"});
    plot::Series endurance("endurance",
                           plot::SeriesStyle::LineAndMarkers);
    double capacity[3];
    for (std::size_t i = 0; i < 3; ++i) {
        const physics::Battery &battery =
            catalog.batteries().byName(rows[i].battery);
        const std::string size_class = rows[i].sizeClass;
        const double draw =
            battery
                .impliedDraw(units::Seconds(rows[i].enduranceMin * 60.0))
                .value();
        capacity[i] = battery.capacity().value();
        table.addRow({size_class, trimmedNumber(rows[i].frameMm),
                      trimmedNumber(capacity[i]),
                      trimmedNumber(rows[i].enduranceMin),
                      trimmedNumber(draw, 2)});
        endurance.add(capacity[i], rows[i].enduranceMin);
        result.addMetric(size_class + "_implied_draw", draw, "W");
        result.addMetric(size_class + "_usable_energy",
                         battery.usableEnergy().value(), "Wh");
    }
    result.series.push_back(std::move(endurance));
    result
        .addMetric("nano_capacity", capacity[0], "mAh",
                   paper(240.0, 1.0, "Fig. 2b: nano battery"))
        .addMetric("micro_capacity", capacity[1], "mAh",
                   paper(1300.0, 1.0, "Fig. 2b: micro battery"))
        .addMetric("mini_capacity", capacity[2], "mAh",
                   paper(3830.0, 1.0, "Fig. 2b: mini battery"))
        .addMetric("nano_endurance", rows[0].enduranceMin, "min",
                   paper(6.0, 1.0, "Fig. 2b: nano endurance"))
        .addMetric("mini_endurance", rows[2].enduranceMin, "min",
                   paper(30.0, 1.0, "Fig. 2b: mini endurance"));
    result.summary = table.render();
    return result;
}

} // namespace

StudyInfo
fig02Study()
{
    return {"fig02", "Fig. 2b: SWaP taxonomy",
            "Size, battery capacity and endurance across "
            "nano/micro/mini UAVs",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
