/**
 * @file
 * Fig. 12: heat-sink mass against compute TDP.
 */

#include "scenario/studies/common.hh"
#include "support/strings.hh"
#include "thermal/heatsink.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &)
{
    const thermal::HeatsinkModel model;
    StudyResult result;
    result.xLabel = "tdp_w";
    result.yLabel = "heatsink_g";

    plot::Series curve("heatsink mass");
    for (double tdp = 1.0; tdp <= 34.0; tdp *= 1.3)
        curve.add(tdp, model.mass(units::Watts(tdp)).value());
    result.series.push_back(std::move(curve));

    const double at30 = model.mass(units::Watts(30.0)).value();
    const double at15 = model.mass(units::Watts(15.0)).value();
    const double at1_5 = model.mass(units::Watts(1.5)).value();
    result
        .addMetric("mass_at_30w", at30, "g",
                   paper(162.0, 1.0, "Fig. 12: 162 g at 30 W"))
        .addMetric("mass_at_15w", at15, "g",
                   paper(81.0, 1.0, "Fig. 12: 81 g at 15 W"))
        .addMetric("mass_at_1_5w", at1_5, "g",
                   paper(10.0, 1.0, "Fig. 12: ~10 g at 1.5 W"))
        .addMetric("mass_ratio_20x_tdp", at30 / at1_5, "",
                   paper(16.2, 0.1,
                         "Fig. 12: ~20x the TDP, ~16.2x the mass"));
    result.summary = strFormat(
        "Heat-sink scaling: %.0f g @ 30 W, %.0f g @ 15 W, "
        "%.0f g @ 1.5 W (~20x TDP -> %.1fx mass)\n",
        at30, at15, at1_5, at30 / at1_5);
    return result;
}

} // namespace

StudyInfo
fig12Study()
{
    return {"fig12", "Fig. 12: heat-sink scaling",
            "Heat-sink mass vs compute TDP",
            {}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
