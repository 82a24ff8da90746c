/**
 * @file
 * Table III: the headline results of the Section VI case studies,
 * read from the fig11, fig13, fig14 and fig15 studies' metrics.
 */

#include "scenario/studies/common.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &ctx)
{
    const auto run_study = [&](const char *study) {
        return StudyRegistry::global().find(study).run(
            {StudyParams(), ctx.parallel});
    };
    const StudyResult fig11 = run_study("fig11");
    const StudyResult fig13 = run_study("fig13");
    const StudyResult fig14 = run_study("fig14");
    const StudyResult fig15 = run_study("fig15");
    const double agx_tdp_gain = fig11.metric("agx_tdp_gain");
    const double spa_factor =
        fig13.metric("SPA package delivery_factor_vs_knee");

    StudyResult result;
    TextTable table({"Case study", "UAV", "Headline result"});
    table.addRow(
        {"VI-A Onboard compute", "DJI Spark",
         strFormat("NCS roof %.1f m/s vs AGX-30W %.1f m/s; 15 W "
                   "what-if +%.0f%%",
                   fig11.metric("ncs_roof"), fig11.metric("agx30_roof"),
                   (agx_tdp_gain - 1.0) * 100.0)});
    table.addRow({"VI-B Autonomy algorithms", "AscTec Pelican",
                  strFormat("knee %.0f Hz; SPA needs %.0fx",
                            fig13.metric("knee_throughput"),
                            spa_factor)});
    table.addRow({"VI-C Payload redundancy", "AscTec Pelican",
                  strFormat("DMR lowers v_safe by %.0f%%",
                            fig14.metric("velocity_loss"))});
    table.addRow(
        {"VI-D Full UAV system", "Pelican & Spark",
         strFormat("knees %.0f / %.0f Hz across %zu design points",
                   fig15.metric("pelican_knee"),
                   fig15.metric("spark_knee"),
                   static_cast<std::size_t>(fig15.metric("entries")))});
    result.summary = table.render();

    result.addMetric("agx_tdp_gain", agx_tdp_gain)
        .addMetric("spa_required_speedup", spa_factor)
        .addMetric("dmr_velocity_loss", fig14.metric("velocity_loss"),
                   "%")
        .addMetric("pelican_knee", fig15.metric("pelican_knee"), "Hz")
        .addMetric("spark_knee", fig15.metric("spark_knee"), "Hz");
    return result;
}

} // namespace

StudyInfo
table3Study()
{
    return {"table3", "Table III: case-study overview",
            "Headline results of the Section VI case studies "
            "regenerated live",
            {}, {"json"}, run};
}

} // namespace uavf1::scenario::detail
