/**
 * @file
 * Table II: the Skyline session. The full knob set analyzed end to
 * end; overrides are knob assignments.
 */

#include "scenario/runner.hh"
#include "scenario/studies/common.hh"
#include "skyline/report.hh"
#include "skyline/session.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &ctx)
{
    const skyline::SkylineSession session =
        sessionFromParams(ctx.params);
    const skyline::Analysis analysis = session.analyze();

    StudyResult result;
    result.xLabel = "f_action_hz";
    result.yLabel = "v_safe_mps";
    result.chartTitle = "Skyline: " + session.knobs().algorithm;

    plot::Series curve("roofline: " + session.knobs().algorithm);
    for (const auto &point : session.model().curve().points) {
        curve.add(point.actionThroughput.value(),
                  point.safeVelocity.value());
    }
    result.series.push_back(std::move(curve));

    const core::F1Analysis &f1 = analysis.f1;
    result.addMetric("safe_velocity", f1.safeVelocity.value(), "m/s")
        .addMetric("roof_velocity", f1.roofVelocity.value(), "m/s")
        .addMetric("knee_throughput", f1.kneeThroughput.value(),
                   "Hz")
        .addMetric("action_throughput",
                   f1.actionThroughput.value(), "Hz")
        .addMetric("takeoff_mass", analysis.takeoffMass.value(), "g")
        .addMetric("heatsink_mass", analysis.heatsinkMass.value(),
                   "g")
        .addMetric("thrust_to_weight", analysis.thrustToWeight)
        .addMetric("over_provision_factor", f1.overProvisionFactor)
        .addMetric("required_speedup", f1.requiredSpeedup);
    // Binding-ceiling attribution, present only when the platform
    // knob routed f_compute through a roofline bound (so legacy
    // sessions keep their exact artifact bytes).
    if (f1.computeBinding.attributed) {
        result
            .addMetric("binding_kind",
                       f1.computeBinding.kind ==
                               platform::CeilingKind::Compute
                           ? 0.0
                           : 1.0)
            .addMetric("binding_index",
                       static_cast<double>(f1.computeBinding.index))
            .addMetric("compute_rate",
                       session.model().inputs().computeRate.value(),
                       "Hz");
    }
    // Per-stage breakdown of the SPA pipeline, present only when
    // the platform path evaluated one (so legacy sessions keep
    // their exact artifact bytes).
    for (std::size_t i = 0; i < analysis.stages.size(); ++i) {
        const skyline::StageAnalysis &row = analysis.stages[i];
        const std::string prefix =
            "stage_" + ScenarioRunner::sanitizeLabel(row.stage);
        result.addMetric(prefix + "_latency", row.latencyMs, "ms");
        if (row.bottleneck) {
            result.addMetric("bottleneck_stage",
                             static_cast<double>(i));
        }
    }
    result.summary = session.renderAnalysis();
    result.reportHtml = skyline::ReportWriter::html(
        session, "Skyline report: " + session.knobs().algorithm);
    return result;
}

} // namespace

StudyInfo
table2Study()
{
    return {"table2", "Table II: Skyline session",
            "The full knob set analyzed end-to-end; overrides "
            "are knob assignments",
            withSessionKnobs({}), {"csv", "svg", "json", "html"}, run};
}

} // namespace uavf1::scenario::detail
