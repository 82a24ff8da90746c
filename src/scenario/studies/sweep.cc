/**
 * @file
 * The Skyline knob sweep: one numeric knob across a range;
 * infeasible points are marked, not fatal.
 */

#include <algorithm>
#include <limits>

#include "scenario/runner.hh"
#include "scenario/studies/common.hh"
#include "skyline/session.hh"
#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &ctx)
{
    const std::string knob =
        ctx.params.get("knob", "payload_weight");
    const double from = ctx.params.getNumber("from", 0.0);
    const double to = ctx.params.getNumber("to", 1200.0);
    // SkylineSession::sweep range-checks all four, naming each.
    const auto steps = ctx.params.getCount(
        "steps", 25, std::numeric_limits<std::size_t>::max());

    StudyParams knob_overrides;
    for (const auto &entry : ctx.params.entries()) {
        if (entry.first != "knob" && entry.first != "from" &&
            entry.first != "to" && entry.first != "steps") {
            knob_overrides.set(entry.first, entry.second);
        }
    }
    const skyline::SkylineSession session =
        sessionFromParams(knob_overrides);

    const auto points = session.sweep(knob, from, to, steps);

    StudyResult result;
    result.xLabel = knob;
    result.yLabel = "v_safe_mps";
    result.chartTitle = "Skyline sweep: " + knob;

    plot::Series curve("v_safe", plot::SeriesStyle::LineAndMarkers);
    std::size_t infeasible = 0;
    double best = 0.0;
    for (const auto &point : points) {
        if (!point.feasible) {
            ++infeasible;
            continue;
        }
        curve.add(point.knobValue, point.safeVelocity);
        best = std::max(best, point.safeVelocity);
    }
    result.series.push_back(std::move(curve));
    result
        .addMetric("feasible_points",
                   static_cast<double>(points.size() - infeasible))
        .addMetric("infeasible_points",
                   static_cast<double>(infeasible))
        .addMetric("max_safe_velocity", best, "m/s");

    // Binding-ceiling attribution across the sweep, when the
    // platform knob routed f_compute through a ceiling family: how
    // many feasible points each ceiling binds, in the family's own
    // deterministic ceiling order. Absent on legacy sweeps, so
    // their artifact bytes are untouched.
    if (const auto machine = session.rooflinePlatform()) {
        const auto count = [&](platform::CeilingKind kind,
                               std::size_t index) {
            std::size_t n = 0;
            for (const auto &point : points) {
                if (point.feasible && point.binding.attributed &&
                    point.binding.kind == kind &&
                    point.binding.index == index) {
                    ++n;
                }
            }
            return static_cast<double>(n);
        };
        for (std::size_t i = 0;
             i < machine->computeCeilings().size(); ++i) {
            result.addMetric(
                "binds_compute_" +
                    machine->computeCeilings()[i].name,
                count(platform::CeilingKind::Compute, i));
        }
        for (std::size_t i = 0;
             i < machine->memoryCeilings().size(); ++i) {
            result.addMetric(
                "binds_memory_" + machine->memoryCeilings()[i].name,
                count(platform::CeilingKind::Memory, i));
        }
        // Per-stage breakdown at the *base* configuration (the
        // swept knob at its session value). The base may itself be
        // infeasible — a sweep tolerates that per point, so the
        // breakdown must too.
        try {
            const skyline::Analysis analysis = session.analyze();
            for (const auto &row : analysis.stages) {
                result.addMetric(
                    "stage_" +
                        ScenarioRunner::sanitizeLabel(row.stage) +
                        "_latency",
                    row.latencyMs, "ms");
            }
        } catch (const ModelError &) {
            // Infeasible base: the sweep points still stand.
        }
    }
    result.summary = strFormat(
        "Swept %s from %g to %g in %zu steps: %zu feasible, "
        "%zu infeasible, best v_safe %.3f m/s\n",
        knob.c_str(), from, to, steps, points.size() - infeasible,
        infeasible, best);
    return result;
}

} // namespace

StudyInfo
sweepStudy()
{
    return {"sweep", "Skyline knob sweep",
            "Sweep one numeric knob; infeasible points are "
            "marked, not fatal",
            withSessionKnobs({"knob", "from", "to", "steps"}),
            {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
