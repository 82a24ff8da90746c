/**
 * @file
 * The DVFS operating-point sweep: v_safe against TDP across a
 * roofline preset's operating points, with the binding ceiling at
 * each; platforms= and algorithms= lists overlay several sweeps.
 */

#include "scenario/runner.hh"
#include "scenario/studies/common.hh"
#include "skyline/session.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/algorithm.hh"

namespace uavf1::scenario::detail {

namespace {

/**
 * Sweep one session's DVFS operating points into `result`: two
 * series (v_safe and roof vs TDP, labelled with `series_suffix`),
 * one table row per point (prefixed with `row_head` cells) and the
 * per-point metrics (prefixed with `metric_prefix`). The empty
 * prefix/suffix case is the single-platform dvfs study's exact
 * legacy shape, byte for byte.
 */
void
appendDvfsSweep(const skyline::SkylineSession &session,
                const platform::RooflinePlatform &machine,
                const std::string &series_suffix,
                const std::string &metric_prefix,
                const std::vector<std::string> &row_head,
                TextTable &table, StudyResult &result)
{
    plot::Series v_safe("v_safe" + series_suffix,
                        plot::SeriesStyle::LineAndMarkers);
    plot::Series roof("roof velocity" + series_suffix,
                      plot::SeriesStyle::LineAndMarkers);
    for (const auto &point : machine.operatingPoints()) {
        skyline::SkylineSession variant = session;
        variant.set("operating_point", point.name);
        const skyline::Analysis analysis = variant.analyze();
        const core::F1Analysis &f1 = analysis.f1;
        const double rate =
            variant.model().inputs().computeRate.value();
        const double tdp = variant.effectiveTdp().value();

        v_safe.add(tdp, f1.safeVelocity.value());
        roof.add(tdp, f1.roofVelocity.value());
        std::vector<std::string> row = row_head;
        for (const std::string &cell :
             {std::string(point.name),
              trimmedNumber(point.frequencyFraction, 3),
              trimmedNumber(tdp, 3),
              trimmedNumber(analysis.heatsinkMass.value(), 1),
              trimmedNumber(rate, 4),
              trimmedNumber(f1.safeVelocity.value(), 3),
              trimmedNumber(f1.roofVelocity.value(), 3),
              analysis.bindingCeiling.empty()
                  ? "-"
                  : analysis.bindingCeiling}) {
            row.push_back(cell);
        }
        table.addRow(row);
        result
            .addMetric(metric_prefix + point.name + "_tdp", tdp,
                       "W")
            .addMetric(metric_prefix + point.name + "_v_safe",
                       f1.safeVelocity.value(), "m/s")
            .addMetric(metric_prefix + point.name + "_roof",
                       f1.roofVelocity.value(), "m/s")
            .addMetric(metric_prefix + point.name + "_compute_rate",
                       rate, "Hz")
            .addMetric(metric_prefix + point.name + "_binding_kind",
                       f1.computeBinding.kind ==
                               platform::CeilingKind::Compute
                           ? 0.0
                           : 1.0)
            .addMetric(metric_prefix + point.name + "_binding_index",
                       static_cast<double>(f1.computeBinding.index));
    }
    result.series.push_back(std::move(v_safe));
    result.series.push_back(std::move(roof));
}

StudyResult
run(const StudyContext &ctx)
{
    // The paper's recurring remedy for over-provisioned designs —
    // "trade off this excess performance for a lower TDP" —
    // quantified per ceiling: sweep one preset's DVFS operating
    // points and report v_safe against the TDP each point costs,
    // with the binding ceiling at every point. Comma-separated
    // `platforms` / `algorithms` lists overlay several sweeps on
    // one chart; without them the single-preset path runs with its
    // exact legacy artifact bytes.
    StudyParams params;
    std::vector<std::string> platform_names;
    std::vector<std::string> algorithm_names;
    for (const auto &entry : ctx.params.entries()) {
        if (entry.first == "platforms")
            platform_names = splitAndTrim(entry.second, ',');
        else if (entry.first == "algorithms")
            algorithm_names = splitAndTrim(entry.second, ',');
        else
            params.set(entry.first, entry.second);
    }
    // An absent *or empty* platform override means the default
    // preset (an empty knob value would put the session on the
    // legacy compute_runtime path, which has no operating points).
    if (trim(params.get("platform", "")).empty())
        params.set("platform", "Nvidia TX2");

    StudyResult result;
    result.xLabel = "tdp_w";
    result.yLabel = "v_safe_mps";

    if (platform_names.empty() && algorithm_names.empty()) {
        const skyline::SkylineSession session =
            sessionFromParams(params);
        const auto machine = session.rooflinePlatform();
        if (!machine) {
            throw ModelError("the dvfs study requires a roofline "
                             "platform preset");
        }
        const auto &points = machine->operatingPoints();
        result.chartTitle =
            "DVFS sweep: " + session.knobs().platform + " running " +
            session.knobs().algorithm;
        TextTable table({"Operating point", "Clock (x)", "TDP (W)",
                         "Heatsink (g)", "f_compute (Hz)",
                         "v_safe (m/s)", "Roof (m/s)",
                         "Binding ceiling"});
        appendDvfsSweep(session, *machine, "", "", {}, table,
                        result);
        result.addMetric("operating_points",
                         static_cast<double>(points.size()));
        result.summary =
            strFormat("%s running %s across %zu operating points\n",
                      session.knobs().platform.c_str(),
                      session.knobs().algorithm.c_str(),
                      points.size()) +
            table.render();
        return result;
    }

    // Overlay mode: the cartesian product of the requested
    // platforms and algorithms, every combination swept across its
    // own preset's operating points. Empty lists inherit the single
    // session's knob. List entries are checked here, so an unknown
    // one names the list knob it came from.
    const auto presets = studies::rooflinePlatformPresets();
    for (const std::string &name : platform_names)
        (void)presets.byName(name, "platforms");
    const auto algorithms = workload::annotatedAlgorithms();
    for (const std::string &name : algorithm_names)
        (void)algorithms.byName(name, "algorithms");
    if (platform_names.empty())
        platform_names = {params.get("platform", "Nvidia TX2")};
    if (algorithm_names.empty())
        algorithm_names = {
            sessionFromParams(params).knobs().algorithm};

    TextTable table({"Platform", "Algorithm", "Operating point",
                     "Clock (x)", "TDP (W)", "Heatsink (g)",
                     "f_compute (Hz)", "v_safe (m/s)", "Roof (m/s)",
                     "Binding ceiling"});
    std::size_t combos = 0;
    for (const std::string &platform_name : platform_names) {
        for (const std::string &algorithm_name : algorithm_names) {
            StudyParams combo = params;
            combo.set("platform", platform_name);
            combo.set("algorithm", algorithm_name);
            const skyline::SkylineSession session =
                sessionFromParams(combo);
            const auto machine = session.rooflinePlatform();
            if (!machine) {
                throw ModelError(
                    "the dvfs study requires a roofline platform "
                    "preset");
            }
            const std::string label =
                platform_name + " / " + algorithm_name;
            appendDvfsSweep(
                session, *machine, " (" + label + ")",
                ScenarioRunner::sanitizeLabel(platform_name) + "_" +
                    ScenarioRunner::sanitizeLabel(algorithm_name) +
                    "_",
                {platform_name, algorithm_name}, table, result);
            ++combos;
        }
    }
    result.chartTitle = "DVFS overlay: " +
                        std::to_string(combos) + " configurations";
    result.addMetric("combinations",
                     static_cast<double>(combos));
    result.summary =
        strFormat("DVFS overlay: %zu platforms x %zu algorithms\n",
                  platform_names.size(), algorithm_names.size()) +
        table.render();
    return result;
}

} // namespace

StudyInfo
dvfsStudy()
{
    return {"dvfs", "DVFS operating-point sweep",
            "v_safe vs TDP across one roofline preset's "
            "operating points, binding ceiling at each point; "
            "comma-separated platforms=/algorithms= lists "
            "overlay several sweeps",
            withSessionKnobs({"platforms", "algorithms"}),
            {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
