/**
 * @file
 * The fault-injection campaign: the degraded-mode envelope of one
 * configuration under a standard fault suite (v_safe degradation
 * curve, mission-abort probability and binding shifts).
 */

#include <cmath>

#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "pipeline/redundancy.hh"
#include "scenario/runner.hh"
#include "scenario/studies/common.hh"
#include "skyline/session.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &ctx)
{
    // Degraded-mode analysis: inject one of the standard fault
    // suites into the session's configuration and report how safe
    // velocity and mission survival degrade as fault rates sweep
    // from zero to full severity.
    const std::string suite_name =
        trim(ctx.params.get("fault", "mixed"));
    const fault::FaultSuite &suite = fault::findFaultSuite(
        suite_name.empty() ? "mixed" : suite_name);
    const double fault_scale =
        ctx.params.getNumber("fault_scale", 1.0);
    // Reject rather than clamp: a scale outside the sweep range is
    // a typo'd scenario, and silently pinning it to [0, 1] would
    // report a different severity than the spec asked for.
    if (!std::isfinite(fault_scale) || fault_scale < 0.0 ||
        fault_scale > 1.0) {
        throw ModelError(
            "fault_scale of the faults study must be in [0, 1] "
            "(got " +
            trimmedNumber(fault_scale) +
            "); the degradation curve already sweeps scale 0 to "
            "fault_scale");
    }
    const auto samples =
        ctx.params.getCount("samples", 4096, kMaxMissions);
    const auto levels = ctx.params.getCount(
        "levels", 9, fault::FaultCampaign::maxLevels);
    const std::uint64_t seed = ctx.params.getUnsigned("seed", 1);

    // Any stage-resolved fault — workload-layer latency/failure or
    // the stage-scoped platform kinds — needs the SPA pipeline
    // configured so the campaign can resolve stage names.
    bool stage_faults = false;
    for (const auto &spec : suite.faults) {
        stage_faults =
            stage_faults ||
            spec.kind == fault::FaultKind::StageFailure ||
            spec.kind == fault::FaultKind::StageLatencyInflation ||
            spec.kind == fault::FaultKind::StageCeilingDerate ||
            spec.kind == fault::FaultKind::StageTrafficInflation;
    }

    // Stage-failure suites default to DMR takeover (the paper's
    // Fig. 14 remedy); platform-only suites run a single computer.
    const std::string redundancy_name =
        toLower(trim(ctx.params.get(
            "redundancy", stage_faults ? "dual" : "none")));
    pipeline::RedundancyScheme redundancy;
    if (redundancy_name == "none")
        redundancy = pipeline::RedundancyScheme::None;
    else if (redundancy_name == "dual")
        redundancy = pipeline::RedundancyScheme::Dual;
    else if (redundancy_name == "triple")
        redundancy = pipeline::RedundancyScheme::Triple;
    else {
        const std::vector<std::string> schemes = {"none", "dual",
                                                  "triple"};
        std::string message = "unknown redundancy '" +
                              redundancy_name +
                              "'; expected none, dual or triple";
        const std::vector<std::string> hints =
            closestMatches(redundancy_name, schemes);
        if (!hints.empty())
            message += " (did you mean " + join(hints, " or ") + "?)";
        throw ModelError(message);
    }

    StudyParams knob_overrides;
    for (const auto &entry : ctx.params.entries()) {
        if (entry.first != "fault" && entry.first != "fault_scale" &&
            entry.first != "samples" && entry.first != "levels" &&
            entry.first != "seed" && entry.first != "redundancy") {
            knob_overrides.set(entry.first, entry.second);
        }
    }
    // An absent *or empty* platform override means the default
    // preset (platform faults need a ceiling family to degrade).
    if (trim(knob_overrides.get("platform", "")).empty())
        knob_overrides.set("platform", "Nvidia TX2");
    const skyline::SkylineSession session =
        sessionFromParams(knob_overrides);
    const auto machine = session.rooflinePlatform();
    if (!machine) {
        throw ModelError("the faults study requires a roofline "
                         "platform preset");
    }

    const auto algorithms = workload::annotatedAlgorithms();
    const workload::AutonomyAlgorithm &algorithm =
        algorithms.byName(session.knobs().algorithm);

    fault::CampaignSpec campaign_spec;
    campaign_spec.nominal = session.model().inputs();
    campaign_spec.platform = machine;
    campaign_spec.profile =
        workload::workloadProfile(algorithm, *machine);
    campaign_spec.workPerFrameGop = algorithm.workPerFrameGop();
    campaign_spec.opIndex =
        session.knobs().operatingPoint.empty()
            ? 0
            : machine->operatingPointIndex(
                  session.knobs().operatingPoint);
    if (stage_faults) {
        campaign_spec.pipeline =
            workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    }
    campaign_spec.redundancy = redundancy;
    campaign_spec.faults = suite.faults;
    campaign_spec.probabilityScale = fault_scale;
    const fault::FaultCampaign campaign(std::move(campaign_spec));

    const core::F1Analysis baseline = campaign.baseline();
    // The curve's top level is the full-severity run, sampled once.
    const fault::FaultCampaign::SeveritySweep sweep =
        campaign.sweepSeverity(levels, samples, seed, ctx.parallel);
    const fault::CampaignResult &worst = sweep.fullSeverity;
    const std::vector<fault::DegradationPoint> &curve = sweep.curve;

    StudyResult result;
    result.xLabel = "fault_scale";
    result.yLabel = "v_safe_mps";
    result.chartTitle = "Degraded-mode envelope: " +
                        session.knobs().platform + " under " +
                        suite.name + " faults";

    plot::Series mean("v_safe mean",
                      plot::SeriesStyle::LineAndMarkers);
    plot::Series p5("v_safe p5");
    plot::Series p95("v_safe p95");
    plot::Series abort_prob("abort probability");
    TextTable table({"Scale", "v_safe mean (m/s)", "p5", "p95",
                     "P(abort)"});
    for (const auto &point : curve) {
        mean.add(point.scale, point.meanSafeVelocity);
        p5.add(point.scale, point.p5SafeVelocity);
        p95.add(point.scale, point.p95SafeVelocity);
        abort_prob.add(point.scale, point.abortProbability);
        table.addRow({trimmedNumber(point.scale, 3),
                      trimmedNumber(point.meanSafeVelocity, 3),
                      trimmedNumber(point.p5SafeVelocity, 3),
                      trimmedNumber(point.p95SafeVelocity, 3),
                      trimmedNumber(point.abortProbability, 4)});
    }
    result.series.push_back(std::move(mean));
    result.series.push_back(std::move(p5));
    result.series.push_back(std::move(p95));
    result.series.push_back(std::move(abort_prob));

    result
        .addMetric("baseline_v_safe",
                   baseline.safeVelocity.value(), "m/s")
        .addMetric("baseline_roof",
                   baseline.roofVelocity.value(), "m/s")
        .addMetric("degraded_v_safe_mean",
                   worst.safeVelocity.mean, "m/s")
        .addMetric("degraded_v_safe_p5", worst.safeVelocity.p5,
                   "m/s")
        .addMetric("abort_probability", worst.abortProbability)
        .addMetric("samples", static_cast<double>(worst.samples));
    for (std::size_t j = 0; j < suite.faults.size(); ++j) {
        result.addMetric(
            "activation_" +
                ScenarioRunner::sanitizeLabel(suite.faults[j].name),
            worst.faultActivationRate[j]);
    }
    // Binding shift under faults, in the family's own deterministic
    // ceiling order.
    for (std::size_t i = 0;
         i < worst.probComputeCeilingBinds.size(); ++i) {
        result.addMetric(
            "binds_compute_" + machine->computeCeilings()[i].name,
            worst.probComputeCeilingBinds[i]);
    }
    for (std::size_t i = 0;
         i < worst.probMemoryCeilingBinds.size(); ++i) {
        result.addMetric(
            "binds_memory_" + machine->memoryCeilings()[i].name,
            worst.probMemoryCeilingBinds[i]);
    }
    // Per-stage binding shifts of the SPA pipeline (present only
    // on the combined platform+pipeline path, i.e. stage-fault
    // suites): how often each stage was compute-bound /
    // memory-bound / measurement-sourced over surviving missions.
    for (const auto &stats : worst.stageBindings) {
        const std::string prefix =
            "stage_" + ScenarioRunner::sanitizeLabel(stats.stage);
        result
            .addMetric(prefix + "_compute_bound",
                       stats.probComputeBound)
            .addMetric(prefix + "_memory_bound",
                       stats.probMemoryBound)
            .addMetric(prefix + "_measured", stats.probMeasured);
    }

    result.summary =
        strFormat("Fault suite '%s' (%s) on %s running %s: "
                  "baseline v_safe %.3f m/s, degraded mean %.3f "
                  "m/s, P(abort) %.4f over %zu missions\n",
                  suite.name.c_str(), suite.description.c_str(),
                  session.knobs().platform.c_str(),
                  session.knobs().algorithm.c_str(),
                  baseline.safeVelocity.value(),
                  worst.safeVelocity.mean, worst.abortProbability,
                  worst.samples) +
        table.render();
    return result;
}

} // namespace

StudyInfo
faultsStudy()
{
    return {"faults", "Fault-injection campaign",
            "Degraded-mode envelope under a standard fault "
            "suite: v_safe degradation curve, mission-abort "
            "probability and binding shifts",
            withSessionKnobs({"fault", "fault_scale", "samples", "levels",
                              "seed", "redundancy"}),
            {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
