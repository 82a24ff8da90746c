/**
 * @file
 * The hierarchical machine roofline of one platform preset: its
 * compute and memory ceilings, each algorithm's binding ceiling, and
 * optionally per-workload envelopes and a per-stage breakdown.
 */

#include <cmath>

#include "plot/roofline_chart.hh"
#include "scenario/runner.hh"
#include "scenario/studies/common.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/stage_eval.hh"
#include "workload/throughput.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &ctx)
{
    const auto presets = studies::rooflinePlatformPresets();
    const platform::RooflinePlatform &machine =
        presets.byName(ctx.params.get("platform", "Nvidia TX2"),
                       "platform");
    const std::string op_name = ctx.params.get("op", "");
    const std::size_t op =
        op_name.empty() ? 0 : machine.operatingPointIndex(op_name);
    const double ai_min = ctx.params.getNumber("ai_min", 0.01);
    const double ai_max = ctx.params.getNumber("ai_max", 1000.0);
    // The platform model takes an AI up to 1e300 (requireFinite's
    // bound), and the envelopes sample ai_min * (ai_max / ai_min)^t,
    // so the ratio must be finite too.
    if (!(ai_min > 0.0 && ai_min < ai_max && ai_max <= 1e300 &&
          std::isfinite(ai_max / ai_min))) {
        throw ModelError(
            "parameters 'ai_min' and 'ai_max' need 0 < ai_min < "
            "ai_max <= 1e300 and a finite ai_max / ai_min, got "
            "ai_min = " + shortestNumber(ai_min) + ", ai_max = " +
            shortestNumber(ai_max));
    }
    const auto samples =
        ctx.params.getCount("samples", 97, kMaxSweepPoints);
    const std::string workloads =
        toLower(trim(ctx.params.get("workloads", "standard")));
    if (workloads != "standard" && workloads != "annotated") {
        throw ModelError("parameter 'workloads' must be 'standard' "
                         "or 'annotated', got '" + workloads + "'");
    }
    const bool annotated = workloads == "annotated";

    StudyResult result;
    result.xLabel = "arithmetic_intensity_op_b";
    result.yLabel = "attainable_gops";
    result.chartTitle = "Hierarchical roofline: " + machine.name();
    result.series = plot::ceilingFamilySeries(machine, op, ai_min,
                                              ai_max, samples);

    const auto &point = machine.operatingPoints()[op];
    result
        .addMetric("compute_ceilings",
                   static_cast<double>(
                       machine.computeCeilings().size()))
        .addMetric("memory_ceilings",
                   static_cast<double>(machine.memoryCeilings().size()))
        .addMetric("frequency_fraction", point.frequencyFraction)
        .addMetric("operating_tdp", point.tdp.value(), "W");

    // Mark every algorithm on the envelope and attribute its bound
    // to the binding ceiling. With workloads=annotated, the
    // ceiling-annotated variants join in and each annotated
    // workload also gets its *own* attainable envelope — the
    // ceilings its applicability mask and per-level traffic admit —
    // so binding diversity is visible on the chart.
    TextTable table({"Algorithm", "AI (op/B)", "Attainable (GOPS)",
                     "Bound (Hz)", "Binding ceiling"});
    plot::Series markers("algorithms", plot::SeriesStyle::Markers);
    const auto algorithms = annotated
                                ? workload::annotatedAlgorithms()
                                : workload::standardAlgorithms();
    for (const auto &algo : algorithms.items()) {
        const auto estimate = workload::rooflineBound(algo, machine,
                                                      op);
        // One ceiling-set evaluation per algorithm: the attainable
        // GOPS is the bound times the per-frame work.
        const double attainable_gops =
            estimate.value.value() * algo.workPerFrameGop();
        markers.add(algo.arithmeticIntensity().value(),
                    attainable_gops);
        table.addRow(
            {algo.name(),
             trimmedNumber(algo.arithmeticIntensity().value(), 3),
             trimmedNumber(attainable_gops, 4),
             trimmedNumber(estimate.value.value(), 4),
             std::string(platform::toString(estimate.binding.kind)) +
                 ": " + machine.ceilingName(estimate.binding)});
        result.addMetric(algo.name() + "_bound",
                         estimate.value.value(), "Hz");
        // Kind and index together identify the ceiling: the index
        // alone is ambiguous across the compute/memory families.
        result.addMetric(algo.name() + "_binding_kind",
                         estimate.binding.kind ==
                                 platform::CeilingKind::Compute
                             ? 0.0
                             : 1.0);
        result.addMetric(algo.name() + "_binding_index",
                         static_cast<double>(estimate.binding.index));

        if (annotated && algo.traits().annotated()) {
            platform::WorkloadProfile profile =
                workload::workloadProfile(algo, machine);
            plot::Series envelope("envelope: " + algo.name());
            for (std::size_t i = 0; i < samples; ++i) {
                const double frac =
                    static_cast<double>(i) /
                    static_cast<double>(samples - 1);
                profile.ai = units::OpsPerByte(
                    ai_min * std::pow(ai_max / ai_min, frac));
                envelope.add(profile.ai.value(),
                             machine.attainable(profile, op)
                                 .attainable.value());
            }
            result.series.push_back(std::move(envelope));
        }
    }
    result.series.push_back(std::move(markers));

    // Per-stage pipeline breakdown: pipeline=<algorithm with a
    // standard SPA stage pipeline> appends the workload-aware
    // per-stage evaluation on this machine and operating point;
    // stage=<name> narrows the breakdown to one stage. Both names
    // are validated up front with "did you mean" suggestions.
    std::string stage_breakdown;
    const std::string pipeline_name =
        trim(ctx.params.get("pipeline", ""));
    const std::string stage_filter = trim(ctx.params.get("stage", ""));
    if (pipeline_name.empty() && !stage_filter.empty()) {
        throw ModelError("parameter 'stage' ('" + stage_filter +
                         "') needs the 'pipeline' parameter, whose "
                         "breakdown it narrows");
    }
    if (!pipeline_name.empty()) {
        const auto pipeline =
            workload::standardPipelineFor(pipeline_name);
        if (!pipeline) {
            std::vector<std::string> candidates;
            const auto algorithms = workload::standardAlgorithms();
            for (const auto &algo : algorithms.items()) {
                if (workload::standardPipelineFor(algo.name()))
                    candidates.push_back(algo.name());
            }
            const auto hints =
                closestMatches(pipeline_name, candidates);
            throw ModelError(
                "no standard SPA stage pipeline for '" +
                pipeline_name + "'" +
                (hints.empty()
                     ? "; pipelines exist for: " +
                           join(candidates, ", ")
                     : " (did you mean " + join(hints, " or ") +
                           "?)"));
        }
        if (!stage_filter.empty() &&
            !pipeline->hasStage(stage_filter)) {
            const auto hints = closestMatches(
                stage_filter, pipeline->stageNames());
            throw ModelError(
                "pipeline '" + pipeline->name() +
                "' has no stage '" + stage_filter + "'" +
                (hints.empty()
                     ? "; stages: " +
                           join(pipeline->stageNames(), ", ")
                     : " (did you mean " + join(hints, " or ") +
                           "?)"));
        }
        const workload::StagePipelineEvaluator evaluator(*pipeline,
                                                         machine);
        workload::StageEvalOptions eval_options;
        eval_options.opIndex = op;
        const workload::PipelineBound bound =
            evaluator.evaluate(eval_options);
        TextTable stage_table({"Stage", "Latency (ms)", "Source",
                               "Binding ceiling"});
        for (std::size_t i = 0; i < bound.stageCount; ++i) {
            const std::string &stage_name = evaluator.stageName(i);
            if (!stage_filter.empty() && stage_name != stage_filter)
                continue;
            const workload::StageBound &stage = bound.stages[i];
            stage_table.addRow(
                {stage_name + (i == bound.bottleneckIndex
                                   ? " (bottleneck)"
                                   : ""),
                 trimmedNumber(stage.latencySeconds * 1e3, 3),
                 workload::toString(stage.source),
                 stage.binding.attributed
                     ? std::string(platform::toString(
                           stage.binding.kind)) +
                           ": " +
                           machine.ceilingName(stage.binding)
                     : "-"});
            const std::string prefix =
                "stage_" +
                ScenarioRunner::sanitizeLabel(stage_name);
            result.addMetric(prefix + "_latency",
                             stage.latencySeconds * 1e3, "ms");
            if (stage.binding.attributed) {
                result
                    .addMetric(prefix + "_binding_kind",
                               stage.binding.kind ==
                                       platform::CeilingKind::
                                           Compute
                                   ? 0.0
                                   : 1.0)
                    .addMetric(prefix + "_binding_index",
                               static_cast<double>(
                                   stage.binding.index));
            }
        }
        result
            .addMetric("pipeline_stages",
                       static_cast<double>(bound.stageCount))
            .addMetric("pipeline_throughput", bound.throughputHz,
                       "Hz");
        stage_breakdown =
            strFormat("Per-stage pipeline '%s' (%.4f Hz):\n",
                      pipeline->name().c_str(),
                      bound.throughputHz) +
            stage_table.render();
    }

    result.summary =
        strFormat("%s @ %s (x%.2f clock, %.2f W): %zu compute + "
                  "%zu memory ceilings\n",
                  machine.name().c_str(), point.name.c_str(),
                  point.frequencyFraction, point.tdp.value(),
                  machine.computeCeilings().size(),
                  machine.memoryCeilings().size()) +
        table.render() + stage_breakdown;
    return result;
}

} // namespace

StudyInfo
rooflineStudy()
{
    return {"roofline", "Hierarchical machine roofline",
            "Multi-ceiling compute/memory roofs, DVFS "
            "operating points and per-algorithm binding "
            "ceilings for a platform preset; "
            "workloads=annotated adds per-workload envelopes; "
            "pipeline=<algorithm> adds a per-stage breakdown "
            "(stage=<name> narrows it)",
            {"platform", "op", "ai_min", "ai_max", "samples",
             "workloads", "pipeline", "stage"},
            {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
