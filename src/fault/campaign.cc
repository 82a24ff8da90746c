/**
 * @file
 * FaultCampaign implementation.
 *
 * A mission's outcome is a pure function of its fault-activation
 * mask, so the constructor evaluates every mask once through the
 * scalar F1Model::analyzeInto into an outcome table. run() then only
 * draws (one uniform per fault, as the scalar loop does) and counts
 * each mission's mask in a per-slot histogram; it keeps no
 * per-mission state. A severity sweep draws once for a group of
 * levels and counts each mission's mask at every level of the group
 * in that level's histogram. The tallies, the exact percentiles and
 * the exactly rounded v_safe moments all follow from the merged
 * histogram in O(masks) (sim::Distribution::fromHistogram).
 * runReference() keeps the original mission-at-a-time loop,
 * summarized through sim::Distribution::fromSamples, as the
 * bit-identity oracle; both summaries sum the same terms exactly, so
 * they agree by construction. The two rare failures replay draws in
 * block order: a drawn mask whose inputs the scalar path rejects
 * sends its first block through that loop from the block's Rng, so
 * the error thrown matches exactly, and a NaN v_safe is named by its
 * index among the survivors, as fromSamples() names it.
 */

#include "fault/campaign.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "sim/block_sampling.hh"
#include "support/errors.hh"
#include "support/validate.hh"
#include "workload/stage_eval.hh"

namespace uavf1::fault {

namespace {

/** What a campaign's sample-count errors call it. */
constexpr const char *kWhat = "fault campaign";

/** The most faults a spec may hold: the outcome table has one entry
 * per subset of them. */
constexpr std::size_t kMaxFaults = 16;

/** True for fault kinds evaluated on the platform layer. The
 * stage-scoped kinds belong here: they perturb how one stage sees
 * the *ceiling family* (through its WorkloadProfile), not the
 * stage's measured latency, so they ride the platform activation
 * mask and lower through the per-mask stage tables. */
bool
isPlatformFault(FaultKind kind)
{
    return kind == FaultKind::CeilingDerate ||
           kind == FaultKind::OperatingPointLoss ||
           kind == FaultKind::ThermalThrottle ||
           kind == FaultKind::StageCeilingDerate ||
           kind == FaultKind::StageTrafficInflation;
}

/** True for the platform-layer kinds that are scoped to one stage's
 * workload profile rather than the shared ceiling family. */
bool
isStageScopedPlatformFault(FaultKind kind)
{
    return kind == FaultKind::StageCeilingDerate ||
           kind == FaultKind::StageTrafficInflation;
}

/** True for fault kinds evaluated on the SPA pipeline layer. */
bool
isPipelineFault(FaultKind kind)
{
    return kind == FaultKind::StageLatencyInflation ||
           kind == FaultKind::StageFailure;
}

} // namespace

FaultCampaign::FaultCampaign(CampaignSpec spec) : _spec(std::move(spec))
{
    // Validate the nominal by constructing the model once.
    (void)core::F1Model(_spec.nominal);
    requireNonNegative(_spec.probabilityScale, "probabilityScale");
    requireFinite(_spec.probabilityScale, "probabilityScale");

    for (std::size_t j = 0; j < _spec.faults.size(); ++j) {
        const FaultSpec &fault = _spec.faults[j];
        validateFaultSpec(fault);
        if (isPlatformFault(fault.kind))
            _platformFaults.push_back(j);
        else if (isPipelineFault(fault.kind))
            _pipelineFaults.push_back(j);
        else
            _sensorFaults.push_back(j);
    }

    // Each layer's fault subsets are enumerated into a variant
    // table, and every subset of all faults into the outcome table,
    // so the counts are capped to keep the tables small (2^16
    // outcomes at most).
    constexpr std::size_t max_per_layer = 8;
    for (const auto &[layer, faults] :
         {std::pair{"platform", &_platformFaults},
          std::pair{"pipeline", &_pipelineFaults},
          std::pair{"sensor", &_sensorFaults}}) {
        if (faults->size() > max_per_layer) {
            throw ModelError(
                "fault campaign supports at most " +
                std::to_string(max_per_layer) +
                " faults per layer, but the " + layer + " layer has " +
                std::to_string(faults->size()));
        }
    }
    if (_spec.faults.size() > kMaxFaults) {
        throw ModelError("fault campaign supports at most " +
                         std::to_string(kMaxFaults) +
                         " faults in all, but the spec has " +
                         std::to_string(_spec.faults.size()));
    }

    if (!_platformFaults.empty() && !_spec.platform) {
        throw ModelError(
            "fault '" +
            _spec.faults[_platformFaults.front()].name +
            "' perturbs the platform layer, but the campaign has "
            "no RooflinePlatform configured");
    }
    if (!_pipelineFaults.empty() && !_spec.pipeline) {
        throw ModelError(
            "fault '" +
            _spec.faults[_pipelineFaults.front()].name +
            "' perturbs the SPA pipeline, but the campaign has no "
            "pipeline configured");
    }

    if (_spec.platform) {
        requirePositive(_spec.workPerFrameGop, "workPerFrameGop");
        // Surface profile/operating-point problems once up front.
        (void)_spec.platform->attainable(_spec.profile,
                                         _spec.opIndex);
        for (const std::size_t j : _platformFaults) {
            const FaultSpec &fault = _spec.faults[j];
            if (fault.kind != FaultKind::CeilingDerate)
                continue;
            const std::size_t limit =
                fault.ceilingKind == platform::CeilingKind::Compute
                    ? _spec.platform->computeCeilings().size()
                    : _spec.platform->memoryCeilings().size();
            if (fault.ceilingIndex >= limit) {
                throw ModelError(
                    "ceilingIndex of fault '" + fault.name +
                    "' is out of range for the " +
                    std::string(toString(fault.ceilingKind)) +
                    " ceilings of " + _spec.platform->name());
            }
        }
        for (const std::size_t j : _platformFaults) {
            const FaultSpec &fault = _spec.faults[j];
            if (!isStageScopedPlatformFault(fault.kind))
                continue;
            if (!_spec.pipeline) {
                throw ModelError(
                    "fault '" + fault.name + "' (" +
                    toString(fault.kind) +
                    ") is scoped to stage '" + fault.stage +
                    "', but the campaign has no SPA pipeline "
                    "configured to resolve the stage against");
            }
            bool found = false;
            bool annotated = false;
            for (const auto &stage : _spec.pipeline->stages()) {
                if (stage.name != fault.stage)
                    continue;
                found = true;
                annotated = stage.annotated();
                break;
            }
            if (!found) {
                // Reuse the pipeline's own unknown-stage diagnostic
                // (with its did-you-mean hints).
                (void)_spec.pipeline->withStageLatency(
                    fault.stage, units::Seconds(1.0), "");
            }
            if (!annotated) {
                throw ModelError(
                    "stage '" + fault.stage + "' named by fault '" +
                    fault.name +
                    "' carries no roofline annotation, so a "
                    "stage-scoped platform fault cannot reach it "
                    "(the stage has no workload profile to derate)");
            }
            if (fault.kind == FaultKind::StageTrafficInflation) {
                const std::size_t limit = std::min(
                    _spec.platform->memoryCeilings().size(),
                    platform::WorkloadProfile::maxMemoryLevels);
                if (fault.ceilingIndex >= limit) {
                    throw ModelError(
                        "ceilingIndex of fault '" + fault.name +
                        "' does not name a memory level of " +
                        _spec.platform->name());
                }
            }
        }
        precomputePlatformVariants();
    }
    if (_spec.pipeline) {
        for (const std::size_t j : _pipelineFaults) {
            const FaultSpec &fault = _spec.faults[j];
            bool found = false;
            for (const auto &stage : _spec.pipeline->stages())
                found = found || stage.name == fault.stage;
            if (!found) {
                // Reuse the pipeline's own unknown-stage diagnostic.
                (void)_spec.pipeline->withStageLatency(
                    fault.stage, units::Seconds(1.0), "");
            }
        }
        precomputePipelineVariants();
    }
    compileOutcomes();
}

void
FaultCampaign::precomputePlatformVariants()
{
    const platform::RooflinePlatform &machine = *_spec.platform;
    const std::size_t masks = std::size_t{1}
                              << _platformFaults.size();
    _platformVariants.reserve(masks);
    if (_spec.pipeline) {
        _stageCount = _spec.pipeline->stages().size();
        _stageNames = _spec.pipeline->stageNames();
        _stageBase.assign(masks * _stageCount, 0.0);
        _stageKind.assign(masks * _stageCount,
                          sim::BindingTallies::kMeasured);
    }
    for (std::size_t mask = 0; mask < masks; ++mask) {
        platform::RooflinePlatform::Spec degraded;
        degraded.name = machine.name();
        degraded.description = machine.description();
        degraded.computeCeilings = machine.computeCeilings();
        degraded.memoryCeilings = machine.memoryCeilings();
        degraded.operatingPoints = machine.operatingPoints();

        double throttle_floor = 1.0;
        workload::DvfsModel::Params throttle_law;
        bool throttled = false;
        bool op_lost = false;
        for (std::size_t bit = 0; bit < _platformFaults.size();
             ++bit) {
            if ((mask & (std::size_t{1} << bit)) == 0)
                continue;
            const FaultSpec &fault =
                _spec.faults[_platformFaults[bit]];
            switch (fault.kind) {
              case FaultKind::CeilingDerate:
                if (fault.ceilingKind ==
                    platform::CeilingKind::Compute) {
                    auto &ceiling =
                        degraded.computeCeilings[fault.ceilingIndex];
                    ceiling.peak = units::Gops(
                        ceiling.peak.value() * fault.derate);
                } else {
                    auto &ceiling =
                        degraded.memoryCeilings[fault.ceilingIndex];
                    ceiling.bandwidth = units::GigabytesPerSecond(
                        ceiling.bandwidth.value() * fault.derate);
                }
                break;
              case FaultKind::ThermalThrottle:
                // The worst active throttle wins.
                if (!throttled ||
                    fault.dvfs.minFrequencyFraction <
                        throttle_floor) {
                    throttle_floor =
                        fault.dvfs.minFrequencyFraction;
                    throttle_law = fault.dvfs;
                }
                throttled = true;
                break;
              case FaultKind::OperatingPointLoss:
                op_lost = true;
                break;
              default:
                break;
            }
        }

        PlatformVariant variant;
        std::size_t op_index = _spec.opIndex;
        if (throttled) {
            // Thermal protection pins the clock at the DVFS floor
            // (never *raising* it), with the TDP the CMOS power law
            // predicts there. A throttle preempts operating-point
            // choice, so a simultaneous op loss changes nothing.
            auto &point = degraded.operatingPoints[op_index];
            const double fraction =
                std::min(point.frequencyFraction, throttle_floor);
            point.name += " (throttled)";
            point.frequencyFraction = fraction;
            const units::Watts nominal_tdp =
                degraded.operatingPoints.front().tdp;
            point.tdp = nominal_tdp.value() > 0.0
                            ? platform::dvfsScaledTdp(
                                  nominal_tdp, fraction,
                                  throttle_law.exponent,
                                  throttle_law.leakageFraction)
                            : units::Watts(0.0);
        } else if (op_lost) {
            // The selected point is unavailable; fall back to the
            // fastest point slower than it, aborting when the
            // selected point was already the slowest.
            const double lost_fraction =
                degraded.operatingPoints[op_index]
                    .frequencyFraction;
            bool found = false;
            double best = 0.0;
            for (std::size_t i = 0;
                 i < degraded.operatingPoints.size(); ++i) {
                const double fraction =
                    degraded.operatingPoints[i].frequencyFraction;
                if (fraction < lost_fraction &&
                    (!found || fraction > best)) {
                    found = true;
                    best = fraction;
                    op_index = i;
                }
            }
            if (!found) {
                variant.aborts = true;
                _platformVariants.push_back(variant);
                continue;
            }
        }

        const platform::RooflinePlatform degraded_machine(
            std::move(degraded));
        const platform::AttainableBound bound =
            degraded_machine.attainable(_spec.profile, op_index);
        variant.computeRate =
            bound.attainable.value() / _spec.workPerFrameGop;
        variant.binding = bound.binding;
        _platformVariants.push_back(variant);

        if (!_spec.pipeline)
            continue;
        // Evaluate the pipeline's per-stage bounds on this degraded
        // machine. The un-faulted variant keeps measured-first
        // semantics (bit-identical to the pipeline-only path on the
        // measured platform); faulted variants drop rule 1 so a
        // throttled clock scales the measurements and a derated
        // ceiling can raise a stage's modeled floor above them.
        workload::StagePipelineEvaluator evaluator(
            *_spec.pipeline, degraded_machine);
        // Stage-scoped faults lower through the *stage's* profile —
        // the workload's view of the ceiling family degrades, never
        // the platform the other stages share. Effects compound in
        // fault order by transforming the already-overridden
        // profile, mirroring how latency inflations multiply.
        for (std::size_t bit = 0; bit < _platformFaults.size();
             ++bit) {
            if ((mask & (std::size_t{1} << bit)) == 0)
                continue;
            const FaultSpec &fault =
                _spec.faults[_platformFaults[bit]];
            if (!isStageScopedPlatformFault(fault.kind))
                continue;
            for (std::size_t s = 0; s < _stageCount; ++s) {
                if (_stageNames[s] != fault.stage)
                    continue;
                platform::WorkloadProfile profile =
                    evaluator.stageProfile(s);
                if (fault.kind == FaultKind::StageCeilingDerate) {
                    profile.targetDerate[static_cast<unsigned>(
                        fault.targetClass)] *= fault.derate;
                } else {
                    profile.trafficFraction[fault.ceilingIndex] *=
                        fault.trafficFactor;
                }
                evaluator.overrideStageProfile(s, profile);
            }
        }
        // A derate-0 fault that strips a stage's *only* admitted
        // roof leaves it with 0 GOPS attainable, and a derate deep
        // enough (a subnormal) leaves so little that its modeled
        // latency overflows — either way the stage cannot execute,
        // so the mission aborts for this fault combination (the
        // stage-eval spine would otherwise reject the infinite
        // latency). SLAM-style stages with a fallback roof never hit
        // this: their derated class just loses ties.
        bool stage_removed = false;
        for (std::size_t s = 0; s < _stageCount && !stage_removed;
             ++s) {
            if (!evaluator.stageAnnotated(s))
                continue;
            const double attainable =
                degraded_machine
                    .attainable(evaluator.stageProfile(s), op_index)
                    .attainable.value();
            stage_removed =
                !std::isfinite(evaluator.stageWorkGop(s) / attainable);
        }
        if (stage_removed) {
            _platformVariants.back().aborts = true;
            continue;
        }
        workload::StageEvalOptions eval_options;
        eval_options.opIndex = op_index;
        eval_options.measuredFirst = mask == 0;
        const workload::PipelineBound stage_bound =
            evaluator.evaluate(eval_options);
        for (std::size_t s = 0; s < _stageCount; ++s) {
            const workload::StageBound &stage =
                stage_bound.stages[s];
            _stageBase[mask * _stageCount + s] =
                stage.latencySeconds;
            _stageKind[mask * _stageCount + s] = static_cast<
                std::uint8_t>(sim::BindingTallies::kindOf(stage.binding));
        }
    }
}

void
FaultCampaign::precomputePipelineVariants()
{
    const pipeline::ModularRedundancy redundancy(_spec.redundancy);
    // With R replicas racing on the same frame, takeover absorbs up
    // to R-1 stage failures; one more leaves no healthy replica.
    const int failure_budget = redundancy.replicas() - 1;

    const std::size_t masks = std::size_t{1}
                              << _pipelineFaults.size();
    _pipelineVariants.reserve(masks);
    if (_spec.platform)
        _stageInflation.assign(masks * _stageCount, 1.0);
    for (std::size_t mask = 0; mask < masks; ++mask) {
        int failures = 0;
        workload::SpaPipeline pipe = *_spec.pipeline;
        for (std::size_t bit = 0; bit < _pipelineFaults.size();
             ++bit) {
            if ((mask & (std::size_t{1} << bit)) == 0)
                continue;
            const FaultSpec &fault =
                _spec.faults[_pipelineFaults[bit]];
            if (fault.kind == FaultKind::StageFailure) {
                ++failures;
                continue;
            }
            // Inflations compound: read the stage's current latency
            // so two active inflations of one stage multiply.
            for (const auto &stage : pipe.stages()) {
                if (stage.name != fault.stage)
                    continue;
                pipe = pipe.withStageLatency(
                    fault.stage,
                    units::Seconds(stage.latency.value() *
                                   fault.latencyFactor),
                    "");
                break;
            }
            if (_spec.platform) {
                // The same compounding, as a factor on the
                // *evaluated* per-stage bound of the platform path.
                for (std::size_t s = 0; s < _stageCount; ++s) {
                    if (_stageNames[s] == fault.stage)
                        _stageInflation[mask * _stageCount + s] *=
                            fault.latencyFactor;
                }
            }
        }

        PipelineVariant variant;
        if (failures > failure_budget) {
            variant.aborts = true;
        } else {
            variant.throughputHz =
                redundancy.effectiveThroughput(pipe.throughput())
                    .value();
        }
        _pipelineVariants.push_back(variant);
    }
}

void
FaultCampaign::compileOutcomes()
{
    // A mission's outcome depends only on which faults are active,
    // so each activation mask is evaluated once here, in the scalar
    // path's operation order, and a run only counts masks.
    const platform::RooflinePlatform *machine =
        _spec.platform ? &*_spec.platform : nullptr;
    const pipeline::ModularRedundancy redundancy(_spec.redundancy);
    _outcomes.resize(std::size_t{1} << _spec.faults.size());
    core::F1Analysis analysis;
    for (std::size_t mask = 0; mask < _outcomes.size(); ++mask) {
        std::size_t platform_mask = 0;
        std::size_t pipeline_mask = 0;
        std::size_t platform_bit = 0;
        std::size_t pipeline_bit = 0;
        double sensor_fraction = 1.0;
        for (std::size_t j = 0; j < _spec.faults.size(); ++j) {
            const std::size_t active = (mask >> j) & 1;
            const FaultSpec &fault = _spec.faults[j];
            if (isPlatformFault(fault.kind))
                platform_mask |= active << platform_bit++;
            else if (isPipelineFault(fault.kind))
                pipeline_mask |= active << pipeline_bit++;
            else if (active)
                sensor_fraction *= 1.0 - fault.sensorDerate;
        }

        Outcome &outcome = _outcomes[mask];
        outcome.platformMask = static_cast<std::uint32_t>(platform_mask);
        core::F1Inputs inputs = _spec.nominal;
        bool abort = sensor_fraction <= 0.0;
        platform::CeilingRef binding{};
        if (machine) {
            const PlatformVariant &variant =
                _platformVariants[platform_mask];
            abort = abort || variant.aborts;
            inputs.computeRate = units::Hertz(variant.computeRate);
            binding = variant.binding;
        }
        if (_spec.pipeline) {
            const PipelineVariant &variant =
                _pipelineVariants[pipeline_mask];
            abort = abort || variant.aborts;
            double pipeline_rate = variant.throughputHz;
            if (!abort && machine) {
                const double *base =
                    &_stageBase[platform_mask * _stageCount];
                const double *inflation =
                    &_stageInflation[pipeline_mask * _stageCount];
                double total = 0.0;
                for (std::size_t s = 0; s < _stageCount; ++s)
                    total += base[s] * inflation[s];
                pipeline_rate =
                    redundancy
                        .effectiveThroughput(units::Hertz(1.0 / total))
                        .value();
            }
            if (!abort && (!machine ||
                           pipeline_rate < inputs.computeRate.value())) {
                inputs.computeRate = units::Hertz(pipeline_rate);
                binding = {};
            }
        }
        outcome.aborts = abort;
        if (abort)
            continue;
        inputs.sensorRate = units::Hertz(inputs.sensorRate.value() *
                                         sensor_fraction);
        inputs.computeBinding = binding;
        try {
            core::F1Model::analyzeInto(inputs, analysis);
            outcome.vSafe = analysis.safeVelocity.value();
        } catch (const ModelError &) {
            // Raised only if a mission draws this mask: run() then
            // replays the draws through scalarSamples(), which
            // throws this error at that mission.
            outcome.throws = true;
        }
        if (binding.attributed) {
            outcome.ceilingSlot =
                static_cast<std::uint32_t>(machine->ceilingSlot(binding));
        }
    }
}

core::F1Analysis
FaultCampaign::baseline() const
{
    core::F1Inputs inputs = _spec.nominal;
    if (_spec.platform) {
        const PlatformVariant &variant = _platformVariants.front();
        inputs.computeRate = units::Hertz(variant.computeRate);
        inputs.computeBinding = variant.binding;
    }
    if (_spec.pipeline) {
        double pipeline_rate = _pipelineVariants.front().throughputHz;
        if (_spec.platform) {
            // The same per-stage path an un-faulted sample takes.
            const pipeline::ModularRedundancy redundancy(
                _spec.redundancy);
            double total = 0.0;
            for (std::size_t s = 0; s < _stageCount; ++s)
                total += _stageBase[s];
            pipeline_rate =
                redundancy
                    .effectiveThroughput(units::Hertz(1.0 / total))
                    .value();
        }
        if (!_spec.platform ||
            pipeline_rate < inputs.computeRate.value()) {
            inputs.computeRate = units::Hertz(pipeline_rate);
            inputs.computeBinding = {};
        }
    }
    core::F1Analysis analysis;
    core::F1Model::analyzeInto(inputs, analysis);
    return analysis;
}

void
FaultCampaign::scalarSamples(const std::vector<double> &effective_prob,
                             std::size_t lo, std::size_t hi, Rng &rng,
                             double *v_safe, unsigned char *aborted,
                             std::uint64_t *activations,
                             sim::BindingTallies &bindings) const
{
    const std::size_t fault_count = _spec.faults.size();
    const platform::RooflinePlatform *machine =
        _spec.platform ? &*_spec.platform : nullptr;
    const bool stage_path = machine && _spec.pipeline.has_value();
    const pipeline::ModularRedundancy redundancy(_spec.redundancy);
    core::F1Analysis analysis;
    std::array<std::uint64_t, kMaxFaults> active_count{};
    for (std::size_t i = lo; i < hi; ++i) {
        // Exactly one draw per fault, active or not, so the stream a
        // later fault sees never depends on an earlier activation
        // (or on probabilityScale turning one off).
        std::size_t platform_mask = 0;
        std::size_t pipeline_mask = 0;
        std::size_t platform_bit = 0;
        std::size_t pipeline_bit = 0;
        double sensor_fraction = 1.0;
        for (std::size_t j = 0; j < fault_count; ++j) {
            const bool active = rng.uniform() < effective_prob[j];
            const FaultSpec &fault = _spec.faults[j];
            if (isPlatformFault(fault.kind)) {
                if (active) {
                    platform_mask |= std::size_t{1} << platform_bit;
                }
                ++platform_bit;
            } else if (isPipelineFault(fault.kind)) {
                if (active) {
                    pipeline_mask |= std::size_t{1} << pipeline_bit;
                }
                ++pipeline_bit;
            } else if (active) {
                sensor_fraction *= 1.0 - fault.sensorDerate;
            }
            if (active)
                ++active_count[j];
        }

        core::F1Inputs inputs = _spec.nominal;
        bool abort = sensor_fraction <= 0.0;
        platform::CeilingRef binding{};
        if (machine) {
            const PlatformVariant &variant =
                _platformVariants[platform_mask];
            abort = abort || variant.aborts;
            inputs.computeRate = units::Hertz(variant.computeRate);
            binding = variant.binding;
        }
        if (_spec.pipeline) {
            const PipelineVariant &variant =
                _pipelineVariants[pipeline_mask];
            abort = abort || variant.aborts;
            double pipeline_rate = variant.throughputHz;
            if (!abort && stage_path) {
                // Workload-aware path: the degraded per-stage
                // bounds, inflated by the active stage faults.
                // Table lookups and a short sum — allocation-free.
                const double *base =
                    &_stageBase[platform_mask * _stageCount];
                const double *inflation =
                    &_stageInflation[pipeline_mask * _stageCount];
                double total = 0.0;
                for (std::size_t s = 0; s < _stageCount; ++s)
                    total += base[s] * inflation[s];
                pipeline_rate =
                    redundancy
                        .effectiveThroughput(
                            units::Hertz(1.0 / total))
                        .value();
            }
            if (!abort &&
                (!machine ||
                 pipeline_rate < inputs.computeRate.value())) {
                inputs.computeRate = units::Hertz(pipeline_rate);
                binding = {};
            }
        }
        if (abort) {
            aborted[i - lo] = 1;
            continue;
        }
        inputs.sensorRate = units::Hertz(inputs.sensorRate.value() *
                                         sensor_fraction);
        inputs.computeBinding = binding;
        core::F1Model::analyzeInto(inputs, analysis);
        v_safe[i - lo] = analysis.safeVelocity.value();
        if (binding.attributed)
            bindings.addCeiling(machine->ceilingSlot(binding));
        for (std::size_t s = 0; s < _stageCount; ++s)
            bindings.addStage(s, _stageKind[platform_mask * _stageCount + s]);
    }
    for (std::size_t j = 0; j < fault_count; ++j)
        activations[j] += active_count[j];
}


namespace {

/** Each fault's activation probability at a severity scale. */
std::vector<double>
activationProbabilities(const CampaignSpec &spec, double scale)
{
    std::vector<double> probability;
    for (const FaultSpec &fault : spec.faults)
        probability.push_back(std::min(1.0, fault.probability * scale));
    return probability;
}

/** Missions per uniformBlock call: the draw buffer stays in L1. */
constexpr std::size_t kDrawRun = 64;

/**
 * Histogram counts one slot of a draw holds at most: one level of a
 * 16-fault campaign. A draw bins up to 2^(16 - faults) levels, so a
 * 16-fault campaign draws once per level and a 3-fault one bins up
 * to 8192 levels per draw.
 */
constexpr std::size_t kDrawCounts = std::size_t{1} << kMaxFaults;

/**
 * Draw the uniforms of missions [lo, hi) of one block from its Rng —
 * one per fault per mission, in fault order: the scalar path's own
 * draw sequence — and hand each mission's activation mask at each
 * of `levels` threshold rows (`fault_count` probabilities each) to
 * `visit(level, mask)`. The uniforms come kDrawRun missions at a
 * time, and each run is binned level by level: at any one level the
 * masks come in mission order. `u` holds kDrawRun * fault_count
 * doubles.
 */
template <typename Visit>
void
drawMasks(const double *thresholds, std::size_t levels,
          std::size_t fault_count, std::size_t lo, std::size_t hi,
          Rng &rng, double *u, Visit &&visit)
{
    for (std::size_t run = lo; run < hi; run += kDrawRun) {
        const std::size_t m = std::min(hi - run, kDrawRun);
        rng.uniformBlock(u, m * fault_count);
        const double *p = thresholds;
        for (std::size_t level = 0; level < levels; ++level) {
            for (std::size_t i = 0; i < m; ++i) {
                const double *draw = u + i * fault_count;
                std::uint32_t mask = 0;
                for (std::size_t j = 0; j < fault_count; ++j)
                    mask |= static_cast<std::uint32_t>(draw[j] < p[j])
                            << j;
                visit(level, mask);
            }
            p += fault_count;
        }
    }
}

} // namespace

CampaignResult
FaultCampaign::tallyResult(std::size_t count, std::uint64_t aborts,
                           const std::vector<std::uint64_t> &activations,
                           const sim::BindingTallies &bindings) const
{
    CampaignResult result;
    result.samples = count;
    const auto n = static_cast<double>(count);
    result.abortProbability = static_cast<double>(aborts) / n;
    for (const std::uint64_t hits : activations)
        result.faultActivationRate.push_back(
            static_cast<double>(hits) / n);
    bindings.writeShares(count - aborts, _stageNames, result);
    return result;
}

CampaignResult
FaultCampaign::run(std::size_t count, std::uint64_t seed,
                   const exec::ParallelOptions &parallel) const
{
    const sim::BlockLayout layout(kWhat, count, sampleBlock, seed);
    const std::vector<double> probability =
        activationProbabilities(_spec, _spec.probabilityScale);
    const std::vector<std::uint64_t> counts =
        drawLevels(layout, {&probability, 1}, parallel);
    return summarize(layout, probability, counts.data(), parallel);
}

std::vector<std::uint64_t>
FaultCampaign::drawLevels(
    const sim::BlockLayout &layout,
    std::span<const std::vector<double>> probabilities,
    const exec::ParallelOptions &parallel) const
{
    const std::size_t levels = probabilities.size();
    const std::size_t fault_count = _spec.faults.size();
    const std::size_t masks = _outcomes.size();
    std::vector<double> thresholds;
    thresholds.reserve(levels * fault_count);
    for (const std::vector<double> &row : probabilities)
        thresholds.insert(thresholds.end(), row.begin(), row.end());

    // Each mission bumps, at every level, that level's histogram at
    // its activation mask. A slot's histograms are one run of
    // levels * masks counts, more than a cache line from the next
    // slot's.
    const std::size_t slots = exec::maxSlots(parallel);
    const std::size_t stride = levels * masks + 16;
    std::vector<std::uint64_t> hist(slots * stride, 0);
    std::vector<std::vector<double>> uniforms(
        slots, std::vector<double>(kDrawRun * fault_count));
    layout.forEach(parallel, [&](std::size_t slot, std::size_t,
                                 std::size_t lo, std::size_t hi,
                                 Rng &rng) {
        // Captured by value, so a count store cannot alias `masks`.
        std::uint64_t *slot_hist = &hist[slot * stride];
        drawMasks(thresholds.data(), levels, fault_count, lo, hi, rng,
                  uniforms[slot].data(),
                  [slot_hist, masks](std::size_t level,
                                     std::uint32_t mask) {
                      ++slot_hist[level * masks + mask];
                  });
    });

    std::vector<std::uint64_t> counts(levels * masks, 0);
    for (std::size_t slot = 0; slot < slots; ++slot)
        for (std::size_t k = 0; k < counts.size(); ++k)
            counts[k] += hist[slot * stride + k];
    return counts;
}

CampaignResult
FaultCampaign::summarize(const sim::BlockLayout &layout,
                         const std::vector<double> &probability,
                         const std::uint64_t *counts,
                         const exec::ParallelOptions &parallel) const
{
    // Everything follows from the mask counts and the outcome table,
    // in O(masks).
    const std::size_t count = layout.count();
    const std::size_t fault_count = _spec.faults.size();
    const std::size_t masks = _outcomes.size();
    std::uint64_t aborts = 0;
    std::vector<std::uint64_t> activations(fault_count, 0);
    sim::BindingTallies bindings(_spec.platform, _stageCount);
    std::vector<double> v_safe(masks, 0.0);
    std::vector<std::uint64_t> survivors(masks, 0);
    bool rejected = false;
    bool nan = false;
    for (std::size_t mask = 0; mask < masks; ++mask) {
        const std::uint64_t hits = counts[mask];
        const Outcome &outcome = _outcomes[mask];
        if (hits == 0)
            continue;
        rejected = rejected || outcome.throws;
        for (std::size_t j = 0; j < fault_count; ++j)
            activations[j] += ((mask >> j) & 1) * hits;
        if (outcome.aborts) {
            aborts += hits;
            continue;
        }
        survivors[mask] = hits;
        v_safe[mask] = outcome.vSafe;
        nan = nan || outcome.vSafe != outcome.vSafe;
        if (outcome.ceilingSlot != noSlot)
            bindings.addCeiling(outcome.ceilingSlot, hits);
        for (std::size_t s = 0; s < _stageCount; ++s) {
            bindings.addStage(
                s, _stageKind[outcome.platformMask * _stageCount + s],
                hits);
        }
    }

    // The two rare paths replay draws in block order to fail where
    // the scalar path does. A drawn mask the scalar path rejects:
    // replaying its first block through scalarSamples() throws that
    // path's error at the same mission (so what it tallies is never
    // read).
    std::vector<double> u;
    if (rejected || nan)
        u.resize(kDrawRun * fault_count);
    if (rejected) {
        for (std::size_t b = 0; b < layout.blocks(); ++b) {
            const std::size_t lo = layout.lo(b);
            const std::size_t hi = layout.hi(b);
            Rng rng = layout.rng(b);
            bool hit = false;
            drawMasks(probability.data(), 1, fault_count, lo, hi, rng,
                      u.data(), [&](std::size_t, std::uint32_t mask) {
                          hit = hit || _outcomes[mask].throws;
                      });
            if (!hit)
                continue;
            std::vector<double> scratch_v_safe(hi - lo);
            std::vector<unsigned char> aborted(hi - lo);
            std::vector<std::uint64_t> scratch_activations(fault_count);
            Rng replay = layout.rng(b);
            scalarSamples(probability, lo, hi, replay,
                          scratch_v_safe.data(), aborted.data(),
                          scratch_activations.data(), bindings);
            break;
        }
        throw std::logic_error(
            "fault campaign outcome table rejects a mission the "
            "scalar path accepts");
    }

    CampaignResult result =
        tallyResult(count, aborts, activations, bindings);
    if (aborts == count)
        return result;
    if (nan) {
        // A NaN survivor: the survivors up to the first NaN, in
        // sample order, make fromSamples() name it by its index.
        std::vector<double> samples;
        bool named = false;
        for (std::size_t b = 0; !named && b < layout.blocks(); ++b) {
            Rng rng = layout.rng(b);
            drawMasks(probability.data(), 1, fault_count, layout.lo(b),
                      layout.hi(b), rng, u.data(),
                      [&](std::size_t, std::uint32_t mask) {
                          if (named || survivors[mask] == 0)
                              return;
                          samples.push_back(v_safe[mask]);
                          named = v_safe[mask] != v_safe[mask];
                      });
        }
        result.safeVelocity =
            sim::Distribution::fromSamples(samples, parallel);
        return result;
    }
    result.safeVelocity =
        sim::Distribution::fromHistogram(v_safe, survivors);
    return result;
}

CampaignResult
FaultCampaign::runReference(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel) const
{
    const sim::BlockLayout layout(kWhat, count, sampleBlock, seed);
    const std::vector<double> probability =
        activationProbabilities(_spec, _spec.probabilityScale);
    std::vector<double> v_safe(count);
    std::vector<unsigned char> aborted(count, 0);
    const std::size_t slots = exec::maxSlots(parallel);
    std::vector<std::vector<std::uint64_t>> activations(
        slots, std::vector<std::uint64_t>(_spec.faults.size(), 0));
    std::vector<sim::BindingTallies> bindings(
        slots, sim::BindingTallies(_spec.platform, _stageCount));
    layout.forEach(parallel, [&](std::size_t slot, std::size_t,
                                 std::size_t lo, std::size_t hi,
                                 Rng &rng) {
        scalarSamples(probability, lo, hi, rng, &v_safe[lo],
                      &aborted[lo], activations[slot].data(),
                      bindings[slot]);
    });

    for (std::size_t slot = 1; slot < slots; ++slot) {
        for (std::size_t j = 0; j < activations[0].size(); ++j)
            activations[0][j] += activations[slot][j];
        bindings[0].add(bindings[slot]);
    }
    std::vector<double> survivors;
    survivors.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        if (!aborted[i])
            survivors.push_back(v_safe[i]);
    CampaignResult result = tallyResult(count, count - survivors.size(),
                                        activations[0], bindings[0]);
    if (!survivors.empty())
        result.safeVelocity =
            sim::Distribution::fromSamples(survivors, parallel);
    return result;
}

std::vector<DegradationPoint>
FaultCampaign::degradationCurve(
    std::size_t levels, std::size_t samples_per_level,
    std::uint64_t seed, const exec::ParallelOptions &parallel) const
{
    return sweepSeverity(levels, samples_per_level, seed, parallel)
        .curve;
}

FaultCampaign::SeveritySweep
FaultCampaign::sweepSeverity(std::size_t levels,
                             std::size_t samples_per_level,
                             std::uint64_t seed,
                             const exec::ParallelOptions &parallel) const
{
    if (levels < 2 || levels > maxLevels) {
        throw ModelError("degradation curve levels must be in [2, " +
                         std::to_string(maxLevels) + "], got " +
                         std::to_string(levels));
    }
    // The same seed at every level, so the curve varies only with
    // severity, not with resampling noise: every level draws from one
    // layout, so one draw bins a group of levels.
    const sim::BlockLayout layout(kWhat, samples_per_level, sampleBlock,
                                  seed);
    std::vector<double> scales;
    std::vector<std::vector<double>> probabilities;
    for (std::size_t level = 0; level < levels; ++level) {
        scales.push_back(static_cast<double>(level) /
                         static_cast<double>(levels - 1));
        probabilities.push_back(activationProbabilities(
            _spec, _spec.probabilityScale * scales.back()));
    }

    // The outcome table does not depend on the probabilities, so
    // every level reuses it too. Each level is summarized, and fails,
    // in level order, as a pass per level would.
    const std::size_t masks = _outcomes.size();
    const std::size_t per_draw = kDrawCounts / masks;
    SeveritySweep sweep;
    sweep.curve.reserve(levels);
    for (std::size_t first = 0; first < levels; first += per_draw) {
        const std::span<const std::vector<double>> group(
            probabilities.data() + first,
            std::min(per_draw, levels - first));
        const std::vector<std::uint64_t> counts =
            drawLevels(layout, group, parallel);
        for (std::size_t k = 0; k < group.size(); ++k) {
            CampaignResult result = summarize(
                layout, group[k], &counts[k * masks], parallel);
            DegradationPoint point;
            point.scale = scales[first + k];
            point.meanSafeVelocity = result.safeVelocity.mean;
            point.p5SafeVelocity = result.safeVelocity.p5;
            point.p95SafeVelocity = result.safeVelocity.p95;
            point.abortProbability = result.abortProbability;
            sweep.curve.push_back(point);
            if (first + k + 1 == levels)
                sweep.fullSeverity = std::move(result);
        }
    }
    return sweep;
}

} // namespace uavf1::fault
