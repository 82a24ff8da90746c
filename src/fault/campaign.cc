/**
 * @file
 * FaultCampaign implementation.
 *
 * run() is the batched hot path. A sample's outcome (aside from its
 * sensor derate) is fully determined by its (platform mask, pipeline
 * mask) pair, so the winner-selection arithmetic — including the
 * redundancy voter sequence — is collapsed into a pair table
 * computed once per run with the exact scalar operation order, and
 * the per-sample loop becomes draws + table lookups + the
 * core::analyzeVSafeBlock kernel. runReference() keeps the original
 * mission-at-a-time loop as the bit-identity oracle; when a kernel
 * validation flag trips, run() re-executes the sub-batch through it
 * from a saved RNG state so the thrown error matches the scalar
 * path exactly.
 */

#include "fault/campaign.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/f1_batch.hh"
#include "support/errors.hh"
#include "support/validate.hh"
#include "workload/stage_eval.hh"

namespace uavf1::fault {

namespace {

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
    // table indexed by activation mask, so the per-layer count is
    // capped to keep the tables small.
    constexpr std::size_t max_per_layer = 8;
    if (_platformFaults.size() > max_per_layer ||
        _pipelineFaults.size() > max_per_layer) {
        throw ModelError(
            "fault campaign supports at most 8 faults per layer");
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
        _stageSlot.assign(masks * _stageCount, measuredSlot);
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
        // roof leaves it with 0 GOPS attainable — the stage cannot
        // execute at all, so the mission aborts for this fault
        // combination (the stage-eval spine would otherwise reject
        // the infinite latency). SLAM-style stages with a fallback
        // roof never hit this: their derated class just loses ties.
        bool stage_removed = false;
        for (std::size_t s = 0; s < _stageCount && !stage_removed;
             ++s) {
            if (!evaluator.stageAnnotated(s))
                continue;
            stage_removed =
                degraded_machine
                    .attainable(evaluator.stageProfile(s), op_index)
                    .attainable.value() <= 0.0;
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
        const std::size_t compute_ceilings =
            machine.computeCeilings().size();
        for (std::size_t s = 0; s < _stageCount; ++s) {
            const workload::StageBound &stage =
                stage_bound.stages[s];
            _stageBase[mask * _stageCount + s] =
                stage.latencySeconds;
            if (stage.binding.attributed) {
                _stageSlot[mask * _stageCount + s] =
                    static_cast<std::uint32_t>(
                        stage.binding.kind ==
                                platform::CeilingKind::Compute
                            ? stage.binding.index
                            : compute_ceilings +
                                  stage.binding.index);
            }
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
FaultCampaign::scalarSamples(
    const std::vector<double> &effective_prob,
    const pipeline::ModularRedundancy &redundancy,
    std::size_t compute_ceilings, std::size_t lo, std::size_t hi,
    Rng &rng, double *v_safe, unsigned char *aborted,
    std::uint64_t &abort_count, std::uint64_t *activation_counts,
    std::uint64_t *ceiling_counts, std::uint64_t *stage_counts) const
{
    const std::size_t fault_count = _spec.faults.size();
    const platform::RooflinePlatform *machine =
        _spec.platform ? &*_spec.platform : nullptr;
    const bool stage_path = machine && _spec.pipeline.has_value();
    core::F1Analysis analysis;
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
                ++activation_counts[j];
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
            aborted[i] = 1;
            ++abort_count;
            continue;
        }
        inputs.sensorRate = units::Hertz(inputs.sensorRate.value() *
                                         sensor_fraction);
        inputs.computeBinding = binding;
        core::F1Model::analyzeInto(inputs, analysis);
        v_safe[i] = analysis.safeVelocity.value();
        if (machine && binding.attributed) {
            const std::size_t slot =
                binding.kind == platform::CeilingKind::Compute
                    ? binding.index
                    : compute_ceilings + binding.index;
            ++ceiling_counts[slot];
        }
        if (stage_path) {
            const std::uint32_t *slots =
                &_stageSlot[platform_mask * _stageCount];
            for (std::size_t s = 0; s < _stageCount; ++s) {
                const std::size_t kind =
                    slots[s] == measuredSlot
                        ? 2
                        : (slots[s] < compute_ceilings ? 0 : 1);
                ++stage_counts[s * 3 + kind];
            }
        }
    }
}

namespace {

/** Per-slot scratch for the batched campaign run, reused across
 * blocks. Aligned like the Monte-Carlo arena so the v_safe
 * kernel's stride loads never split a cache line. */
struct alignas(64) CampaignArena
{
    static constexpr std::size_t cap =
        sim::MonteCarloAnalyzer::kernelBlock;
    std::uint32_t platformMask[cap];
    std::uint32_t pipelineMask[cap];
    double sensorFraction[cap];
    std::uint8_t abortFlag[cap];
    /** Dense (non-aborted) lanes for the kernel. */
    std::uint32_t denseIndex[cap]; ///< Global sample index.
    std::uint32_t densePair[cap];  ///< Pair-table index.
    std::uint32_t densePlatformMask[cap];
    double sensorRate[cap];
    double computeRate[cap];
    double vSafe[cap];
    /** Per-fault activation tallies, committed post-validation. */
    std::vector<std::uint64_t> activations;
    /** Platform-mask histogram for batched stage tallies. */
    std::vector<std::uint64_t> maskHist;
    /** Uniform draws for one sub-block, sample-major
     * [i * faultCount + j]; filled by Rng::uniformBlock so the
     * activation loop is free of the serial generator chain. */
    std::vector<double> draws;
};

/**
 * What run() and runReference() share: the per-fault activation
 * probabilities, one forked Rng per sample block, the layer shape,
 * and the per-sample outputs and per-block tallies each loop fills
 * for summarize() to merge.
 */
struct RunState
{
    std::vector<double> effectiveProb;
    std::vector<Rng> blockRngs;
    const platform::RooflinePlatform *machine = nullptr;
    std::size_t computeCeilings = 0;
    std::size_t totalCeilings = 0;
    bool stagePath = false;

    std::vector<double> vSafe;
    std::vector<unsigned char> aborted;
    std::vector<std::uint64_t> abortCounts;
    std::vector<std::vector<std::uint64_t>> activationCounts;
    /** Per block; empty without a platform. */
    std::vector<std::vector<std::uint64_t>> ceilingCounts;
    /** Per block, stage * 3 + kind; empty off the stage path. */
    std::vector<std::vector<std::uint64_t>> stageCounts;
};

RunState
prepareRun(const CampaignSpec &spec, std::size_t stage_count,
           std::size_t count, std::uint64_t seed)
{
    if (count < 10)
        throw ModelError("fault campaign needs >= 10 samples");

    RunState state;
    const std::size_t fault_count = spec.faults.size();
    state.effectiveProb.resize(fault_count);
    for (std::size_t j = 0; j < fault_count; ++j) {
        state.effectiveProb[j] = std::min(
            1.0, spec.faults[j].probability * spec.probabilityScale);
    }

    // Same deterministic decomposition as MonteCarloAnalyzer:
    // fixed-size blocks on forked substreams keyed by block index,
    // per-block tallies merged in block order.
    const std::size_t blocks =
        (count + FaultCampaign::sampleBlock - 1) /
        FaultCampaign::sampleBlock;
    state.blockRngs.reserve(blocks);
    Rng root(seed);
    for (std::size_t b = 0; b < blocks; ++b)
        state.blockRngs.push_back(root.fork());

    if (spec.platform) {
        state.machine = &*spec.platform;
        state.computeCeilings = state.machine->computeCeilings().size();
        state.totalCeilings = state.computeCeilings +
                              state.machine->memoryCeilings().size();
    }
    state.stagePath = state.machine && spec.pipeline.has_value();

    state.vSafe.resize(count);
    state.aborted.assign(count, 0);
    state.abortCounts.assign(blocks, 0);
    state.activationCounts.assign(
        blocks, std::vector<std::uint64_t>(fault_count, 0));
    state.ceilingCounts.assign(
        state.machine ? blocks : 0,
        std::vector<std::uint64_t>(state.totalCeilings, 0));
    state.stageCounts.assign(
        state.stagePath ? blocks : 0,
        std::vector<std::uint64_t>(stage_count * 3, 0));
    return state;
}

/**
 * The shared tail of run() and runReference(): merge the per-block
 * tallies in block order, compact the survivors' v_safe in sample
 * order and summarize it. Compaction runs on `parallel`, each block
 * writing at the offset its predecessors' survivor counts fix, so
 * the compacted order — and the result — is the serial one.
 */
CampaignResult
summarize(const RunState &state,
          const std::vector<std::string> &stage_names,
          const exec::ParallelOptions &parallel)
{
    const std::size_t count = state.vSafe.size();
    const std::size_t fault_count = state.effectiveProb.size();
    CampaignResult result;
    result.samples = count;

    std::uint64_t aborts = 0;
    for (const std::uint64_t block_aborts : state.abortCounts)
        aborts += block_aborts;
    result.abortProbability =
        static_cast<double>(aborts) / static_cast<double>(count);

    result.faultActivationRate.assign(fault_count, 0.0);
    for (const auto &block : state.activationCounts)
        for (std::size_t j = 0; j < fault_count; ++j)
            result.faultActivationRate[j] +=
                static_cast<double>(block[j]);
    for (std::size_t j = 0; j < fault_count; ++j)
        result.faultActivationRate[j] /=
            static_cast<double>(count);

    const std::size_t survivors = count - aborts;
    if (state.machine) {
        const std::size_t compute_ceilings = state.computeCeilings;
        const std::size_t total_ceilings = state.totalCeilings;
        std::vector<std::uint64_t> ceiling_totals(total_ceilings, 0);
        for (const auto &block : state.ceilingCounts)
            for (std::size_t k = 0; k < total_ceilings; ++k)
                ceiling_totals[k] += block[k];
        result.probComputeCeilingBinds.resize(compute_ceilings);
        result.probMemoryCeilingBinds.resize(total_ceilings -
                                             compute_ceilings);
        for (std::size_t k = 0; k < total_ceilings; ++k) {
            const double prob =
                survivors > 0
                    ? static_cast<double>(ceiling_totals[k]) /
                          static_cast<double>(survivors)
                    : 0.0;
            if (k < compute_ceilings)
                result.probComputeCeilingBinds[k] = prob;
            else
                result.probMemoryCeilingBinds[k - compute_ceilings] =
                    prob;
        }
    }
    if (state.stagePath) {
        const std::size_t stage_count = stage_names.size();
        std::vector<std::uint64_t> stage_totals(stage_count * 3, 0);
        for (const auto &block : state.stageCounts)
            for (std::size_t k = 0; k < stage_totals.size(); ++k)
                stage_totals[k] += block[k];
        result.stageBindings.resize(stage_count);
        for (std::size_t s = 0; s < stage_count; ++s) {
            StageBindingStats &stats = result.stageBindings[s];
            stats.stage = stage_names[s];
            const double denom =
                survivors > 0 ? static_cast<double>(survivors) : 1.0;
            stats.probComputeBound =
                static_cast<double>(stage_totals[s * 3 + 0]) / denom;
            stats.probMemoryBound =
                static_cast<double>(stage_totals[s * 3 + 1]) / denom;
            stats.probMeasured =
                static_cast<double>(stage_totals[s * 3 + 2]) / denom;
        }
    }

    if (survivors == count) {
        result.safeVelocity =
            sim::Distribution::fromSamples(state.vSafe, parallel);
    } else if (survivors > 0) {
        constexpr std::size_t block_size = FaultCampaign::sampleBlock;
        const std::size_t blocks = state.abortCounts.size();
        std::vector<std::size_t> offsets(blocks);
        std::size_t offset = 0;
        for (std::size_t b = 0; b < blocks; ++b) {
            offsets[b] = offset;
            offset += std::min(block_size, count - b * block_size) -
                      state.abortCounts[b];
        }
        std::vector<double> surviving(survivors);
        exec::ParallelOptions options = parallel;
        options.grain = 16; // ~32k samples per chunk.
        exec::parallelFor(
            blocks,
            [&](std::size_t block_begin, std::size_t block_end) {
                for (std::size_t b = block_begin; b < block_end; ++b) {
                    std::size_t out = offsets[b];
                    const std::size_t hi =
                        std::min(count, (b + 1) * block_size);
                    for (std::size_t i = b * block_size; i < hi; ++i) {
                        if (!state.aborted[i])
                            surviving[out++] = state.vSafe[i];
                    }
                }
            },
            options);
        result.safeVelocity =
            sim::Distribution::fromSamples(surviving, parallel);
    }
    return result;
}

} // namespace

CampaignResult
FaultCampaign::run(std::size_t count, std::uint64_t seed,
                   const exec::ParallelOptions &parallel) const
{
    RunState state = prepareRun(_spec, _stageCount, count, seed);
    const std::size_t fault_count = _spec.faults.size();
    const std::size_t blocks = state.blockRngs.size();
    const std::vector<double> &effective_prob = state.effectiveProb;
    const platform::RooflinePlatform *machine = state.machine;
    const std::size_t compute_ceilings = state.computeCeilings;
    const bool stage_path = state.stagePath;
    const pipeline::ModularRedundancy redundancy(_spec.redundancy);

    // Per-fault layer routing, precomputed out of the draw loop.
    // layer: 0 platform, 1 pipeline, 2 sensor; bit is the mask bit
    // within the fault's layer.
    std::vector<std::uint8_t> fault_layer(fault_count, 2);
    std::vector<std::uint32_t> fault_bit(fault_count, 0);
    std::vector<double> sensor_keep(fault_count, 1.0);
    {
        std::uint32_t platform_bit = 0;
        std::uint32_t pipeline_bit = 0;
        for (std::size_t j = 0; j < fault_count; ++j) {
            const FaultSpec &fault = _spec.faults[j];
            if (isPlatformFault(fault.kind)) {
                fault_layer[j] = 0;
                fault_bit[j] = platform_bit++;
            } else if (isPipelineFault(fault.kind)) {
                fault_layer[j] = 1;
                fault_bit[j] = pipeline_bit++;
            } else {
                sensor_keep[j] = 1.0 - fault.sensorDerate;
            }
        }
    }

    // Branch-light companions for the draw loop: the mask bit a
    // fault contributes when active (0 outside its layer) and the
    // sensor multiplier applied when active (1.0 for non-sensor
    // faults; x * 1.0 is exact, so the product sequence is
    // unchanged).
    std::vector<std::uint32_t> active_pbit(fault_count, 0);
    std::vector<std::uint32_t> active_qbit(fault_count, 0);
    std::vector<double> active_keep(fault_count, 1.0);
    for (std::size_t j = 0; j < fault_count; ++j) {
        if (fault_layer[j] == 0)
            active_pbit[j] = std::uint32_t{1} << fault_bit[j];
        else if (fault_layer[j] == 1)
            active_qbit[j] = std::uint32_t{1} << fault_bit[j];
        else
            active_keep[j] = sensor_keep[j];
    }

    // Pair tables over (platform mask, pipeline mask): every
    // mask-determined per-sample expression — the stage-path
    // latency sum, the redundancy voter arithmetic, the
    // pipeline-vs-platform winner select, the flat binding slot —
    // evaluated once per pair with the exact scalar operation
    // order. pair = platform_mask * qmasks + pipeline_mask.
    const std::size_t pmasks =
        machine ? _platformVariants.size() : 1;
    const std::size_t qmasks =
        _spec.pipeline ? _pipelineVariants.size() : 1;
    constexpr std::uint32_t no_slot = ~std::uint32_t{0};
    std::vector<std::uint8_t> pair_aborts(pmasks * qmasks, 0);
    std::vector<double> pair_rate(pmasks * qmasks, 0.0);
    std::vector<std::uint32_t> pair_slot(pmasks * qmasks, no_slot);
    const double nominal_compute = _spec.nominal.computeRate.value();
    for (std::size_t p = 0; p < pmasks; ++p) {
        for (std::size_t q = 0; q < qmasks; ++q) {
            const std::size_t pair = p * qmasks + q;
            bool abort = false;
            double rate = nominal_compute;
            std::uint32_t slot = no_slot;
            if (machine) {
                const PlatformVariant &variant = _platformVariants[p];
                abort = abort || variant.aborts;
                rate = variant.computeRate;
                if (variant.binding.attributed) {
                    slot = static_cast<std::uint32_t>(
                        variant.binding.kind ==
                                platform::CeilingKind::Compute
                            ? variant.binding.index
                            : compute_ceilings +
                                  variant.binding.index);
                }
            }
            if (_spec.pipeline) {
                const PipelineVariant &variant = _pipelineVariants[q];
                abort = abort || variant.aborts;
                double pipeline_rate = variant.throughputHz;
                if (!abort && stage_path) {
                    const double *base =
                        &_stageBase[p * _stageCount];
                    const double *inflation =
                        &_stageInflation[q * _stageCount];
                    double total = 0.0;
                    for (std::size_t s = 0; s < _stageCount; ++s)
                        total += base[s] * inflation[s];
                    pipeline_rate =
                        redundancy
                            .effectiveThroughput(
                                units::Hertz(1.0 / total))
                            .value();
                }
                if (!abort && (!machine || pipeline_rate < rate)) {
                    rate = pipeline_rate;
                    slot = no_slot;
                }
            }
            pair_aborts[pair] = abort ? 1 : 0;
            pair_rate[pair] = rate;
            pair_slot[pair] = slot;
        }
    }

    // Stage-kind table per platform mask (kind: 0 compute, 1 memory,
    // 2 measured), so per-sample stage tallies reduce to one
    // platform-mask histogram per block.
    std::vector<std::uint8_t> stage_kind;
    if (stage_path) {
        stage_kind.resize(pmasks * _stageCount, 2);
        for (std::size_t p = 0; p < pmasks; ++p) {
            for (std::size_t s = 0; s < _stageCount; ++s) {
                const std::uint32_t slot =
                    _stageSlot[p * _stageCount + s];
                stage_kind[p * _stageCount + s] =
                    slot == measuredSlot
                        ? 2
                        : (slot < compute_ceilings ? 0 : 1);
            }
        }
    }

    const double nominal_sensor = _spec.nominal.sensorRate.value();
    const double nominal_amax = _spec.nominal.aMax.value();
    const double nominal_range = _spec.nominal.sensingRange.value();
    const double control = _spec.nominal.controlRate.value();
    const double knee_fraction = _spec.nominal.kneeFraction;
    constexpr std::size_t kernel_block =
        sim::MonteCarloAnalyzer::kernelBlock;

    exec::ParallelOptions options = parallel;
    options.grain = 1; // One block per chunk.
    std::vector<CampaignArena> arenas(exec::maxSlots(options));
    for (auto &arena : arenas) {
        arena.activations.assign(fault_count, 0);
        arena.maskHist.assign(stage_path ? pmasks : 0, 0);
        arena.draws.assign(kernel_block * fault_count, 0.0);
    }

    exec::parallelForSlots(
        blocks,
        [&](std::size_t slot_index, std::size_t block_begin,
            std::size_t block_end) {
            CampaignArena &arena = arenas[slot_index];
            for (std::size_t b = block_begin; b < block_end; ++b) {
                Rng rng = state.blockRngs[b];
                const std::size_t lo = b * sampleBlock;
                const std::size_t hi =
                    std::min(count, lo + sampleBlock);
                if (stage_path)
                    std::fill(arena.maskHist.begin(),
                              arena.maskHist.end(), 0);
                for (std::size_t sub = lo; sub < hi;
                     sub += kernel_block) {
                    const std::size_t m =
                        std::min(hi - sub, kernel_block);
                    Rng rescan_rng = rng;

                    // Phase A: draws — one uniform per fault per
                    // sample, in fault order, exactly the scalar
                    // sequence (uniformBlock emits the same
                    // stream without the serial generator chain).
                    std::fill(arena.activations.begin(),
                              arena.activations.end(), 0);
                    rng.uniformBlock(arena.draws.data(),
                                     m * fault_count);
                    if (fault_count <= 64) {
                        // Activations are rare, so reduce each
                        // sample to one activation bitmask (a
                        // compare/or chain) and run the mask and
                        // derate bookkeeping over set bits only.
                        // Bits ascend in fault order, so the
                        // sensor-keep multiplies happen in exactly
                        // the scalar sequence.
                        for (std::size_t i = 0; i < m; ++i) {
                            const double *draw =
                                arena.draws.data() +
                                i * fault_count;
                            std::uint64_t amask = 0;
                            for (std::size_t j = 0;
                                 j < fault_count; ++j)
                                amask |= draw[j] <
                                                 effective_prob[j]
                                             ? std::uint64_t{1}
                                                   << j
                                             : 0u;
                            std::uint32_t pmask = 0;
                            std::uint32_t qmask = 0;
                            double sensor_fraction = 1.0;
                            for (std::uint64_t t = amask; t != 0;
                                 t &= t - 1) {
                                const std::size_t j =
                                    static_cast<std::size_t>(
                                        std::countr_zero(t));
                                pmask |= active_pbit[j];
                                qmask |= active_qbit[j];
                                sensor_fraction *= active_keep[j];
                                ++arena.activations[j];
                            }
                            arena.platformMask[i] = pmask;
                            arena.pipelineMask[i] = qmask;
                            arena.sensorFraction[i] =
                                sensor_fraction;
                        }
                    } else {
                        for (std::size_t i = 0; i < m; ++i) {
                            const double *draw =
                                arena.draws.data() +
                                i * fault_count;
                            std::uint32_t pmask = 0;
                            std::uint32_t qmask = 0;
                            double sensor_fraction = 1.0;
                            for (std::size_t j = 0;
                                 j < fault_count; ++j) {
                                const bool active =
                                    draw[j] < effective_prob[j];
                                pmask |=
                                    active ? active_pbit[j] : 0u;
                                qmask |=
                                    active ? active_qbit[j] : 0u;
                                sensor_fraction *=
                                    active ? active_keep[j] : 1.0;
                                arena.activations[j] +=
                                    active ? 1 : 0;
                            }
                            arena.platformMask[i] = pmask;
                            arena.pipelineMask[i] = qmask;
                            arena.sensorFraction[i] =
                                sensor_fraction;
                        }
                    }

                    // Phase B: pair-table lookups; compact the
                    // non-aborted samples into dense kernel lanes.
                    // requireInRange's exact acceptance (NaN
                    // passes both comparisons, as in the scalar).
                    std::size_t dense = 0;
                    bool ok = !(knee_fraction < 1e-6 ||
                                knee_fraction > 1.0 - 1e-9);
                    for (std::size_t i = 0; i < m; ++i) {
                        const std::size_t pair =
                            arena.platformMask[i] * qmasks +
                            arena.pipelineMask[i];
                        const bool abort =
                            arena.sensorFraction[i] <= 0.0 ||
                            pair_aborts[pair] != 0;
                        arena.abortFlag[i] = abort ? 1 : 0;
                        if (abort)
                            continue;
                        arena.denseIndex[dense] =
                            static_cast<std::uint32_t>(sub + i);
                        arena.densePair[dense] =
                            static_cast<std::uint32_t>(pair);
                        arena.densePlatformMask[dense] =
                            arena.platformMask[i];
                        arena.sensorRate[dense] =
                            nominal_sensor *
                            arena.sensorFraction[i];
                        arena.computeRate[dense] = pair_rate[pair];
                        ++dense;
                    }

                    // Phase C: the v_safe kernel over the dense
                    // lanes (physics is constant — the campaign
                    // never perturbs the airframe).
                    ok = core::analyzeVSafeBlock(
                             nominal_amax, nominal_range,
                             arena.sensorRate, arena.computeRate,
                             control, dense, arena.vSafe) &&
                         ok;

                    if (!ok) {
                        // Scalar fallback from the saved RNG state:
                        // the first failing sample throws the
                        // scalar path's own error, and nothing was
                        // committed for this sub-batch.
                        std::uint64_t abort_local = 0;
                        scalarSamples(
                            effective_prob, redundancy,
                            compute_ceilings, sub, sub + m,
                            rescan_rng, state.vSafe.data(),
                            state.aborted.data(), abort_local,
                            state.activationCounts[b].data(),
                            machine ? state.ceilingCounts[b].data()
                                    : nullptr,
                            stage_path ? state.stageCounts[b].data()
                                       : nullptr);
                        state.abortCounts[b] += abort_local;
                        continue;
                    }

                    // Commit: activations, aborts, outputs and
                    // tallies, only after every phase validated.
                    for (std::size_t j = 0; j < fault_count; ++j)
                        state.activationCounts[b][j] +=
                            arena.activations[j];
                    for (std::size_t i = 0; i < m; ++i) {
                        if (arena.abortFlag[i]) {
                            state.aborted[sub + i] = 1;
                            ++state.abortCounts[b];
                        }
                    }
                    for (std::size_t k = 0; k < dense; ++k) {
                        state.vSafe[arena.denseIndex[k]] = arena.vSafe[k];
                        const std::uint32_t ceiling =
                            pair_slot[arena.densePair[k]];
                        if (machine && ceiling != no_slot)
                            ++state.ceilingCounts[b][ceiling];
                        if (stage_path)
                            ++arena.maskHist
                                  [arena.densePlatformMask[k]];
                    }
                }
                if (stage_path) {
                    for (std::size_t p = 0; p < pmasks; ++p) {
                        const std::uint64_t hits = arena.maskHist[p];
                        if (hits == 0)
                            continue;
                        const std::uint8_t *kinds =
                            &stage_kind[p * _stageCount];
                        for (std::size_t s = 0; s < _stageCount;
                             ++s)
                            state.stageCounts[b][s * 3 + kinds[s]] +=
                                hits;
                    }
                }
            }
        },
        options);

    return summarize(state, _stageNames, parallel);
}

CampaignResult
FaultCampaign::runReference(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel) const
{
    RunState state = prepareRun(_spec, _stageCount, count, seed);
    const pipeline::ModularRedundancy redundancy(_spec.redundancy);

    exec::ParallelOptions options = parallel;
    options.grain = 1; // One block per chunk.
    exec::parallelFor(
        state.blockRngs.size(),
        [&](std::size_t block_begin, std::size_t block_end) {
            for (std::size_t b = block_begin; b < block_end; ++b) {
                Rng rng = state.blockRngs[b];
                const std::size_t lo = b * sampleBlock;
                const std::size_t hi =
                    std::min(count, lo + sampleBlock);
                scalarSamples(
                    state.effectiveProb, redundancy,
                    state.computeCeilings, lo, hi, rng,
                    state.vSafe.data(), state.aborted.data(),
                    state.abortCounts[b],
                    state.activationCounts[b].data(),
                    state.machine ? state.ceilingCounts[b].data()
                                  : nullptr,
                    state.stagePath ? state.stageCounts[b].data()
                                    : nullptr);
            }
        },
        options);
    return summarize(state, _stageNames, parallel);
}

std::vector<DegradationPoint>
FaultCampaign::degradationCurve(
    std::size_t levels, std::size_t samples_per_level,
    std::uint64_t seed, const exec::ParallelOptions &parallel) const
{
    if (levels < 2)
        throw ModelError("degradation curve needs >= 2 levels");

    std::vector<DegradationPoint> curve;
    curve.reserve(levels);
    for (std::size_t level = 0; level < levels; ++level) {
        const double scale =
            static_cast<double>(level) /
            static_cast<double>(levels - 1);
        CampaignSpec scaled = _spec;
        scaled.probabilityScale = _spec.probabilityScale * scale;
        const FaultCampaign campaign(std::move(scaled));
        // The same seed at every level, so the curve varies only
        // with severity, not with resampling noise.
        const CampaignResult result =
            campaign.run(samples_per_level, seed, parallel);
        DegradationPoint point;
        point.scale = scale;
        point.meanSafeVelocity = result.safeVelocity.mean;
        point.p5SafeVelocity = result.safeVelocity.p5;
        point.p95SafeVelocity = result.safeVelocity.p95;
        point.abortProbability = result.abortProbability;
        curve.push_back(point);
    }
    return curve;
}

} // namespace uavf1::fault
