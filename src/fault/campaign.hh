/**
 * @file
 * Deterministic fault-injection campaigns over the F-1 model.
 *
 * A FaultCampaign Monte-Carlo samples fault activations against one
 * UAV configuration and reports how the design *degrades*: the
 * distribution of safe velocity under faults, the probability the
 * mission aborts outright (no viable configuration left), how
 * binding shifts across the platform's ceiling family, and the
 * degradation curve as fault rates sweep from zero to their full
 * severity.
 *
 * Determinism follows the contract sim::MonteCarloAnalyzer keeps,
 * through the same skeleton (sim/block_sampling.hh): samples come in
 * fixed-size blocks, each drawing from its own Rng::fork() substream
 * keyed by block index, every sample draws exactly one uniform per
 * fault spec (whether or not the fault activates), and every tally
 * is an integer count (run() keeps per-slot mask histograms), so
 * tallies merge exactly in any order — a campaign is bit-identical
 * for a given seed at any thread count.
 *
 * All degraded platform variants (one per subset of platform-layer
 * faults) and pipeline variants (per subset of workload-layer
 * faults) are precomputed at construction, where configuration
 * errors surface with full messages. So is a mission's whole
 * outcome, which depends only on which faults are active: run()
 * codes each mission by its activation mask and summarizes from
 * the mask histogram.
 */

#ifndef UAVF1_FAULT_CAMPAIGN_HH
#define UAVF1_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/f1_model.hh"
#include "exec/parallel.hh"
#include "fault/fault_spec.hh"
#include "pipeline/redundancy.hh"
#include "platform/roofline_platform.hh"
#include "sim/monte_carlo.hh"
#include "support/rng.hh"
#include "workload/spa_pipeline.hh"

namespace uavf1::sim {
class BlockLayout;
class BindingTallies;
} // namespace uavf1::sim

namespace uavf1::fault {

/** One UAV configuration plus the fault modes to inject into it. */
struct CampaignSpec
{
    /** Fault-free model inputs (the baseline). */
    core::F1Inputs nominal;

    /**
     * Ceiling-family evaluation of f_compute under platform faults:
     * required whenever a platform-layer fault (CeilingDerate,
     * OperatingPointLoss, ThermalThrottle, StageCeilingDerate,
     * StageTrafficInflation) is present; the two stage-scoped kinds
     * also need `pipeline`. When set,
     * f_compute derives from the degraded platform's attainable
     * bound on `profile` divided by workPerFrameGop, and the
     * campaign tallies per-ceiling binding shifts.
     */
    std::optional<platform::RooflinePlatform> platform;
    platform::WorkloadProfile profile{}; ///< Workload on `platform`.
    double workPerFrameGop = 0.0; ///< GOP per decision on `platform`.
    std::size_t opIndex = 0;      ///< Selected DVFS operating point.

    /**
     * SPA pipeline evaluation of f_compute under workload faults:
     * required whenever a workload-layer fault (StageFailure,
     * StageLatencyInflation) is present. Stage failures survive
     * only while active failures stay within `redundancy`'s replica
     * budget (replicas - 1); redundant schemes pay the voter latency
     * on every sample, faulted or not.
     *
     * When `platform` is also set, stage latencies route through the
     * per-stage workload-aware evaluator: with no platform fault
     * active the measured latencies win (bit-identical to the
     * pipeline-only path on the pipeline's measured platform), and
     * under platform faults each stage's degraded modeled bound acts
     * as a latency floor — so a StageLatencyInflation multiplies the
     * *evaluated* bound, not just the raw measurement, and the
     * campaign reports per-stage binding shifts.
     */
    std::optional<workload::SpaPipeline> pipeline;
    pipeline::RedundancyScheme redundancy =
        pipeline::RedundancyScheme::None;

    /**
     * Fault modes to sample: at most 8 per layer (platform,
     * pipeline, sensor) and 16 in all.
     */
    std::vector<FaultSpec> faults;

    /**
     * Severity knob: every fault's activation probability is
     * multiplied by this (capped at 1), so sweeping it in [0, 1]
     * traces the degradation curve. Must be non-negative.
     */
    double probabilityScale = 1.0;
};

/** One point of the degradation curve. */
struct DegradationPoint
{
    double scale = 0.0;        ///< probabilityScale at this level.
    double meanSafeVelocity = 0.0; ///< Over surviving samples, m/s.
    double p5SafeVelocity = 0.0;   ///< 5th percentile, m/s.
    double p95SafeVelocity = 0.0;  ///< 95th percentile, m/s.
    double abortProbability = 0.0; ///< Fraction of aborted missions.
};

/** Per-stage binding statistics over surviving samples (the same
 * shape the Monte-Carlo analyzer reports). */
using StageBindingStats = sim::StageBindingStats;

/** Campaign outputs. */
struct CampaignResult
{
    /** Safe velocity over *surviving* samples; default-initialized
     * (all zeros) when every sample aborted. */
    sim::Distribution safeVelocity;
    /** Fraction of samples with no viable configuration left. */
    double abortProbability = 0.0;
    /** Observed activation rate of each fault, indexed like
     * CampaignSpec::faults. */
    std::vector<double> faultActivationRate;
    /**
     * Probability that each machine ceiling binds the degraded
     * roofline bound over surviving samples, indexed like the
     * platform's computeCeilings() / memoryCeilings(). Empty unless
     * CampaignSpec::platform is set. Compare against the no-fault
     * baseline to see binding *shift* under faults.
     */
    std::vector<double> probComputeCeilingBinds;
    std::vector<double> probMemoryCeilingBinds;
    /**
     * Per-stage binding shifts of the SPA pipeline, in stage order.
     * Non-empty only when both CampaignSpec::platform and
     * CampaignSpec::pipeline are set — then every stage's latency is
     * evaluated through the workload-aware per-stage roofline spine
     * (measured-first on the un-faulted platform, the degraded
     * modeled bound under platform faults), and this reports how
     * often each stage was compute-bound / memory-bound / measured.
     */
    std::vector<StageBindingStats> stageBindings;
    std::size_t samples = 0;
};

/**
 * The campaign engine.
 */
class FaultCampaign
{
  public:
    /**
     * Construct for a spec; validates every fault against the
     * configuration and precomputes all degraded variants so run()
     * never throws.
     *
     * @throws ModelError on an invalid fault spec, a platform/
     *         pipeline fault without its layer configured, an
     *         unknown stage name, an out-of-range ceiling index, or
     *         more than 8 faults in one layer or 16 in all
     */
    explicit FaultCampaign(CampaignSpec spec);

    /** The validated spec. */
    const CampaignSpec &spec() const { return _spec; }

    /**
     * The deterministic no-fault analysis this campaign degrades
     * from: nominal inputs with f_compute routed through the same
     * platform/pipeline path as an un-faulted sample (so a campaign
     * whose faults never activate reproduces it exactly).
     */
    core::F1Analysis baseline() const;

    /**
     * Sample `count` missions (deterministic for a seed; see file
     * comment) and summarize the degraded outcomes.
     *
     * @param count number of missions, in [10, 2^53]
     * @param seed RNG seed
     * @param parallel executor options (pool, thread cap, cancel)
     * @throws ModelError for a count outside [10, 2^53], before any
     *         allocation
     */
    CampaignResult
    run(std::size_t count, std::uint64_t seed = 1,
        const exec::ParallelOptions &parallel = {}) const;

    /**
     * Mission-at-a-time reference implementation. run() looks each
     * mission's outcome up in a table indexed by its activation
     * mask and summarizes from the mask histogram; this is the
     * original scalar loop, summarized through
     * sim::Distribution::fromSamples, kept as the bit-identity
     * oracle for the property tests and as the baseline of
     * perfbench's fault.reference_ratio. For any (spec, count, seed)
     * the two return bit-identical results, and throw the same error
     * when a mission's inputs are rejected.
     */
    CampaignResult
    runReference(std::size_t count, std::uint64_t seed = 1,
                 const exec::ParallelOptions &parallel = {}) const;

    /**
     * The graceful-degradation curve: run() at `levels` linearly
     * spaced severity scales in [0, 1] (each scaling the spec's own
     * probabilityScale), the same seed at every level so the curve
     * varies only with severity. It is sweepSeverity()'s curve, so
     * the levels share their draws the same way.
     *
     * @param levels number of curve points, in [2, maxLevels]
     * @param samples_per_level missions per point, in [10, 2^53]
     * @throws ModelError naming `levels` when it is out of range,
     *         before any allocation
     */
    std::vector<DegradationPoint>
    degradationCurve(std::size_t levels,
                     std::size_t samples_per_level,
                     std::uint64_t seed = 1,
                     const exec::ParallelOptions &parallel = {}) const;

    /** run() and degradationCurve() of one (samples, seed). */
    struct SeveritySweep
    {
        CampaignResult fullSeverity; ///< run(samples, seed).
        std::vector<DegradationPoint> curve;
    };

    /**
     * run() and degradationCurve() together. Every level draws the
     * same uniforms, so one draw bins a group of levels: each
     * mission's uniforms are compared with every level's activation
     * probabilities, and each level's mask counts go to that level's
     * histogram. A group holds 2^(16 - faults) levels, so its
     * histograms never outgrow one level of a 16-fault campaign; a
     * suite of up to 6 faults draws once for all maxLevels levels,
     * and a 16-fault one once per level. Levels are then summarized
     * in level order, so a rejected mission or a NaN survivor throws
     * the error of the first level whose run() throws. The curve's
     * top level (scale 1) is exactly the spec run() samples, so
     * `fullSeverity` is that level's result, bit-identical to
     * run(samples_per_level, seed).
     */
    SeveritySweep
    sweepSeverity(std::size_t levels, std::size_t samples_per_level,
                  std::uint64_t seed = 1,
                  const exec::ParallelOptions &parallel = {}) const;

    /** Samples per RNG substream block (the determinism grain). */
    static constexpr std::size_t sampleBlock = 2048;

    /** Most curve points degradationCurve()/sweepSeverity() take. */
    static constexpr std::size_t maxLevels = 1000;

  private:
    /** Outcome of one subset of platform-layer faults. */
    struct PlatformVariant
    {
        bool aborts = false;   ///< No viable operating point left.
        double computeRate = 0.0; ///< Hz, when not aborting.
        platform::CeilingRef binding{}; ///< Degraded binding ceiling.
    };

    /** Outcome of one subset of workload-layer faults. */
    struct PipelineVariant
    {
        bool aborts = false;    ///< Failures exceed replica budget.
        double throughputHz = 0.0; ///< Hz, when not aborting.
    };

    /** Ceiling-slot sentinel: no ceiling attributed (a mission whose
     * pipeline rate won). */
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    /**
     * What one activation mask (bit j set: fault j active) does to
     * a mission, as the scalar path evaluates it.
     */
    struct Outcome
    {
        double vSafe = 0.0; ///< When neither aborting nor throwing.
        /** Flat slot of the binding ceiling (compute ceilings
         * first), or noSlot when unattributed. */
        std::uint32_t ceilingSlot = noSlot;
        /** Row of the per-stage tables (_stageKind). */
        std::uint32_t platformMask = 0;
        bool aborts = false;
        /** F1Model::analyzeInto rejects the mission's inputs. */
        bool throws = false;
    };

    void precomputePlatformVariants();
    void precomputePipelineVariants();
    void compileOutcomes();

    /**
     * Draw every mission of `layout` once and bin its activation
     * mask at each level of `probabilities` (one activation
     * probability per fault in each row). Returns the merged mask
     * counts, level-major: [level * masks + mask]. run() is the
     * one-level case.
     */
    std::vector<std::uint64_t>
    drawLevels(const sim::BlockLayout &layout,
               std::span<const std::vector<double>> probabilities,
               const exec::ParallelOptions &parallel) const;

    /**
     * One level's result from its mask `counts` (drawLevels() at
     * `probability`): the tallies, the v_safe distribution, and the
     * replays that throw a rejected mission's or a NaN survivor's
     * error as runReference() does.
     */
    CampaignResult summarize(const sim::BlockLayout &layout,
                             const std::vector<double> &probability,
                             const std::uint64_t *counts,
                             const exec::ParallelOptions &parallel) const;

    /**
     * The scalar per-sample loop over samples [lo, hi) of one RNG
     * block — everything runReference() executes, and what run()
     * replays a block through when it draws a mask whose outcome
     * throws. Outputs are indexed from `lo`; the per-fault
     * `activations` and the `bindings` are added to.
     */
    void scalarSamples(const std::vector<double> &effective_prob,
                       std::size_t lo, std::size_t hi, Rng &rng,
                       double *v_safe, unsigned char *aborted,
                       std::uint64_t *activations,
                       sim::BindingTallies &bindings) const;

    /** Everything but the v_safe distribution, from the tallies of
     * `count` missions. */
    CampaignResult
    tallyResult(std::size_t count, std::uint64_t aborts,
                const std::vector<std::uint64_t> &activations,
                const sim::BindingTallies &bindings) const;

    CampaignSpec _spec;
    /** Fault indices by layer (order preserved within each). */
    std::vector<std::size_t> _platformFaults;
    std::vector<std::size_t> _pipelineFaults;
    std::vector<std::size_t> _sensorFaults;
    /** Variant tables indexed by the layer's activation mask. */
    std::vector<PlatformVariant> _platformVariants;
    std::vector<PipelineVariant> _pipelineVariants;
    /** Mission outcomes indexed by the activation mask over all
     * faults; independent of the probabilities. */
    std::vector<Outcome> _outcomes;
    /**
     * Per-stage tables of the workload-aware path, used only when
     * both platform and pipeline are configured. _stageBase holds
     * each platform variant's evaluated per-stage latency (seconds)
     * and _stageKind how it is bound (a sim::BindingTallies::
     * StageKind), both indexed
     * [platform_mask * _stageCount + stage]. _stageInflation holds
     * each pipeline variant's per-stage latency-inflation product,
     * indexed [pipeline_mask * _stageCount + stage]. A sample's
     * pipeline latency is then sum_s base[s] * inflation[s].
     */
    std::size_t _stageCount = 0;
    std::vector<std::string> _stageNames;
    std::vector<double> _stageBase;
    std::vector<std::uint8_t> _stageKind;
    std::vector<double> _stageInflation;
};

} // namespace uavf1::fault

#endif // UAVF1_FAULT_CAMPAIGN_HH
