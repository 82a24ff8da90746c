/**
 * @file
 * Monte-Carlo uncertainty quantification for the F-1 model.
 *
 * The F-1 model is deterministic, but at the early design phase it
 * targets, every input is uncertain: motor pull varies with battery
 * sag, payload mass with integration details, algorithm throughput
 * with scene content, sensor range with lighting. This analyzer
 * propagates input distributions through the model and reports
 * output distributions plus bound-classification probabilities —
 * error bars for the paper's single-line rooflines.
 *
 * Every summary (Distribution) is exact: the moments are exactly
 * rounded sums and the percentiles interpolate exact order
 * statistics, so neither depends on the order of the samples, and
 * every pass over the samples runs on the parallel sweep engine.
 */

#ifndef UAVF1_SIM_MONTE_CARLO_HH
#define UAVF1_SIM_MONTE_CARLO_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/f1_model.hh"
#include "exec/parallel.hh"
#include "platform/roofline_platform.hh"
#include "sim/lognormal.hh"
#include "workload/spa_pipeline.hh"

namespace uavf1::sim {

/** Relative (1-sigma) input uncertainties around a nominal. */
struct UncertaintySpec
{
    core::F1Inputs nominal;    ///< Nominal model inputs.
    double aMaxRelStd = 0.10;  ///< On a_max (thrust/mass spread).
    double rangeRelStd = 0.05; ///< On sensing range.
    double computeRelStd = 0.10; ///< On f_compute.
    double sensorRelStd = 0.0; ///< On f_sensor (usually exact).

    /**
     * Optional ceiling-family evaluation of f_compute: when set,
     * every sample derives its compute rate from the workload-aware
     * roofline bound of `profile` (at an arithmetic intensity
     * perturbed by aiRelStd) on this platform, multiplied by the
     * computeRelStd spread — so the *binding ceiling* varies across
     * samples and UncertaintyResult tallies the probability that
     * each ceiling binds. nominal.computeRate is ignored on this
     * path. When unset (default), the legacy scalar perturbation
     * of nominal.computeRate runs unchanged, bit-for-bit.
     */
    std::optional<platform::RooflinePlatform> platform;
    platform::WorkloadProfile profile{}; ///< Workload on `platform`.
    double workPerFrameGop = 0.0; ///< GOP per decision on `platform`.
    std::size_t opIndex = 0;      ///< DVFS operating point.
    double aiRelStd = 0.0;        ///< On arithmetic intensity.

    /**
     * Optional per-stage SPA pipeline evaluation of f_compute:
     * requires `platform`. When set, every sample evaluates the
     * pipeline's modeled per-stage bounds (measured-first disabled —
     * the uncertainty is *about* the model) with every annotated
     * stage's arithmetic intensity scaled by one shared aiRelStd
     * draw, and f_compute is the pipeline throughput times the
     * computeRelStd spread. `profile` and workPerFrameGop are unused
     * on this path; UncertaintyResult additionally tallies per-stage
     * binding probabilities. When unset, the flat platform (or
     * legacy) path runs unchanged, bit-for-bit.
     */
    std::optional<workload::SpaPipeline> pipeline;
};

/** Per-stage binding statistics of a sampled SPA pipeline. */
struct StageBindingStats
{
    std::string stage; ///< Stage name, e.g. "SLAM".
    /** Probability the stage's evaluated latency was a roofline
     * bound attributed to a compute ceiling. */
    double probComputeBound = 0.0;
    /** ... attributed to a memory ceiling. */
    double probMemoryBound = 0.0;
    /** ... measurement-sourced (no ceiling attribution). */
    double probMeasured = 0.0;
};

/** Summary statistics of one sampled output. */
struct Distribution
{
    double mean = 0.0;
    double stddev = 0.0;
    double p5 = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;

    /**
     * Compute the summary from raw samples. The mean and stddev are
     * exactly rounded sums (support/exact_sum.hh) of the samples and
     * of their squared deviations (x - mean) * (x - mean), so they do
     * not depend on the order of the samples; the percentiles
     * interpolate between exact order statistics. Both the sums and
     * the bucket selection that finds the order statistics run on
     * `parallel`'s pool (and honour its cancel token) with scratch
     * bounded independently of the sample count. The result is
     * bit-identical at any thread count.
     *
     * @throws ModelError when `samples` is empty or holds a NaN
     */
    static Distribution
    fromSamples(const std::vector<double> &samples,
                const exec::ParallelOptions &parallel = {});

    /**
     * The same summary for samples that take few distinct values:
     * `values[k]` occurs `counts[k]` times. The percentiles are read
     * off the histogram, and the moments sum each distinct term as
     * one exact (count x term) product, so the result is
     * bit-identical to fromSamples() on the expanded samples, in
     * O(values).
     *
     * @throws ModelError when every count is zero or a counted
     *         value is NaN
     */
    static Distribution
    fromHistogram(const std::vector<double> &values,
                  const std::vector<std::uint64_t> &counts);
};

/** Monte-Carlo outputs. */
struct UncertaintyResult
{
    Distribution safeVelocity;   ///< m/s.
    Distribution kneeThroughput; ///< Hz.
    Distribution roofVelocity;   ///< m/s.
    double probComputeBound = 0.0;
    double probSensorBound = 0.0;
    double probControlBound = 0.0;
    double probPhysicsBound = 0.0;
    /**
     * Probability that each machine ceiling binds the roofline
     * bound, indexed like the spec platform's computeCeilings() /
     * memoryCeilings(). Empty unless UncertaintySpec::platform is
     * set; the tallies are integer counts, so they merge exactly and
     * the probabilities are bit-identical at any thread count. The two
     * vectors sum to 1 (every sample has exactly one binding
     * ceiling).
     */
    std::vector<double> probComputeCeilingBinds;
    std::vector<double> probMemoryCeilingBinds;
    /**
     * Per-stage binding probabilities, in pipeline stage order.
     * Non-empty only when UncertaintySpec::pipeline is set. On that
     * path the two ceiling vectors above tally the *bottleneck*
     * stage's binding, so they sum to at most 1 (a measured-sourced
     * bottleneck has no binding ceiling).
     */
    std::vector<StageBindingStats> stageBindings;
    std::size_t samples = 0;
};

/**
 * The analyzer.
 */
class MonteCarloAnalyzer
{
  public:
    /**
     * Construct for a spec; validates the nominal inputs and every
     * spread the spec's path draws (requireSpread(), by name).
     */
    explicit MonteCarloAnalyzer(const UncertaintySpec &spec);

    /**
     * Draw `count` samples (lognormal multiplicative perturbations,
     * sim/lognormal.hh, deterministic for a seed) and summarize the
     * outputs.
     *
     * Runs on the parallel sweep engine. Samples are drawn in
     * fixed-size blocks, each from its own Rng::fork() substream
     * keyed by block index, so the result is bit-identical for a
     * given seed at any thread count.
     *
     * Honours `parallel.cancel`: the loop observes the token at
     * every block boundary, so a run under a ScenarioRunner
     * deadline stops with TimeoutError instead of completing late.
     *
     * @param count number of samples, in [10, 2^53]
     * @param seed RNG seed
     * @param parallel executor options (pool, thread cap, cancel)
     * @throws ModelError for a count outside [10, 2^53], before any
     *         allocation
     */
    UncertaintyResult
    run(std::size_t count, std::uint64_t seed = 1,
        const exec::ParallelOptions &parallel = {}) const;

    /**
     * Sample-at-a-time reference implementation. run() routes every
     * sample through the batched SoA kernels; this is the original
     * scalar loop, kept as the bit-identity oracle for the property
     * tests and as the baseline of perfbench's mc.reference_ratio.*.
     * For any (spec, count, seed) the two return bit-identical
     * results.
     */
    UncertaintyResult
    runReference(std::size_t count, std::uint64_t seed = 1,
                 const exec::ParallelOptions &parallel = {}) const;

    /** Samples per RNG substream block (the determinism grain). */
    static constexpr std::size_t sampleBlock = 2048;

    /** Samples per SoA kernel invocation inside a block. */
    static constexpr std::size_t kernelBlock = 64;

  private:
    UncertaintySpec _spec;
    /** The factors of aMax, range, AI, compute and sensor, in draw
     * order; AI is a constant 1 unless the spec has a platform. */
    LognormalDraw _draw;
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_MONTE_CARLO_HH
