/**
 * @file
 * MonteCarloAnalyzer implementation.
 *
 * run() is the batched hot path: per RNG block, samples are
 * processed in kernelBlock-sized sub-batches — a vectorized draw
 * phase (LognormalDraw::drawBlock: uniforms, Box-Muller and exp over
 * simd::Pack, no libm), a batched bound-evaluation phase over
 * compiled plans, and the core::analyzeBlock kernel. Every
 * per-sample expression matches the scalar loop operand for operand,
 * and the scalar loop draws through the same kernels at W = 1, so
 * the result is bit-identical to runReference() — the original
 * sample-at-a-time loop, kept as the oracle. When any sample in a
 * sub-batch fails a kernel's validation flag, the sub-batch is
 * re-run through the scalar path from a saved RNG state, so the
 * thrown error (and every committed value before it) matches the
 * scalar loop exactly.
 */

#include "sim/monte_carlo.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <span>
#include <string>

#include "core/f1_batch.hh"
#include "platform/evaluation_plan.hh"
#include "simd/pack.hh"
#include "support/errors.hh"
#include "support/exact_sum.hh"
#include "support/rng.hh"
#include "support/validate.hh"
#include "workload/batch_eval.hh"
#include "workload/stage_eval.hh"

namespace uavf1::sim {

namespace {

/**
 * Map a non-NaN double to an unsigned key with the same order: flip
 * the sign bit of a non-negative value and every bit of a negative
 * one. Integer order on keys is then the IEEE total order, which is
 * `<` on doubles except that -0 sorts just below +0.
 */
std::uint64_t
orderKey(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto flip =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >>
                                   63) |
        (std::uint64_t{1} << 63);
    return bits ^ flip;
}

/** Inverse of orderKey(). */
double
keyValue(std::uint64_t key)
{
    constexpr std::uint64_t sign = std::uint64_t{1} << 63;
    return std::bit_cast<double>((key & sign) != 0 ? key ^ sign : ~key);
}

// Selection geometry. All three are constants, so chunk boundaries
// never depend on the thread count and scratch never grows with n.
constexpr std::size_t kSelectChunk = std::size_t{1} << 16;
constexpr int kBucketBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
/** Ranges holding at most this many samples are gathered and
 * selected directly instead of refined by another histogram. */
constexpr std::size_t kGatherMax = std::size_t{1} << 14;

/**
 * One key range [lo, lo + span] and what one pass over the samples
 * learns about it: the extreme keys it actually holds and either its
 * histogram (kBuckets buckets of width 2^shift) or, when it holds at
 * most kGatherMax samples, its keys.
 */
struct KeyRange
{
    std::uint64_t lo = 0;
    std::uint64_t span = 0;
    int shift = 0;
    bool gather = false;
    std::uint64_t minKey = ~std::uint64_t{0};
    std::uint64_t maxKey = 0;
    std::vector<std::uint64_t> hist;
    std::vector<std::uint64_t> keys;
};

/** Order statistics fromSamples() wants — the (lo, lo + 1) pairs
 * bracketing p5/p50/p95 — and so the most ranges one pass scans. */
constexpr std::size_t kMaxRanges = 6;

/**
 * One parallel pass over `samples` for up to kMaxRanges disjoint
 * ranges. Histogram counts and extreme keys are accumulated per slot
 * and merged after the loop; gathered keys land in claim order. None
 * of this depends on which thread saw which chunk — counts and
 * extremes merge exactly, and gathered keys are only ever selected
 * from — so a pass learns the same at any thread count.
 */
void
scanRanges(const std::vector<double> &samples,
           std::vector<KeyRange> &ranges,
           const exec::ParallelOptions &parallel)
{
    constexpr std::size_t kStage = 256;
    const std::size_t nr = ranges.size();
    std::array<std::uint64_t, kMaxRanges> lo{};
    std::array<std::uint64_t, kMaxRanges> span{};
    std::array<int, kMaxRanges> shift{};
    std::array<bool, kMaxRanges> gather{};
    // Histogram ranges get consecutive per-slot tables; gathered
    // ranges need none.
    std::array<std::size_t, kMaxRanges> table{};
    std::size_t tables = 0;
    for (std::size_t r = 0; r < nr; ++r) {
        lo[r] = ranges[r].lo;
        span[r] = ranges[r].span;
        shift[r] = ranges[r].shift;
        gather[r] = ranges[r].gather;
        table[r] = gather[r] ? 0 : tables++;
    }
    std::array<std::atomic<std::size_t>, kMaxRanges> filled{};

    exec::ParallelOptions options = parallel;
    options.grain = kSelectChunk;
    const std::size_t slots = exec::maxSlots(options);
    std::vector<std::uint64_t> hist(slots * tables * kBuckets, 0);
    std::vector<std::uint64_t> extremes(slots * nr * 2);
    for (std::size_t i = 0; i < extremes.size(); i += 2) {
        extremes[i] = ~std::uint64_t{0};
        extremes[i + 1] = 0;
    }

    exec::parallelForSlots(
        samples.size(),
        [&](std::size_t slot, std::size_t begin, std::size_t end) {
            std::uint64_t *slot_hist =
                hist.data() + slot * tables * kBuckets;
            std::array<std::uint64_t, kMaxRanges> min_key;
            std::array<std::uint64_t, kMaxRanges> max_key;
            min_key.fill(~std::uint64_t{0});
            max_key.fill(0);
            std::array<std::array<std::uint64_t, kStage>, kMaxRanges>
                stage{};
            std::array<std::size_t, kMaxRanges> staged{};
            const auto flush = [&](std::size_t r) {
                const std::size_t at = filled[r].fetch_add(
                    staged[r], std::memory_order_relaxed);
                std::copy_n(stage[r].begin(), staged[r],
                            ranges[r].keys.begin() +
                                static_cast<std::ptrdiff_t>(at));
                staged[r] = 0;
            };
            for (std::size_t i = begin; i < end; ++i) {
                const std::uint64_t key = orderKey(samples[i]);
                for (std::size_t r = 0; r < nr; ++r) {
                    const std::uint64_t offset = key - lo[r];
                    if (offset > span[r])
                        continue;
                    min_key[r] = key < min_key[r] ? key : min_key[r];
                    max_key[r] = key > max_key[r] ? key : max_key[r];
                    if (gather[r]) {
                        stage[r][staged[r]++] = key;
                        if (staged[r] == kStage)
                            flush(r);
                    } else {
                        ++slot_hist[table[r] * kBuckets +
                                    (offset >> shift[r])];
                    }
                    break;
                }
            }
            std::uint64_t *slot_ext = &extremes[slot * nr * 2];
            for (std::size_t r = 0; r < nr; ++r) {
                if (staged[r] != 0)
                    flush(r);
                slot_ext[2 * r] = std::min(slot_ext[2 * r], min_key[r]);
                slot_ext[2 * r + 1] =
                    std::max(slot_ext[2 * r + 1], max_key[r]);
            }
        },
        options);

    for (std::size_t r = 0; r < nr; ++r) {
        KeyRange &range = ranges[r];
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const std::uint64_t *ext = &extremes[(slot * nr + r) * 2];
            range.minKey = std::min(range.minKey, ext[0]);
            range.maxKey = std::max(range.maxKey, ext[1]);
            if (range.gather)
                continue;
            const std::uint64_t *counts =
                &hist[(slot * tables + table[r]) * kBuckets];
            for (std::size_t b = 0; b < kBuckets; ++b)
                range.hist[b] += counts[b];
        }
    }
}

/**
 * The exact order statistics of `samples` at the given ranks, as
 * keys. Every wanted rank starts in the range of all keys; each pass
 * narrows it to the histogram bucket holding it (2^kBucketBits
 * times narrower), until its range holds one key, holds only equal
 * values (the short cut for heavily tied data), or is small enough
 * to gather and select from directly. A 64-bit key space bounds the
 * passes at ceil(64 / kBucketBits).
 */
std::array<std::uint64_t, kMaxRanges>
selectKeys(const std::vector<double> &samples,
           const std::array<std::size_t, kMaxRanges> &ranks,
           std::uint64_t lo, std::uint64_t hi,
           const exec::ParallelOptions &parallel)
{
    struct Want
    {
        std::uint64_t lo, span;
        std::size_t count, rank;
        bool done;
    };
    std::array<Want, kMaxRanges> wants{};
    std::array<std::uint64_t, kMaxRanges> keys{};
    for (std::size_t w = 0; w < kMaxRanges; ++w)
        wants[w] = {lo, hi - lo, samples.size(), ranks[w], false};

    for (;;) {
        std::vector<KeyRange> ranges;
        ranges.reserve(kMaxRanges);
        std::array<std::size_t, kMaxRanges> range_of{};
        for (std::size_t w = 0; w < kMaxRanges; ++w) {
            Want &want = wants[w];
            if (!want.done && want.span == 0) {
                keys[w] = want.lo;
                want.done = true;
            }
            if (want.done)
                continue;
            std::size_t r = 0;
            while (r < ranges.size() && ranges[r].lo != want.lo)
                ++r;
            range_of[w] = r;
            if (r < ranges.size())
                continue;
            KeyRange &range = ranges.emplace_back();
            range.lo = want.lo;
            range.span = want.span;
            range.gather = want.count <= kGatherMax;
            if (range.gather) {
                range.keys.resize(want.count);
            } else {
                range.shift = std::max(
                    0, static_cast<int>(std::bit_width(want.span)) -
                           kBucketBits);
                range.hist.assign(kBuckets, 0);
            }
        }
        if (ranges.empty())
            return keys;

        scanRanges(samples, ranges, parallel);

        for (std::size_t w = 0; w < kMaxRanges; ++w) {
            Want &want = wants[w];
            if (want.done)
                continue;
            KeyRange &range = ranges[range_of[w]];
            if (range.minKey == range.maxKey) {
                keys[w] = range.minKey;
                want.done = true;
            } else if (range.gather) {
                const auto nth = range.keys.begin() +
                                 static_cast<std::ptrdiff_t>(want.rank);
                std::nth_element(range.keys.begin(), nth,
                                 range.keys.end());
                keys[w] = *nth;
                want.done = true;
            } else {
                std::size_t b = 0;
                while (want.rank >= range.hist[b]) {
                    want.rank -= range.hist[b];
                    ++b;
                }
                // The bucket, clipped to the keys the range holds.
                // maxKey >= bucket_lo (the bucket is not empty), so
                // the clip never computes past the top key.
                const std::uint64_t bucket_lo =
                    range.lo + (std::uint64_t{b} << range.shift);
                const std::uint64_t width_less_one =
                    (std::uint64_t{1} << range.shift) - 1;
                const std::uint64_t top =
                    range.maxKey - bucket_lo < width_less_one
                        ? range.maxKey
                        : bucket_lo + width_less_one;
                want.lo = std::max(bucket_lo, range.minKey);
                want.span = top - want.lo;
                want.count = range.hist[b];
            }
        }
    }
}

/**
 * Where p5/p50/p95 of n samples sit: the ranks of the (lo, lo + 1)
 * order-statistic pairs bracketing each, and how far between the
 * pair each lies. fromSamples() and fromHistogram() differ only in
 * how they find those order statistics.
 */
struct PercentileRanks
{
    std::array<std::size_t, kMaxRanges> ranks{};
    std::array<double, 3> fracs{};

    explicit PercentileRanks(std::size_t n)
    {
        for (std::size_t i = 0; i < 3; ++i) {
            constexpr double kPercentiles[3] = {5.0, 50.0, 95.0};
            const double rank = kPercentiles[i] / 100.0 *
                                static_cast<double>(n - 1);
            const std::size_t lo_rank = static_cast<std::size_t>(rank);
            ranks[2 * i] = lo_rank;
            ranks[2 * i + 1] = std::min(lo_rank + 1, n - 1);
            fracs[i] = rank - static_cast<double>(lo_rank);
        }
    }

    /** Set out's percentiles from the order statistics at `ranks`,
     * given as orderKey()s. */
    void interpolate(const std::array<std::uint64_t, kMaxRanges> &keys,
                     Distribution &out) const
    {
        const auto at = [&](std::size_t i) {
            const double lo_value = keyValue(keys[2 * i]);
            const double hi_value = keyValue(keys[2 * i + 1]);
            return lo_value + fracs[i] * (hi_value - lo_value);
        };
        out.p5 = at(0);
        out.p50 = at(1);
        out.p95 = at(2);
    }
};

/** The sample stddev from the sum of squared deviations. */
double
sampleStddev(double squared_deviations, std::size_t n)
{
    return n > 1 ? std::sqrt(squared_deviations /
                             static_cast<double>(n - 1))
                 : 0.0;
}

/** Samples per ExactSum span in the variance pass: the squared
 * deviations stay in L1 between being formed and being summed. */
constexpr std::size_t kSumRun = 1024;

/**
 * Per-slot state of the first fromSamples() pass. Sums are exact and
 * extremes are min/max, so slots merge to the same result whichever
 * thread saw which chunk.
 */
struct alignas(64) FirstPass
{
    ExactSum sum;
    ExactSum::Range range;
};

} // namespace

Distribution
Distribution::fromSamples(const std::vector<double> &samples,
                          const exec::ParallelOptions &parallel)
{
    if (samples.empty())
        throw ModelError("distribution requires samples");

    // First pass: the exact sum and the extremes, per fixed chunk on
    // the pool.
    Distribution out;
    const std::size_t n = samples.size();
    exec::ParallelOptions options = parallel;
    options.grain = kSelectChunk;
    const std::size_t slots = exec::maxSlots(options);
    std::vector<FirstPass> first(slots);
    exec::parallelForSlots(
        n,
        [&](std::size_t slot, std::size_t begin, std::size_t end) {
            FirstPass &pass = first[slot];
            pass.range.merge(pass.sum.add(
                std::span<const double>(samples).subspan(begin,
                                                         end - begin)));
        },
        options);
    FirstPass &all = first[0];
    for (std::size_t slot = 1; slot < slots; ++slot) {
        all.sum.add(first[slot].sum);
        all.range.merge(first[slot].range);
    }
    const double sum = all.sum.round();
    // A NaN sample makes the sum NaN (so does +inf beside -inf, which
    // is no error).
    if (sum != sum) {
        const auto at = std::find_if(samples.begin(), samples.end(),
                                     [](double s) { return s != s; });
        if (at != samples.end()) {
            throw ModelError(
                "distribution sample " +
                std::to_string(at - samples.begin()) +
                " is NaN; percentiles need ordered values");
        }
    }
    out.mean = sum / static_cast<double>(n);

    // Second pass: the exact sum of the squared deviations.
    std::vector<ExactSum> squares(slots);
    exec::parallelForSlots(
        n,
        [&](std::size_t slot, std::size_t begin, std::size_t end) {
            double terms[kSumRun];
            for (std::size_t i = begin; i < end; i += kSumRun) {
                const std::size_t run = std::min(end - i, kSumRun);
                for (std::size_t k = 0; k < run; ++k) {
                    const double d = samples[i + k] - out.mean;
                    terms[k] = d * d;
                }
                squares[slot].add(std::span<const double>(terms, run));
            }
        },
        options);
    for (std::size_t slot = 1; slot < slots; ++slot)
        squares[0].add(squares[slot]);
    out.stddev = sampleStddev(squares[0].round(), n);

    // A zero extreme widens to both signed zeros: `<` cannot tell
    // them apart, but their keys differ.
    const PercentileRanks ranks(n);
    ranks.interpolate(
        selectKeys(samples, ranks.ranks,
                   orderKey(all.range.lo == 0.0 ? -0.0 : all.range.lo),
                   orderKey(all.range.hi == 0.0 ? 0.0 : all.range.hi),
                   parallel),
        out);
    return out;
}

Distribution
Distribution::fromHistogram(const std::vector<double> &values,
                            const std::vector<std::uint64_t> &counts)
{
    // The counted values in key order: selection by a cumulative
    // walk, in the same IEEE total order fromSamples() selects in.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted;
    std::size_t n = 0;
    ExactSum sum;
    for (std::size_t k = 0; k < values.size(); ++k) {
        if (counts[k] == 0)
            continue;
        if (values[k] != values[k]) {
            throw ModelError("distribution value " + std::to_string(k) +
                             " is NaN; percentiles need ordered "
                             "values");
        }
        sorted.emplace_back(orderKey(values[k]), counts[k]);
        n += counts[k];
        sum.add(counts[k], values[k]);
    }
    if (n == 0)
        throw ModelError("distribution requires samples");
    std::sort(sorted.begin(), sorted.end());

    // The moments sum the same terms fromSamples() sums, one exact
    // product per distinct value.
    Distribution out;
    out.mean = sum.round() / static_cast<double>(n);
    ExactSum squares;
    for (std::size_t k = 0; k < values.size(); ++k) {
        const double d = values[k] - out.mean;
        squares.add(counts[k], d * d);
    }
    out.stddev = sampleStddev(squares.round(), n);

    const PercentileRanks ranks(n);
    std::array<std::uint64_t, kMaxRanges> keys{};
    for (std::size_t w = 0; w < kMaxRanges; ++w) {
        std::size_t below = 0;
        std::size_t e = 0;
        while (below + sorted[e].second <= ranks.ranks[w])
            below += sorted[e++].second;
        keys[w] = sorted[e].first;
    }
    ranks.interpolate(keys, out);
    return out;
}

namespace {

/** The LognormalDraw factor slots, in draw order. */
enum FactorSlot : std::size_t
{
    kAMax,
    kRange,
    kAi,
    kCompute,
    kSensor,
};

/** The spec's factor draw, each spread checked by name. Only the
 * platform paths draw the AI factor. */
LognormalDraw
factorDraw(const UncertaintySpec &spec)
{
    requireSpread(spec.aMaxRelStd, "aMaxRelStd");
    requireSpread(spec.rangeRelStd, "rangeRelStd");
    requireSpread(spec.computeRelStd, "computeRelStd");
    requireSpread(spec.sensorRelStd, "sensorRelStd");
    double ai = 0.0;
    if (spec.platform) {
        requireSpread(spec.aiRelStd, "aiRelStd");
        ai = spec.aiRelStd;
    }
    const double spreads[] = {spec.aMaxRelStd, spec.rangeRelStd, ai,
                              spec.computeRelStd, spec.sensorRelStd};
    return LognormalDraw(spreads);
}

/** Samples per run: at least 10, and at most 2^53 (the StudyParams
 * bound), checked before any block arithmetic or allocation. */
void
requireSampleCount(std::size_t count)
{
    if (count < 10)
        throw ModelError("Monte-Carlo run needs >= 10 samples");
    constexpr std::size_t kMaxCount = std::size_t{1} << 53;
    if (count > kMaxCount) {
        throw ModelError("Monte-Carlo count must be at most 2^53, got " +
                         std::to_string(count));
    }
}

} // namespace

MonteCarloAnalyzer::MonteCarloAnalyzer(const UncertaintySpec &spec)
    : _spec(spec), _draw(factorDraw(spec))
{
    // Validate the nominal by constructing the model once.
    (void)core::F1Model(spec.nominal);
    if (spec.pipeline && !spec.platform) {
        throw ModelError(
            "UncertaintySpec::pipeline requires a platform — the "
            "per-stage path evaluates modeled roofline bounds");
    }
    if (spec.platform) {
        if (spec.pipeline) {
            // Validate stage profiles and the operating point once
            // up front so per-sample evaluations cannot throw.
            const workload::StagePipelineEvaluator evaluator(
                *spec.pipeline, *spec.platform);
            workload::StageEvalOptions eval_options;
            eval_options.opIndex = spec.opIndex;
            eval_options.measuredFirst = false;
            (void)evaluator.evaluate(eval_options);
        } else {
            requirePositive(spec.workPerFrameGop, "workPerFrameGop");
            // Validate profile, operating point and applicability
            // once up front so per-sample evaluations cannot throw.
            (void)spec.platform->attainable(spec.profile,
                                            spec.opIndex);
        }
    }
}

namespace {

/** Per-slot scratch for the batched run: one sub-batch of SoA
 * lanes plus the plan scratch, reused across blocks. Aligned to
 * the widest vector the build could select so the kernels' stride
 * loads never split a cache line. */
struct alignas(64) Arena
{
    static constexpr std::size_t cap =
        MonteCarloAnalyzer::kernelBlock;
    static_assert(cap % simd::nativeWidth == 0,
                  "native width must divide the kernel block");
    // The drawn factor columns; aMax, range and ai are then scaled
    // to values in place.
    double aMax[cap];
    double range[cap];
    double ai[cap];
    double computeFactor[cap];
    double sensorFactor[cap];
    double throughput[cap];
    double attainable[cap];
    double sensorRate[cap];
    double computeRate[cap];
    std::uint32_t bottleneckSlot[cap];
    std::uint32_t ceilingSlot[cap];
    std::uint8_t bound[cap];
    std::uint64_t stageKind[workload::PipelineBound::maxStages * 3];
    workload::StagePipelinePlan::Scratch planScratch;
};

/**
 * The original sample-at-a-time loop over samples [lo, hi) of one
 * RNG block: the reference semantics, byte for byte. It draws each
 * sample's factors through LognormalDraw::drawSample() from `rng`,
 * which must sit on a Box-Muller pair boundary (a block or
 * sub-batch start). run() falls back to it when a kernel validation
 * flag trips (reproducing the scalar error), and runReference()
 * routes everything through it.
 */
void
scalarSamples(const UncertaintySpec &spec, const LognormalDraw &draw,
              const workload::StagePipelineEvaluator *evaluator,
              std::size_t stage_count,
              const platform::RooflinePlatform *machine,
              std::size_t compute_ceilings, std::size_t lo,
              std::size_t hi, Rng &rng, double *v_safe, double *knee,
              double *roof, std::array<std::uint64_t, 4> &counts,
              std::uint64_t *ceiling_counts,
              std::uint64_t *stage_counts)
{
    core::F1Analysis analysis;
    workload::PipelineBound pipeline_bound;
    workload::StageEvalOptions eval_options;
    eval_options.opIndex = spec.opIndex;
    eval_options.measuredFirst = false;
    LognormalDraw::Carry carry;
    double factor[LognormalDraw::maxFactors];
    for (std::size_t i = lo; i < hi; ++i) {
        draw.drawSample(rng, carry, factor);
        core::F1Inputs inputs = spec.nominal;
        inputs.aMax = units::MetersPerSecondSquared(
            inputs.aMax.value() * factor[kAMax]);
        inputs.sensingRange = units::Meters(
            inputs.sensingRange.value() * factor[kRange]);
        if (evaluator) {
            // Per-stage path: one shared AI draw scales every
            // annotated stage's intensity, the pipeline's modeled
            // bounds set f_compute, and both the bottleneck's and
            // each stage's binding are tallied.
            eval_options.aiScale = factor[kAi];
            evaluator->evaluateInto(eval_options, pipeline_bound);
            inputs.computeRate = units::Hertz(
                pipeline_bound.throughputHz * factor[kCompute]);
            const platform::CeilingRef binding =
                pipeline_bound.bottleneckBinding();
            inputs.computeBinding = binding;
            if (binding.attributed) {
                const std::size_t slot =
                    binding.kind == platform::CeilingKind::Compute
                        ? binding.index
                        : compute_ceilings + binding.index;
                ++ceiling_counts[slot];
            }
            for (std::size_t s = 0; s < stage_count; ++s) {
                const workload::StageBound &stage =
                    pipeline_bound.stages[s];
                const std::size_t kind =
                    !stage.binding.attributed
                        ? 2
                        : (stage.binding.kind ==
                                   platform::CeilingKind::Compute
                               ? 0
                               : 1);
                ++stage_counts[s * 3 + kind];
            }
        } else if (machine) {
            // Ceiling-family path: the bound at a perturbed
            // arithmetic intensity drives f_compute, so which
            // ceiling binds varies sample to sample.
            platform::WorkloadProfile profile = spec.profile;
            profile.ai =
                units::OpsPerByte(profile.ai.value() * factor[kAi]);
            const platform::AttainableBound bound =
                machine->attainable(profile, spec.opIndex);
            inputs.computeRate = units::Hertz(
                bound.attainable.value() / spec.workPerFrameGop *
                factor[kCompute]);
            inputs.computeBinding = bound.binding;
            const std::size_t slot =
                bound.binding.kind == platform::CeilingKind::Compute
                    ? bound.binding.index
                    : compute_ceilings + bound.binding.index;
            ++ceiling_counts[slot];
        } else {
            inputs.computeRate = units::Hertz(
                inputs.computeRate.value() * factor[kCompute]);
        }
        inputs.sensorRate = units::Hertz(inputs.sensorRate.value() *
                                         factor[kSensor]);

        core::F1Model::analyzeInto(inputs, analysis);
        v_safe[i] = analysis.safeVelocity.value();
        knee[i] = analysis.kneeThroughput.value();
        roof[i] = analysis.roofVelocity.value();
        ++counts[static_cast<std::size_t>(analysis.bound)];
    }
}

/** Shared tally-merge and distribution-building tail of both run
 * flavours. Per-block tallies are merged in block order — the
 * determinism contract — and the summaries run on `parallel`. */
UncertaintyResult
buildResult(
    std::size_t count,
    const std::vector<std::array<std::uint64_t, 4>> &bound_counts,
    bool machine, std::size_t compute_ceilings,
    std::size_t total_ceilings,
    const std::vector<std::vector<std::uint64_t>> &ceiling_counts,
    const std::vector<std::string> &stage_names,
    const std::vector<std::vector<std::uint64_t>> &stage_counts,
    const std::vector<double> &v_safe, const std::vector<double> &knee,
    const std::vector<double> &roof,
    const exec::ParallelOptions &parallel)
{
    UncertaintyResult result;
    result.samples = count;
    std::array<std::uint64_t, 4> totals{};
    for (const auto &counts : bound_counts)
        for (std::size_t k = 0; k < totals.size(); ++k)
            totals[k] += counts[k];

    if (machine) {
        std::vector<std::uint64_t> ceiling_totals(total_ceilings, 0);
        for (const auto &block : ceiling_counts)
            for (std::size_t k = 0; k < total_ceilings; ++k)
                ceiling_totals[k] += block[k];
        result.probComputeCeilingBinds.resize(compute_ceilings);
        result.probMemoryCeilingBinds.resize(total_ceilings -
                                             compute_ceilings);
        for (std::size_t k = 0; k < total_ceilings; ++k) {
            const double prob =
                static_cast<double>(ceiling_totals[k]) /
                static_cast<double>(count);
            if (k < compute_ceilings)
                result.probComputeCeilingBinds[k] = prob;
            else
                result.probMemoryCeilingBinds[k - compute_ceilings] =
                    prob;
        }
    }
    if (!stage_names.empty()) {
        const std::size_t stage_count = stage_names.size();
        std::vector<std::uint64_t> stage_totals(stage_count * 3, 0);
        for (const auto &block : stage_counts)
            for (std::size_t k = 0; k < stage_totals.size(); ++k)
                stage_totals[k] += block[k];
        result.stageBindings.resize(stage_count);
        for (std::size_t s = 0; s < stage_count; ++s) {
            StageBindingStats &stats = result.stageBindings[s];
            stats.stage = stage_names[s];
            stats.probComputeBound =
                static_cast<double>(stage_totals[s * 3 + 0]) /
                static_cast<double>(count);
            stats.probMemoryBound =
                static_cast<double>(stage_totals[s * 3 + 1]) /
                static_cast<double>(count);
            stats.probMeasured =
                static_cast<double>(stage_totals[s * 3 + 2]) /
                static_cast<double>(count);
        }
    }

    const double n = static_cast<double>(count);
    using core::BoundType;
    result.probComputeBound =
        static_cast<double>(
            totals[static_cast<std::size_t>(BoundType::ComputeBound)]) /
        n;
    result.probSensorBound =
        static_cast<double>(
            totals[static_cast<std::size_t>(BoundType::SensorBound)]) /
        n;
    result.probControlBound =
        static_cast<double>(
            totals[static_cast<std::size_t>(BoundType::ControlBound)]) /
        n;
    result.probPhysicsBound =
        static_cast<double>(
            totals[static_cast<std::size_t>(BoundType::PhysicsBound)]) /
        n;

    // The three summaries run concurrently, and every pass of each
    // (the exact sums and the selection) fans out to whichever
    // workers are idle.
    const std::array<const std::vector<double> *, 3> outputs = {
        &v_safe, &knee, &roof};
    const std::array<Distribution *, 3> summaries = {
        &result.safeVelocity, &result.kneeThroughput,
        &result.roofVelocity};
    exec::ParallelOptions fan_out = parallel;
    fan_out.grain = 1;
    exec::parallelFor(
        outputs.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                *summaries[i] =
                    Distribution::fromSamples(*outputs[i], parallel);
        },
        fan_out);
    return result;
}

} // namespace

UncertaintyResult
MonteCarloAnalyzer::run(std::size_t count, std::uint64_t seed,
                        const exec::ParallelOptions &parallel) const
{
    requireSampleCount(count);

    // Deterministic decomposition: samples come in fixed-size
    // blocks, each drawing from its own forked substream. Block
    // geometry depends only on `count`, every sample writes to its
    // own slot, and per-block tallies are merged in block order, so
    // the result is bit-identical at any thread count.
    const std::size_t blocks =
        (count + sampleBlock - 1) / sampleBlock;
    std::vector<Rng> block_rngs;
    block_rngs.reserve(blocks);
    Rng root(seed);
    for (std::size_t b = 0; b < blocks; ++b)
        block_rngs.push_back(root.fork());

    std::vector<double> v_safe(count);
    std::vector<double> knee(count);
    std::vector<double> roof(count);
    std::vector<std::array<std::uint64_t, 4>> bound_counts(
        blocks, std::array<std::uint64_t, 4>{});

    const platform::RooflinePlatform *machine =
        _spec.platform ? &*_spec.platform : nullptr;
    const std::size_t compute_ceilings =
        machine ? machine->computeCeilings().size() : 0;
    const std::size_t total_ceilings =
        machine ? compute_ceilings + machine->memoryCeilings().size()
                : 0;
    std::vector<std::vector<std::uint64_t>> ceiling_counts(
        machine ? blocks : 0,
        std::vector<std::uint64_t>(total_ceilings, 0));

    // Compile the per-sample evaluation once. The pipeline path gets
    // a StagePipelinePlan (per-stage SoA evaluation), the flat
    // platform path an EvaluationPlan over the spec profile; the
    // legacy path needs neither.
    std::optional<workload::StagePipelinePlan> plan;
    std::optional<platform::EvaluationPlan> machine_plan;
    std::size_t stage_count = 0;
    std::vector<std::string> stage_names;
    if (_spec.pipeline) {
        plan.emplace(*_spec.pipeline, *_spec.platform);
        stage_count = plan->stageCount();
        for (std::size_t s = 0; s < stage_count; ++s)
            stage_names.push_back(plan->evaluator().stageName(s));
    } else if (machine) {
        machine_plan.emplace(*machine, _spec.profile);
    }
    std::vector<std::vector<std::uint64_t>> stage_counts(
        plan ? blocks : 0,
        std::vector<std::uint64_t>(stage_count * 3, 0));

    // Sample-invariant nominals, hoisted.
    const double nominal_amax = _spec.nominal.aMax.value();
    const double nominal_range = _spec.nominal.sensingRange.value();
    const double nominal_ai = _spec.profile.ai.value();
    const double nominal_compute = _spec.nominal.computeRate.value();
    const double nominal_sensor = _spec.nominal.sensorRate.value();
    const double control = _spec.nominal.controlRate.value();
    const double knee_fraction = _spec.nominal.kneeFraction;
    const double work = _spec.workPerFrameGop;
    const std::size_t op = _spec.opIndex;

    exec::ParallelOptions options = parallel;
    options.grain = 1; // One block per chunk.
    std::vector<Arena> arenas(exec::maxSlots(options));
    const workload::StagePipelineEvaluator *evaluator =
        plan ? &plan->evaluator() : nullptr;

    exec::parallelForSlots(
        blocks,
        [&](std::size_t slot, std::size_t block_begin,
            std::size_t block_end) {
            Arena &arena = arenas[slot];
            for (std::size_t b = block_begin; b < block_end; ++b) {
                Rng rng = block_rngs[b];
                // Tally on the stack and store once per block:
                // adjacent blocks' slots share cache lines, so
                // per-sample increments would false-share.
                std::array<std::uint64_t, 4> counts{};
                const std::size_t lo = b * sampleBlock;
                const std::size_t hi =
                    std::min(count, lo + sampleBlock);
                for (std::size_t sub = lo; sub < hi;
                     sub += kernelBlock) {
                    const std::size_t m =
                        std::min(hi - sub, kernelBlock);
                    // Saved state for the scalar fallback. A full
                    // sub-batch draws an even number of normals, so
                    // every sub-batch starts on a Box-Muller pair
                    // boundary and the scalar draws from here
                    // reproduce phase A.
                    Rng rescan_rng = rng;
                    bool ok = true;

                    // Phase A: the block draw, then the nominals
                    // scaled by their factors. The pipeline path's AI
                    // scale is the bare factor.
                    double *const columns[] = {
                        arena.aMax, arena.range, arena.ai,
                        arena.computeFactor, arena.sensorFactor};
                    _draw.drawBlock(rng, m, columns);
                    for (std::size_t i = 0; i < m; ++i) {
                        arena.aMax[i] = nominal_amax * arena.aMax[i];
                        arena.range[i] =
                            nominal_range * arena.range[i];
                    }
                    if (machine_plan) {
                        for (std::size_t i = 0; i < m; ++i)
                            arena.ai[i] = nominal_ai * arena.ai[i];
                    }

                    // Phase B: batched f_compute evaluation.
                    if (plan) {
                        for (std::size_t k = 0;
                             k < stage_count * 3; ++k)
                            arena.stageKind[k] = 0;
                        ok = plan->tryEvaluateBlock(
                                 op, false, arena.ai, m,
                                 arena.throughput,
                                 arena.bottleneckSlot,
                                 arena.stageKind,
                                 arena.planScratch) &&
                             ok;
                        for (std::size_t i = 0; i < m; ++i)
                            arena.computeRate[i] =
                                arena.throughput[i] *
                                arena.computeFactor[i];
                    } else if (machine_plan) {
                        ok = machine_plan->tryEvaluateBlock(
                                 op, arena.ai, m, arena.attainable,
                                 arena.ceilingSlot) &&
                             ok;
                        for (std::size_t i = 0; i < m; ++i)
                            arena.computeRate[i] =
                                arena.attainable[i] / work *
                                arena.computeFactor[i];
                    } else {
                        for (std::size_t i = 0; i < m; ++i)
                            arena.computeRate[i] =
                                nominal_compute *
                                arena.computeFactor[i];
                    }
                    for (std::size_t i = 0; i < m; ++i)
                        arena.sensorRate[i] =
                            nominal_sensor * arena.sensorFactor[i];

                    // Phase C: the F-1 block kernel, writing the
                    // output lanes in place.
                    ok = core::analyzeBlock(
                             arena.aMax, arena.range,
                             arena.sensorRate, arena.computeRate,
                             control, knee_fraction, m,
                             v_safe.data() + sub, knee.data() + sub,
                             roof.data() + sub, arena.bound) &&
                         ok;

                    if (!ok) {
                        // Scalar fallback: recompute the whole
                        // sub-batch sample-at-a-time so the first
                        // failing sample throws the scalar path's
                        // own error (and, if none does, every
                        // output and tally is the scalar one).
                        scalarSamples(
                            _spec, _draw, evaluator, stage_count,
                            machine, compute_ceilings, sub, sub + m,
                            rescan_rng, v_safe.data(), knee.data(),
                            roof.data(), counts,
                            machine ? ceiling_counts[b].data()
                                    : nullptr,
                            plan ? stage_counts[b].data()
                                 : nullptr);
                        continue;
                    }

                    // Commit tallies only after every phase
                    // validated, so the fallback never
                    // double-counts.
                    for (std::size_t i = 0; i < m; ++i)
                        ++counts[arena.bound[i]];
                    if (plan) {
                        for (std::size_t i = 0; i < m; ++i) {
                            const std::uint32_t s =
                                arena.bottleneckSlot[i];
                            if (s != workload::StagePipelinePlan::
                                         measuredSlot)
                                ++ceiling_counts[b][s];
                        }
                        for (std::size_t k = 0;
                             k < stage_count * 3; ++k)
                            stage_counts[b][k] +=
                                arena.stageKind[k];
                    } else if (machine_plan) {
                        for (std::size_t i = 0; i < m; ++i)
                            ++ceiling_counts[b]
                                            [arena.ceilingSlot[i]];
                    }
                }
                bound_counts[b] = counts;
            }
        },
        options);

    return buildResult(count, bound_counts, machine != nullptr,
                       compute_ceilings, total_ceilings,
                       ceiling_counts, stage_names, stage_counts,
                       v_safe, knee, roof, parallel);
}

UncertaintyResult
MonteCarloAnalyzer::runReference(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel) const
{
    requireSampleCount(count);

    const std::size_t blocks =
        (count + sampleBlock - 1) / sampleBlock;
    std::vector<Rng> block_rngs;
    block_rngs.reserve(blocks);
    Rng root(seed);
    for (std::size_t b = 0; b < blocks; ++b)
        block_rngs.push_back(root.fork());

    std::vector<double> v_safe(count);
    std::vector<double> knee(count);
    std::vector<double> roof(count);
    std::vector<std::array<std::uint64_t, 4>> bound_counts(
        blocks, std::array<std::uint64_t, 4>{});

    const platform::RooflinePlatform *machine =
        _spec.platform ? &*_spec.platform : nullptr;
    const std::size_t compute_ceilings =
        machine ? machine->computeCeilings().size() : 0;
    const std::size_t total_ceilings =
        machine ? compute_ceilings + machine->memoryCeilings().size()
                : 0;
    std::vector<std::vector<std::uint64_t>> ceiling_counts(
        machine ? blocks : 0,
        std::vector<std::uint64_t>(total_ceilings, 0));

    std::optional<workload::StagePipelineEvaluator> evaluator;
    std::size_t stage_count = 0;
    std::vector<std::string> stage_names;
    if (_spec.pipeline) {
        evaluator.emplace(*_spec.pipeline, *_spec.platform);
        stage_count = evaluator->stageCount();
        for (std::size_t s = 0; s < stage_count; ++s)
            stage_names.push_back(evaluator->stageName(s));
    }
    std::vector<std::vector<std::uint64_t>> stage_counts(
        evaluator ? blocks : 0,
        std::vector<std::uint64_t>(stage_count * 3, 0));

    exec::ParallelOptions options = parallel;
    options.grain = 1; // One block per chunk.
    exec::parallelFor(
        blocks,
        [&](std::size_t block_begin, std::size_t block_end) {
            for (std::size_t b = block_begin; b < block_end; ++b) {
                Rng rng = block_rngs[b];
                std::array<std::uint64_t, 4> counts{};
                const std::size_t lo = b * sampleBlock;
                const std::size_t hi =
                    std::min(count, lo + sampleBlock);
                scalarSamples(
                    _spec, _draw, evaluator ? &*evaluator : nullptr,
                    stage_count, machine, compute_ceilings, lo, hi,
                    rng, v_safe.data(), knee.data(), roof.data(),
                    counts,
                    machine ? ceiling_counts[b].data() : nullptr,
                    evaluator ? stage_counts[b].data() : nullptr);
                bound_counts[b] = counts;
            }
        },
        options);

    return buildResult(count, bound_counts, machine != nullptr,
                       compute_ceilings, total_ceilings,
                       ceiling_counts, stage_names, stage_counts,
                       v_safe, knee, roof, parallel);
}

} // namespace uavf1::sim
