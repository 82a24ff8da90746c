/**
 * @file
 * Layer probes of the traced run.
 */

#include "layers.hh"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "components/catalog.hh"
#include "core/f1_batch.hh"
#include "exec/parallel.hh"
#include "fault/campaign.hh"
#include "inputs.hh"
#include "platform/evaluation_plan.hh"
#include "scenario/runner.hh"
#include "sim/flight_sim.hh"
#include "sim/monte_carlo.hh"
#include "sim/table1.hh"
#include "sim/validation.hh"
#include "simd/simd.hh"
#include "studies/presets.hh"
#include "support/rng.hh"
#include "workload/batch_eval.hh"
#include "workload/spa_pipeline.hh"

namespace perfbench {

using namespace uavf1;

namespace {

constexpr std::size_t kBlock = 64;

/** Time one call inside a span of `layer`; seconds. */
template <typename Fn>
double
timed(Tracer &tracer, const char *layer, const std::string &name,
      Fn &&fn)
{
    const auto span = tracer.span(layer, name);
    const auto start = Clock::now();
    fn();
    return secondsSince(start);
}

/** Median of `reps` timed calls; seconds. */
template <typename Fn>
double
medianTime(std::size_t reps, Tracer &tracer, const char *layer,
           const std::string &name, Fn &&fn)
{
    std::vector<double> times;
    for (std::size_t r = 0; r < reps; ++r)
        times.push_back(timed(tracer, layer, name, fn));
    return median(times);
}

/**
 * Median ns per sample of a block-kernel call over `samples`
 * samples: the call repeats in batches of ~2 ms, one span per batch.
 */
template <typename Fn>
double
kernelNs(const Env &env, Tracer &tracer, const char *layer,
         const std::string &name, std::size_t samples, Fn &&call)
{
    std::size_t calls = 1;
    for (;;) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < calls; ++i)
            call();
        if (secondsSince(start) > 2e-3 || calls >= (1u << 24))
            break;
        calls *= 2;
    }
    std::vector<double> ns;
    for (std::size_t b = 0; b < (env.tiny ? 3u : 9u); ++b) {
        const double s = timed(tracer, layer, name, [&] {
            for (std::size_t i = 0; i < calls; ++i)
                call();
        });
        ns.push_back(s * 1e9 /
                     static_cast<double>(calls * samples));
    }
    return median(ns);
}

/** Restores the SIMD dispatch mode on scope exit. */
struct SimdModeGuard
{
    simd::Mode saved = simd::activeMode();
    ~SimdModeGuard() { simd::setMode(saved); }
};

/** Native and forced-scalar ns per sample of one kernel. */
struct KernelTiming
{
    double nativeNs = 0.0;
    double scalarNs = 0.0;
};

template <typename Fn>
KernelTiming
timeBothModes(const Env &env, Tracer &tracer, const char *layer,
              const std::string &name, Fn &&call)
{
    const SimdModeGuard guard;
    KernelTiming timing;
    simd::setMode(simd::Mode::Native);
    timing.nativeNs =
        kernelNs(env, tracer, layer, name + " native", kBlock, call);
    simd::setMode(simd::Mode::Scalar);
    timing.scalarNs =
        kernelNs(env, tracer, layer, name + " scalar", kBlock, call);
    return timing;
}

/** True when one call in each SIMD mode leaves the same output
 * bits, as `read` digests them. */
template <typename Call, typename Read>
bool
sameInBothModes(Call &&call, Read &&read)
{
    const SimdModeGuard guard;
    simd::setMode(simd::Mode::Native);
    call();
    const std::uint64_t native = read();
    simd::setMode(simd::Mode::Scalar);
    call();
    return native == read();
}

/** Digest of the raw bytes of several kBlock-long output arrays. */
template <typename... T>
std::uint64_t
blockDigest(const T *...blocks)
{
    Digest digest;
    (digest.addBytes(blocks, kBlock * sizeof(T)), ...);
    return digest.value();
}

bool
allOk(const std::vector<scenario::ScenarioOutcome> &outcomes)
{
    return std::all_of(outcomes.begin(), outcomes.end(),
                       [](const auto &o) { return o.ok; });
}

/** Multiplicative lognormal spread with unit median. */
double
spread(Rng &rng, double rel_std)
{
    return std::exp(rel_std * rng.normal());
}

// ------------------------------------------- scenario, plot and sim

void
scenarioLayer(const Env &env, exec::ThreadPool &pool, Tracer &tracer,
              Metrics &metrics, Ledger &ledger)
{
    const auto op = tracer.op("probe scenario/plot");
    const scenario::ScenarioRunner runner;
    const auto specs = runner.allSpecs();
    exec::ThreadPool serial(1);
    scenario::RunnerOptions artifacts;
    artifacts.outDir = env.workDir + "/probe-suite";
    artifacts.parallel.pool = &pool;
    scenario::RunnerOptions one = artifacts;
    one.parallel.pool = &serial;
    // At 1 thread the artifact writes sit on the critical path; at N
    // threads they overlap fig07 and vanish from the pass time.
    scenario::RunnerOptions bare = one;
    bare.outDir.clear();

    // Interleaved so drift in the host's load hits every variant.
    std::vector<double> pass_n, pass_1, pass_bare, fig07, others;
    bool ok = true;
    for (std::size_t r = 0; r < env.reps(); ++r) {
        pass_n.push_back(timed(tracer, "scenario", "runAll N threads",
                               [&] {
                                   ok = allOk(runner.runAll(
                                            specs, artifacts)) &&
                                        ok;
                               }));
        pass_1.push_back(timed(tracer, "scenario", "runAll 1 thread",
                               [&] {
                                   ok = allOk(runner.runAll(specs,
                                                            one)) &&
                                        ok;
                               }));
        pass_bare.push_back(timed(
            tracer, "scenario", "runAll 1 thread without artifacts", [&] {
                ok = allOk(runner.runAll(specs, bare)) && ok;
            }));
        double rest = 0.0;
        for (const auto &spec : specs) {
            const double t =
                timed(tracer, "scenario", "run " + spec.study, [&] {
                    ok = runner.run(spec, artifacts).ok && ok;
                });
            if (spec.study == "fig07")
                fig07.push_back(t);
            else
                rest += t;
        }
        others.push_back(rest);
    }
    ledger.record(ok, "scenario probes: every scenario ends ok");
    ledger.record(!fig07.empty(), "scenario probes: fig07 registered");
    if (fig07.empty())
        fig07.push_back(0.0);

    const double n = median(pass_n);
    metrics.set("scenario.fig07_ms", median(fig07) * 1e3, "ms");
    metrics.set("scenario.others_ms", median(others) * 1e3, "ms");
    metrics.set("scenario.fig07_share", median(fig07) / n, "fraction");
    metrics.set("scenario.suite_speedup", median(pass_1) / n, "x");
    metrics.set("plot.artifact_write_ms",
                (median(pass_1) - median(pass_bare)) * 1e3, "ms");
}

void
simLayer(const Env &env, Tracer &tracer, Metrics &metrics,
         Ledger &ledger)
{
    const auto op = tracer.op("probe sim");
    const auto cases = sim::table1ValidationCases();
    std::vector<sim::ValidationResult> results;
    const double validate =
        medianTime(env.reps(), tracer, "sim",
                   "ValidationHarness::validateAll",
                   [&] { results = sim::ValidationHarness::validateAll(
                             cases); });
    std::uint64_t trials = 0;
    for (const auto &result : results) {
        for (const auto &setpoint : result.sweep)
            trials += static_cast<std::uint64_t>(setpoint.trials);
    }
    ledger.record(trials > 0, "sim probes: validation flew trials");
    metrics.set("sim.validate_ms", validate * 1e3, "ms");
    metrics.set("sim.flight_trials", static_cast<double>(trials),
                "count");

    // Single trials at the first build's predicted safe velocity.
    const sim::ValidationCase &vcase = cases.front();
    const sim::FlightSimulator simulator{sim::VehicleModel(vcase.vehicle)};
    sim::StopScenario scenario = vcase.scenario;
    scenario.commandedVelocity = units::MetersPerSecond(
        sim::ValidationHarness::predictedSafeVelocity(vcase));
    Rng master(env.inputSeed);
    std::vector<double> trial_us;
    bool moved = true;
    {
        const auto span = tracer.span("sim", "FlightSimulator::run");
        for (std::size_t i = 0; i < (env.tiny ? 20u : 300u); ++i) {
            Rng rng = master.fork();
            const auto start = Clock::now();
            const sim::TrialResult trial =
                simulator.run(scenario, vcase.noise, rng);
            trial_us.push_back(secondsSince(start) * 1e6);
            moved = moved && trial.peakVelocity > 0.0;
        }
    }
    ledger.record(moved, "sim probes: every flight trial moved");
    metrics.set("sim.flight_trial_us", median(trial_us), "us");
}

// ------------------------------------------- fault, exec and stats

void
faultLayer(const Env &env, exec::ThreadPool &pool, Tracer &tracer,
           Metrics &metrics, Ledger &ledger)
{
    const auto op = tracer.op("probe fault/exec/stats");
    exec::ThreadPool serial(1);
    exec::ParallelOptions par_n;
    par_n.pool = &pool;
    exec::ParallelOptions par_1;
    par_1.pool = &serial;
    const std::size_t n = env.samples();
    const std::size_t n_ref = env.referenceSamples();
    const std::uint64_t seed = env.inputSeed;
    const std::size_t reps = env.reps();

    double construct = 0.0, run_n = 0.0, run_1 = 0.0, curve_n = 0.0,
           batch_1 = 0.0, reference_1 = 0.0;
    double first_run_1 = 0.0;
    for (const FaultCase &fault_case : faultCases) {
        const std::string suite = fault_case.suite;
        const fault::CampaignSpec spec = faultCampaignSpec(fault_case);
        std::optional<fault::FaultCampaign> campaign;
        std::vector<double> constructs;
        for (std::size_t r = 0; r < std::max<std::size_t>(reps, 5); ++r) {
            fault::CampaignSpec copy = spec;
            campaign.reset();
            constructs.push_back(timed(
                tracer, "fault", "FaultCampaign::FaultCampaign " + suite,
                [&] { campaign.emplace(std::move(copy)); }));
        }
        construct += median(constructs);

        fault::CampaignResult at_n, at_1, batch, reference;
        run_n += medianTime(reps, tracer, "fault", "run N " + suite,
                            [&] { at_n = campaign->run(n, seed, par_n); });
        const double one =
            medianTime(reps, tracer, "fault", "run 1 thread " + suite,
                       [&] { at_1 = campaign->run(n, seed, par_1); });
        run_1 += one;
        if (first_run_1 == 0.0)
            first_run_1 = one;
        curve_n += medianTime(reps, tracer, "fault",
                              "degradationCurve N " + suite, [&] {
                                  campaign->degradationCurve(
                                      faultLevels, n, seed, par_n);
                              });
        batch_1 += medianTime(reps, tracer, "fault",
                              "run 1 thread (oracle size) " + suite,
                              [&] {
                                  batch = campaign->run(n_ref, seed,
                                                        par_1);
                              });
        reference_1 += medianTime(
            reps, tracer, "fault", "runReference 1 thread " + suite,
            [&] { reference = campaign->runReference(n_ref, seed, par_1); });
        ledger.record(digestOf(at_n) == digestOf(at_1),
                      "fault probes: " + suite +
                          " run() at 1 thread equals N threads");
        ledger.record(digestOf(batch) == digestOf(reference),
                      "fault probes: " + suite +
                          " run() equals runReference()");
    }
    const auto cases = static_cast<double>(std::size(faultCases));
    metrics.set("fault.construct_ms", construct / cases * 1e3, "ms");
    metrics.set("fault.run_ns_per_mission",
                run_n * 1e9 / (cases * static_cast<double>(n)), "ns");
    metrics.set("fault.curve_ns_per_mission",
                curve_n * 1e9 /
                    (cases * faultLevels * static_cast<double>(n)),
                "ns");
    metrics.set("fault.speedup", run_1 / run_n, "x");
    metrics.set("fault.reference_ratio", reference_1 / batch_1, "x");

    // Chunk dispatch cost at the geometry suggestedGrain picks for
    // the campaign's own block loop (cost per block measured above).
    const std::size_t blocks =
        (n + fault::FaultCampaign::sampleBlock - 1) /
        fault::FaultCampaign::sampleBlock;
    exec::ParallelOptions empty = par_n;
    empty.grain = exec::suggestedGrain(
        blocks, first_run_1 * 1e9 / static_cast<double>(blocks));
    const std::size_t chunks = (blocks + empty.grain - 1) / empty.grain;
    const double per_loop_ns = kernelNs(
        env, tracer, "exec", "parallelFor empty body", 1, [&] {
            exec::parallelFor(
                blocks, [](std::size_t, std::size_t) {}, empty);
        });
    metrics.set("exec.chunk_overhead_us",
                per_loop_ns / 1e3 / static_cast<double>(chunks), "us");

    // Order statistics over one workload-sized sample.
    std::vector<double> values(n);
    Rng rng(seed);
    for (double &v : values)
        v = 10.0 * spread(rng, 0.2);
    std::vector<double> stats;
    for (std::size_t r = 0; r < std::max<std::size_t>(reps, 5); ++r) {
        std::vector<double> copy = values;
        stats.push_back(timed(tracer, "stats",
                              "Distribution::fromSamples", [&] {
                                  (void)sim::Distribution::fromSamples(
                                      std::move(copy));
                              }));
    }
    metrics.set("stats.from_samples_ms", median(stats) * 1e3, "ms");
}

// ---------------------------- Monte-Carlo and the block-kernel stack

void
monteCarloLayer(const Env &env, exec::ThreadPool &pool, Tracer &tracer,
                Metrics &metrics, Ledger &ledger)
{
    const auto op = tracer.op("probe sim/Monte-Carlo");
    exec::ThreadPool serial(1);
    exec::ParallelOptions par_n;
    par_n.pool = &pool;
    exec::ParallelOptions par_1;
    par_1.pool = &serial;
    const std::size_t n = env.samples();
    const std::size_t n_ref = env.referenceSamples();
    const std::uint64_t seed = env.inputSeed;
    const std::size_t reps = env.reps();

    const std::pair<const char *, sim::UncertaintySpec> paths[] = {
        {"pipeline", pipelineUncertainty()},
        {"platform", platformUncertainty()},
    };
    for (const auto &[name, spec] : paths) {
        const std::string path = name;
        const sim::MonteCarloAnalyzer analyzer(spec);
        sim::UncertaintyResult at_n, at_1, batch, reference;
        const double run_n = medianTime(
            reps, tracer, "sim", "MonteCarloAnalyzer::run N " + path,
            [&] { at_n = analyzer.run(n, seed, par_n); });
        const double run_1 = medianTime(
            reps, tracer, "sim", "MonteCarloAnalyzer::run 1 thread " + path,
            [&] { at_1 = analyzer.run(n, seed, par_1); });
        const double batch_1 = medianTime(
            reps, tracer, "sim",
            "MonteCarloAnalyzer::run 1 thread (oracle size) " + path,
            [&] { batch = analyzer.run(n_ref, seed, par_1); });
        const double reference_1 = medianTime(
            reps, tracer, "sim",
            "MonteCarloAnalyzer::runReference 1 thread " + path,
            [&] { reference = analyzer.runReference(n_ref, seed, par_1); });
        ledger.record(digestOf(at_n) == digestOf(at_1),
                      "Monte-Carlo probes: " + path +
                          " run() at 1 thread equals N threads");
        ledger.record(digestOf(batch) == digestOf(reference),
                      "Monte-Carlo probes: " + path +
                          " run() equals runReference()");
        metrics.set("mc.run_ns_per_sample." + path,
                    run_n * 1e9 / static_cast<double>(n), "ns");
        metrics.set("mc.speedup." + path, run_1 / run_n, "x");
        metrics.set("mc.reference_ratio." + path, reference_1 / batch_1,
                    "x");
    }
}

/** add/sub/mul/div/sqrt per sample of EvaluationPlan::evaluateBlock
 * for one profile: per admitted memory level one multiply, plus a
 * divide unless the level carries the full traffic stream. */
double
planFlops(const platform::RooflinePlatform &machine,
          const platform::WorkloadProfile &profile)
{
    double flops = 0.0;
    for (std::size_t i = 0; i < machine.memoryCeilings().size(); ++i) {
        const double traffic =
            i < platform::WorkloadProfile::maxMemoryLevels
                ? profile.trafficFraction[i]
                : 1.0;
        if (traffic > 0.0)
            flops += traffic == 1.0 ? 1.0 : 2.0;
    }
    return flops;
}

/** One block kernel placed on the host roofline. */
struct KernelCost
{
    const char *name;
    double flops; ///< Computed from the kernel body, per sample.
    double bytes; ///< Caller arrays read + written, per sample.
    double ns;    ///< Measured native ns per sample.
};

/** Time the four block kernels (native and scalar), the scalar
 * attainable() call and the plan compile; returns the kernel costs. */
std::vector<KernelCost>
kernelLayer(const Env &env, Tracer &tracer, Metrics &metrics,
            Ledger &ledger)
{
    const auto op = tracer.op("probe core/platform/workload/simd");
    const core::F1Inputs nominal =
        studies::pelicanInputs(units::Hertz(20.0));
    Rng rng(env.inputSeed);

    // core: the Monte-Carlo kernel and the campaign's v_safe kernel.
    double a_max[kBlock], range[kBlock], sensor[kBlock], compute[kBlock];
    for (std::size_t i = 0; i < kBlock; ++i) {
        a_max[i] = nominal.aMax.value() * spread(rng, 0.10);
        range[i] = nominal.sensingRange.value() * spread(rng, 0.05);
        sensor[i] = nominal.sensorRate.value();
        compute[i] = nominal.computeRate.value() * spread(rng, 0.10);
    }
    double v_safe[kBlock], knee[kBlock], roof[kBlock];
    std::uint8_t bound[kBlock];
    bool kernels_ok = true;
    const auto f1_call = [&] {
        kernels_ok = core::analyzeBlock(a_max, range, sensor, compute,
                                        nominal.controlRate.value(),
                                        nominal.kneeFraction, kBlock,
                                        v_safe, knee, roof, bound) &&
                     kernels_ok;
    };
    const auto vsafe_call = [&] {
        kernels_ok = core::analyzeVSafeBlock(
                         nominal.aMax.value(),
                         nominal.sensingRange.value(), sensor, compute,
                         nominal.controlRate.value(), kBlock, v_safe) &&
                     kernels_ok;
    };
    const KernelTiming f1 =
        timeBothModes(env, tracer, "core", "analyzeBlock", f1_call);
    const KernelTiming vsafe = timeBothModes(
        env, tracer, "core", "analyzeVSafeBlock", vsafe_call);
    ledger.record(kernels_ok, "kernel probes: f1 kernels validate");
    ledger.record(sameInBothModes(f1_call,
                                  [&] {
                                      return blockDigest(v_safe, knee,
                                                         roof, bound);
                                  }),
                  "kernel probes: analyzeBlock native equals scalar");
    ledger.record(
        sameInBothModes(vsafe_call, [&] { return blockDigest(v_safe); }),
        "kernel probes: analyzeVSafeBlock native equals scalar");

    // platform: the flat path's compiled plan and the scalar call.
    const sim::UncertaintySpec flat = platformUncertainty();
    const platform::RooflinePlatform &tx2 = *flat.platform;
    const platform::EvaluationPlan plan(tx2, flat.profile);
    double ai[kBlock], attainable[kBlock];
    std::uint32_t slot[kBlock];
    std::vector<platform::WorkloadProfile> profiles(kBlock, flat.profile);
    for (std::size_t i = 0; i < kBlock; ++i) {
        ai[i] = flat.profile.ai.value() * spread(rng, flat.aiRelStd);
        profiles[i].ai = units::OpsPerByte(ai[i]);
    }
    const auto plan_call = [&] {
        plan.evaluateBlock(0, ai, kBlock, attainable, slot);
    };
    const KernelTiming plan_block = timeBothModes(
        env, tracer, "platform", "EvaluationPlan::evaluateBlock",
        plan_call);
    ledger.record(sameInBothModes(plan_call,
                                  [&] {
                                      return blockDigest(attainable,
                                                         slot);
                                  }),
                  "kernel probes: EvaluationPlan native equals scalar");
    double sink = 0.0;
    const double attainable_ns = kernelNs(
        env, tracer, "platform", "RooflinePlatform::attainable", kBlock,
        [&] {
            for (const auto &profile : profiles)
                sink += tx2.attainable(profile, 0).attainable.value();
        });
    ledger.record(std::isfinite(sink) && sink > 0.0,
                  "kernel probes: attainable() bounds are finite");
    bool plan_ok = true;
    for (std::size_t i = 0; i < kBlock; ++i) {
        plan_ok = plan_ok && attainable[i] ==
                                 tx2.attainable(profiles[i], 0)
                                     .attainable.value();
    }
    ledger.record(plan_ok, "kernel probes: EvaluationPlan equals "
                           "attainable()");

    // workload: the pipeline path's plan over many blocks drawn at
    // the workload's AI spread (the whole-block fast path takes a
    // block when every scale lies inside its interval), with every
    // scale at 1 (always the fast path), and with one memory-bound
    // scale per block (always the per-stage vector loops — the body
    // the roofline places).
    const sim::UncertaintySpec piped = pipelineUncertainty();
    std::optional<workload::StagePipelinePlan> stages;
    const double compile = medianTime(
        std::max<std::size_t>(env.reps(), 11), tracer, "workload",
        "StagePipelinePlan::StagePipelinePlan",
        [&] { stages.emplace(*piped.pipeline, *piped.platform); });
    metrics.set("workload.plan_compile_us", compile * 1e6, "us");
    constexpr std::size_t kBlocks = 64;
    std::vector<double> drawn(kBlocks * kBlock);
    for (double &scale : drawn)
        scale = spread(rng, piped.aiRelStd);
    std::vector<double> slow = drawn;
    for (std::size_t b = 0; b < kBlocks; ++b)
        slow[b * kBlock + kBlock - 1] = 1e-3;
    const std::vector<double> ones(kBlock, 1.0);
    workload::StagePipelinePlan::Scratch scratch;
    double throughput[kBlock];
    std::uint32_t bottleneck[kBlock];
    std::vector<std::uint64_t> kinds(stages->stageCount() * 3, 0);
    std::size_t next = 0;
    const auto stage_call = [&](const std::vector<double> &scales) {
        const double *block = scales.data() + (next++ % (scales.size() /
                                                         kBlock)) * kBlock;
        stages->evaluateBlock(0, false, block, kBlock, throughput,
                              bottleneck, kinds.data(), scratch);
    };
    const double drawn_ns = kernelNs(
        env, tracer, "workload",
        "StagePipelinePlan::evaluateBlock workload spread", kBlock,
        [&] { stage_call(drawn); });
    const double fast_ns = kernelNs(
        env, tracer, "workload", "StagePipelinePlan::evaluateBlock fast",
        kBlock, [&] { stage_call(ones); });
    const KernelTiming stage_block = timeBothModes(
        env, tracer, "workload", "StagePipelinePlan::evaluateBlock slow",
        [&] { stage_call(slow); });
    ledger.record(sameInBothModes([&] { next = 0; stage_call(slow); },
                                  [&] {
                                      return blockDigest(throughput,
                                                         bottleneck);
                                  }),
                  "kernel probes: StagePipelinePlan native equals "
                  "scalar");

    metrics.set("core.analyze_block_ns", f1.nativeNs, "ns");
    metrics.set("core.vsafe_block_ns", vsafe.nativeNs, "ns");
    metrics.set("platform.plan_block_ns", plan_block.nativeNs, "ns");
    metrics.set("platform.attainable_ns", attainable_ns, "ns");
    metrics.set("workload.plan_block_ns", drawn_ns, "ns");
    metrics.set("workload.plan_block_fast_ns", fast_ns, "ns");
    metrics.set("workload.plan_block_slow_ns", stage_block.nativeNs, "ns");
    metrics.set("simd.native_over_scalar.f1_block",
                f1.scalarNs / f1.nativeNs, "x");
    metrics.set("simd.native_over_scalar.vsafe_block",
                vsafe.scalarNs / vsafe.nativeNs, "x");
    metrics.set("simd.native_over_scalar.evaluation_plan",
                plan_block.scalarNs / plan_block.nativeNs, "x");
    metrics.set("simd.native_over_scalar.stage_pipeline",
                stage_block.scalarNs / stage_block.nativeNs, "x");

    // The stage kernel's flops: per annotated stage the AI scaling
    // multiply, its plan's level ops, the latency divide and the
    // running-total add; per other stage the add; one final divide.
    const auto &evaluator = stages->evaluator();
    double stage_flops = 1.0;
    for (std::size_t s = 0; s < stages->stageCount(); ++s) {
        stage_flops += evaluator.stageAnnotated(s)
                           ? 3.0 + planFlops(evaluator.platform(),
                                             evaluator.stageProfile(s))
                           : 1.0;
    }
    // f1 block: q (2), t (1), knee (4), v_safe (5), roof (3); bytes:
    // four double inputs, three double outputs, one bound byte.
    // v_safe block: t (1), v_safe (5); two inputs, one output.
    return {
        {"f1_block", 15.0, 4 * 8 + 3 * 8 + 1, f1.nativeNs},
        {"vsafe_block", 6.0, 2 * 8 + 8, vsafe.nativeNs},
        {"evaluation_plan", planFlops(tx2, flat.profile), 8 + 8 + 4,
         plan_block.nativeNs},
        {"stage_pipeline", stage_flops, 8 + 8 + 4, stage_block.nativeNs},
    };
}

// ------------------------------------------------ host self-roofline

/** Best-of single-thread STREAM triad over arrays totalling at least
 * 4x the last-level cache; GB/s counting 24 bytes per element. */
double
triadGbps(const Env &env, Tracer &tracer, Ledger &ledger)
{
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (llc <= 0)
        llc = 32l << 20;
    const double total_bytes =
        env.tiny ? 24.0 * (1 << 18) : 4.0 * static_cast<double>(llc);
    const auto n = static_cast<std::size_t>(total_bytes / 24.0) + 1;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double scalar = 3.0;
    double best = 0.0;
    for (std::size_t r = 0; r < (env.tiny ? 2u : 5u); ++r) {
        const double s = timed(tracer, "host", "triad", [&] {
            for (std::size_t i = 0; i < n; ++i)
                a[i] = b[i] + scalar * c[i];
        });
        best = std::max(best, 24.0 * static_cast<double>(n) / s / 1e9);
    }
    ledger.record(a[n / 2] == 7.0 && a[n - 1] == 7.0,
                  "host probes: triad result");
    std::printf("host roofline (one thread): last-level cache %.1f MiB, "
                "triad arrays 3 x %.1f MiB = %.1f MiB\n",
                static_cast<double>(llc) / (1 << 20),
                8.0 * static_cast<double>(n) / (1 << 20),
                24.0 * static_cast<double>(n) / (1 << 20));
    return best;
}

/** Best-of single-thread peak of independent multiply-then-add
 * chains at the build's SIMD width (the kernels are unfused). */
double
mulAddGflops(const Env &env, Tracer &tracer, Ledger &ledger)
{
    using P = simd::Pack<double, simd::nativeWidth>;
    constexpr std::size_t chains = 12;
    const std::size_t iters = env.tiny ? 100000 : 2000000;
    const P mul = P::broadcast(0.5);
    const P add = P::broadcast(1.0);
    double best = 0.0;
    double lanes[simd::nativeWidth];
    for (std::size_t r = 0; r < (env.tiny ? 2u : 5u); ++r) {
        P acc[chains];
        for (std::size_t k = 0; k < chains; ++k)
            acc[k] = P::broadcast(static_cast<double>(k));
        const double s = timed(tracer, "host", "mul/add chains", [&] {
            for (std::size_t i = 0; i < iters; ++i) {
                for (std::size_t k = 0; k < chains; ++k)
                    acc[k] = acc[k] * mul + add;
            }
        });
        P sum = acc[0];
        for (std::size_t k = 1; k < chains; ++k)
            sum = sum + acc[k];
        sum.store(lanes);
        // Every chain converges to the fixed point 2.
        ledger.record(std::abs(lanes[0] - 2.0 * chains) < 1e-6,
                      "host probes: mul/add chains converge");
        best = std::max(best, 2.0 * simd::nativeWidth * chains *
                                  static_cast<double>(iters) / s / 1e9);
    }
    return best;
}

void
hostRoofline(const Env &env, const std::vector<KernelCost> &kernels,
             Tracer &tracer, Metrics &metrics, Ledger &ledger)
{
    const auto op = tracer.op("probe host roofline");
    const double bandwidth = triadGbps(env, tracer, ledger);
    const double peak = mulAddGflops(env, tracer, ledger);
    metrics.set("host.triad_gbps", bandwidth, "GB/s");
    metrics.set("host.muladd_gflops", peak, "GFLOP/s");
    for (const KernelCost &k : kernels) {
        const std::string name = k.name;
        const double gflops = k.flops / k.ns;
        const double roof = std::min(peak, k.flops / k.bytes * bandwidth);
        metrics.set(name + ".flops_per_sample", k.flops, "flop");
        metrics.set(name + ".bytes_per_sample", k.bytes, "B");
        metrics.set(name + ".gflops", gflops, "GFLOP/s");
        metrics.set(name + ".roofline_frac", gflops / roof, "fraction");
    }
}

} // namespace

void
measureLayers(const Env &env, exec::ThreadPool &pool, Tracer &tracer,
              Metrics &metrics, Ledger &ledger)
{
    scenarioLayer(env, pool, tracer, metrics, ledger);
    simLayer(env, tracer, metrics, ledger);
    faultLayer(env, pool, tracer, metrics, ledger);
    monteCarloLayer(env, pool, tracer, metrics, ledger);
    const std::vector<KernelCost> kernels =
        kernelLayer(env, tracer, metrics, ledger);
    hostRoofline(env, kernels, tracer, metrics, ledger);
}

} // namespace perfbench
