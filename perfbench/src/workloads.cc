/**
 * @file
 * Workload implementations.
 */

#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "fault/campaign.hh"
#include "inputs.hh"
#include "scenario/runner.hh"
#include "sim/monte_carlo.hh"

namespace perfbench {

using namespace uavf1;

namespace {

/**
 * Kernel calls of one campaign run() or Monte-Carlo run(): both cut
 * their samples into RNG blocks of `sampleBlock` and each block into
 * kernel calls of `kernelBlock` samples.
 */
std::uint64_t
samplerKernelCalls(std::size_t samples)
{
    constexpr std::size_t rng_block = sim::MonteCarloAnalyzer::sampleBlock;
    constexpr std::size_t kernel = sim::MonteCarloAnalyzer::kernelBlock;
    static_assert(fault::FaultCampaign::sampleBlock == rng_block);
    const std::size_t rest = samples % rng_block;
    return (samples / rng_block) * ((rng_block + kernel - 1) / kernel) +
           (rest + kernel - 1) / kernel;
}

/** Missions and kernel calls of one `faults` study outcome: run()
 * plus one run() per degradation-curve level. */
void
countFaultStudy(const scenario::StudyResult &result, Counts &counts)
{
    const auto samples =
        static_cast<std::uint64_t>(studyMetric(result, "samples"));
    const std::uint64_t runs =
        1 + (result.series.empty() ? 0 : result.series.front().size());
    counts.missions += runs * samples;
    counts.kernelBlocks += runs * samplerKernelCalls(samples);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read artifact " + path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Digest and count a batch of outcomes, in label order so the
 * result does not depend on the order the batch ran in. */
void
summarize(std::vector<scenario::ScenarioOutcome> &outcomes,
          bool hash_artifacts, PassResult &result)
{
    std::sort(outcomes.begin(), outcomes.end(),
              [](const auto &a, const auto &b) {
                  return a.label < b.label;
              });
    Digest digest;
    for (const auto &outcome : outcomes) {
        ++result.counts.studies;
        digest.add(outcome.label);
        digest.add(std::string(scenario::toString(outcome.status)));
        if (!outcome.ok) {
            if (result.ok)
                result.error = outcome.label + ": " + outcome.error;
            result.ok = false;
            continue;
        }
        addStudyResult(digest, outcome.result);
        if (hash_artifacts) {
            for (const auto &path : outcome.artifacts) {
                digest.add(path.substr(path.find_last_of('/') + 1));
                digest.add(fileBytes(path));
            }
        }
        if (outcome.study == "faults")
            countFaultStudy(outcome.result, result.counts);
    }
    result.digest = digest.value();
}

// ------------------------------------------------------ paper-suite

class PaperSuite final : public Workload
{
  public:
    explicit PaperSuite(const Env &env)
        : _outDir(env.workDir + "/paper-suite"),
          _specs(_runner.allSpecs())
    {
        // The seed is the `faults` study's own seed parameter. The
        // batch keeps registry order: which thread picks up fig07,
        // the critical path, must not depend on the seed.
        bool seeded = false;
        for (auto &spec : _specs) {
            if (spec.study == "faults") {
                spec.overrides.set("seed", std::to_string(env.inputSeed));
                seeded = true;
            }
        }
        if (!seeded)
            throw std::runtime_error("paper-suite: no faults study to "
                                     "seed");
    }

    const char *itemName() const override { return "studies"; }

    std::uint64_t items(const Counts &counts) const override
    {
        return counts.studies;
    }

    PassResult pass(exec::ThreadPool &pool, Tracer &tracer) override
    {
        scenario::RunnerOptions options;
        options.outDir = _outDir;
        options.parallel.pool = &pool;
        PassResult result;
        std::vector<scenario::ScenarioOutcome> outcomes;
        {
            const auto span = tracer.span("scenario", "runAll");
            const auto start = Clock::now();
            outcomes = _runner.runAll(_specs, options);
            result.seconds = secondsSince(start);
        }
        result.counts.ops = 1;
        summarize(outcomes, true, result);
        return result;
    }

    void checkOnce(exec::ThreadPool &, const PassResult &reference,
                   Tracer &tracer, Ledger &ledger) override
    {
        ledger.guard("paper-suite: 1-thread batch reproduces the "
                     "N-thread artifacts",
                     [&] {
                         exec::ThreadPool serial(1);
                         return reproduces(pass(serial, tracer),
                                           reference);
                     });
    }

  private:
    scenario::ScenarioRunner _runner;
    std::string _outDir;
    std::vector<scenario::ScenarioSpec> _specs;
};

// --------------------------------------------------- fault-campaign

class FaultCampaignWorkload final : public Workload
{
  public:
    explicit FaultCampaignWorkload(const Env &env) : _env(env)
    {
        for (const FaultCase &fault_case : faultCases)
            _specs.push_back(faultScenario(fault_case, env));
    }

    const char *itemName() const override { return "missions"; }

    std::uint64_t items(const Counts &counts) const override
    {
        return counts.missions;
    }

    PassResult pass(exec::ThreadPool &pool, Tracer &tracer) override
    {
        scenario::RunnerOptions options;
        options.parallel.pool = &pool;
        PassResult result;
        std::vector<scenario::ScenarioOutcome> outcomes;
        for (const auto &spec : _specs) {
            const auto span =
                tracer.span("scenario", "run " + spec.label);
            const auto start = Clock::now();
            outcomes.push_back(_runner.run(spec, options));
            result.seconds += secondsSince(start);
            ++result.counts.ops;
        }
        summarize(outcomes, false, result);
        _last = std::move(outcomes);
        return result;
    }

    void checkOnce(exec::ThreadPool &pool, const PassResult &reference,
                   Tracer &tracer, Ledger &ledger) override
    {
        ledger.guard("fault-campaign: 1-thread pass reproduces the "
                     "N-thread results",
                     [&] {
                         exec::ThreadPool serial(1);
                         return reproduces(pass(serial, tracer),
                                           reference);
                     });
        for (const FaultCase &fault_case : faultCases) {
            const std::string name =
                std::string("fault-campaign/") + fault_case.suite;
            const fault::FaultCampaign campaign(
                faultCampaignSpec(fault_case));
            ledger.guard(name + ": rebuilt campaign reproduces the "
                                "faults study",
                         [&] {
                             return reproducesStudy(campaign, fault_case,
                                                    pool);
                         });
            ledger.guard(name + ": run() equals runReference()", [&] {
                const std::size_t n = _env.referenceSamples();
                exec::ParallelOptions parallel;
                parallel.pool = &pool;
                exec::ThreadPool serial(1);
                exec::ParallelOptions one;
                one.pool = &serial;
                return digestOf(campaign.run(n, _env.inputSeed,
                                             parallel)) ==
                       digestOf(campaign.runReference(
                           n, _env.inputSeed, one));
            });
        }
    }

  private:
    bool reproducesStudy(const fault::FaultCampaign &campaign,
                         const FaultCase &fault_case,
                         exec::ThreadPool &pool) const
    {
        const std::string label =
            std::string("faults-") + fault_case.suite;
        for (const auto &outcome : _last) {
            if (outcome.label != label || !outcome.ok)
                continue;
            exec::ParallelOptions parallel;
            parallel.pool = &pool;
            const fault::CampaignResult mine =
                campaign.run(_env.samples(), _env.inputSeed, parallel);
            const auto &study = outcome.result;
            return mine.safeVelocity.mean ==
                       studyMetric(study, "degraded_v_safe_mean") &&
                   mine.safeVelocity.p5 ==
                       studyMetric(study, "degraded_v_safe_p5") &&
                   mine.abortProbability ==
                       studyMetric(study, "abort_probability") &&
                   static_cast<double>(mine.samples) ==
                       studyMetric(study, "samples");
        }
        return false;
    }

    Env _env;
    scenario::ScenarioRunner _runner;
    std::vector<scenario::ScenarioSpec> _specs;
    std::vector<scenario::ScenarioOutcome> _last;
};

// ------------------------------------------------------ uncertainty

class Uncertainty final : public Workload
{
  public:
    explicit Uncertainty(const Env &env)
        : _env(env), _platformSpec(platformUncertainty()),
          _paths{{"pipeline", sim::MonteCarloAnalyzer(
                                  pipelineUncertainty())},
                 {"platform", sim::MonteCarloAnalyzer(_platformSpec)}}
    {}

    const char *itemName() const override { return "samples"; }

    std::uint64_t items(const Counts &counts) const override
    {
        return counts.mcSamples;
    }

    PassResult pass(exec::ThreadPool &pool, Tracer &tracer) override
    {
        exec::ParallelOptions parallel;
        parallel.pool = &pool;
        PassResult result;
        Digest digest;
        _last.clear();
        for (const auto &path : _paths) {
            sim::UncertaintyResult out;
            {
                const auto span = tracer.span(
                    "sim", std::string("MonteCarloAnalyzer::run ") +
                               path.name);
                const auto start = Clock::now();
                out = path.analyzer.run(_env.samples(), _env.inputSeed,
                                        parallel);
                result.seconds += secondsSince(start);
            }
            ++result.counts.ops;
            result.counts.mcSamples += out.samples;
            result.counts.kernelBlocks += samplerKernelCalls(out.samples);
            digest.add(std::string(path.name));
            digest.add(digestOf(out));
            _last.push_back(std::move(out));
        }
        result.digest = digest.value();
        return result;
    }

    void checkOnce(exec::ThreadPool &pool, const PassResult &reference,
                   Tracer &tracer, Ledger &ledger) override
    {
        ledger.guard("uncertainty: 1-thread pass reproduces the "
                     "N-thread results",
                     [&] {
                         exec::ThreadPool serial(1);
                         return reproduces(pass(serial, tracer),
                                           reference);
                     });
        for (const auto &path : _paths) {
            ledger.guard(std::string("uncertainty/") + path.name +
                             ": run() equals runReference()",
                         [&] {
                             const std::size_t n =
                                 _env.referenceSamples();
                             exec::ParallelOptions parallel;
                             parallel.pool = &pool;
                             exec::ThreadPool serial(1);
                             exec::ParallelOptions one;
                             one.pool = &serial;
                             return digestOf(path.analyzer.run(
                                        n, _env.inputSeed, parallel)) ==
                                    digestOf(path.analyzer.runReference(
                                        n, _env.inputSeed, one));
                         });
        }
    }

    std::string describe() const override
    {
        if (_last.size() < 2)
            return {};
        // Which roof binds the flat-platform path (sums to 1).
        const sim::UncertaintyResult &flat = _last[1];
        const auto &machine = *_platformSpec.platform;
        std::string out = "  flat-platform path binding:";
        char buf[96];
        for (std::size_t i = 0; i < flat.probComputeCeilingBinds.size();
             ++i) {
            if (flat.probComputeCeilingBinds[i] == 0.0)
                continue;
            std::snprintf(buf, sizeof buf, " %s %.3f",
                          machine.computeCeilings()[i].name.c_str(),
                          flat.probComputeCeilingBinds[i]);
            out += buf;
        }
        for (std::size_t i = 0; i < flat.probMemoryCeilingBinds.size();
             ++i) {
            if (flat.probMemoryCeilingBinds[i] == 0.0)
                continue;
            std::snprintf(buf, sizeof buf, " %s %.3f",
                          machine.memoryCeilings()[i].name.c_str(),
                          flat.probMemoryCeilingBinds[i]);
            out += buf;
        }
        return out + "\n";
    }

  private:
    struct Path
    {
        const char *name;
        sim::MonteCarloAnalyzer analyzer;
    };

    Env _env;
    sim::UncertaintySpec _platformSpec;
    std::vector<Path> _paths;
    std::vector<sim::UncertaintyResult> _last;
};

} // namespace

bool
reproduces(const PassResult &pass, const PassResult &reference)
{
    return pass.ok && pass.digest == reference.digest &&
           pass.counts == reference.counts;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-suite", "fault-campaign", "uncertainty"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Env &env)
{
    if (env.workload == "paper-suite")
        return std::make_unique<PaperSuite>(env);
    if (env.workload == "fault-campaign")
        return std::make_unique<FaultCampaignWorkload>(env);
    if (env.workload == "uncertainty")
        return std::make_unique<Uncertainty>(env);
    throw std::invalid_argument("unknown workload '" + env.workload +
                                "'");
}

} // namespace perfbench
