/**
 * @file
 * uavf1_perfbench: the layered benchmark of the F-1 analyzer.
 *
 *   uavf1_perfbench --workload <paper-suite|fault-campaign|uncertainty>
 *                   --seed <n> --seconds <s> --trace <0|1>
 *                   [--scale full|tiny] [--work-dir <dir>]
 *
 * Every run sets up several times (thread pool, the workload's kept
 * state and one warm-up pass; the median is setup_s), then measures.
 * An untraced run (--trace 0) loops passes of the workload for
 * --seconds and reports the end-to-end metrics. A traced run
 * (--trace 1) measures the tracing overhead on the workload's own
 * passes, then probes every layer and reports the per-layer metrics,
 * writing its spans as a Chrome trace plus a self-time table. Both
 * check the outputs; the last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "exec/thread_pool.hh"
#include "layers.hh"
#include "support/rng.hh"
#include "trace.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "uavf1_perfbench: %s\n"
                 "usage: uavf1_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale full|tiny] "
                 "[--work-dir <dir>]\n"
                 "workloads: paper-suite fault-campaign uncertainty\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0')
        usage("bad value for " + flag + ": '" + text + "'");
    return value;
}

Env
parseArgs(int argc, char **argv)
{
    Env env;
    env.workDir = ".bench_build/work";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            env.workload = value;
        } else if (flag == "--seed") {
            env.seed = parseCount(flag, value);
        } else if (flag == "--seconds") {
            env.seconds = static_cast<double>(parseCount(flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            env.trace = value == "1";
        } else if (flag == "--scale") {
            if (value != "full" && value != "tiny")
                usage("--scale takes full or tiny");
            env.tiny = value == "tiny";
        } else if (flag == "--work-dir") {
            env.workDir = value;
        } else {
            usage("unknown argument " + flag);
        }
    }
    if (env.workload.empty())
        usage("--workload is required");
    bool known = false;
    for (const auto &name : workloadNames())
        known = known || name == env.workload;
    if (!known)
        usage("unknown workload '" + env.workload + "'");
    // Library seeds stay below 2^31: the faults study parses its seed
    // parameter as a number.
    uavf1::Rng mix(env.seed ^ 0x5eedf00d5eedf00dull);
    env.inputSeed = mix.nextU64() % 2147483647u + 1;
    env.threads = uavf1::exec::ThreadPool::defaultThreadCount();
    return env;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** The run's state once set up: pool, workload, reference pass. */
struct Setup
{
    std::unique_ptr<uavf1::exec::ThreadPool> pool;
    std::unique_ptr<Workload> workload;
    PassResult reference;
    double seconds = 0.0; ///< Median set-up time.
};

/**
 * Set up kSetups times; the first measurement starts at process
 * entry (static registries, first-touch allocation), later ones at
 * construction. Each ends with the library calls of one warm-up pass
 * (its output check is not timed), which must reproduce the first.
 */
Setup
setUp(const Env &env, Clock::time_point entry, Tracer &tracer,
      Ledger &ledger)
{
    Setup setup;
    std::vector<double> times;
    for (int k = 0; k < kSetups; ++k) {
        setup.workload.reset();
        setup.pool.reset();
        const auto start = k == 0 ? entry : Clock::now();
        setup.pool =
            std::make_unique<uavf1::exec::ThreadPool>(env.threads);
        setup.workload = makeWorkload(env);
        const double built = secondsSince(start);
        PassResult warm = setup.workload->pass(*setup.pool, tracer);
        times.push_back(built + warm.seconds);
        if (k == 0) {
            ledger.record(warm.ok, env.workload + ": warm-up pass: " +
                                       (warm.ok ? "ok" : warm.error));
            setup.reference = warm;
        } else {
            ledger.record(reproduces(warm, setup.reference),
                          env.workload +
                              ": warm-up pass reproduces the first");
        }
    }
    setup.seconds = median(times);
    std::printf("set-ups (s):");
    for (const double t : times)
        std::printf(" %.4f", t);
    std::printf("\n");
    return setup;
}

/** Untraced run: closed-loop passes for env.seconds. */
void
measureEndToEnd(const Env &env, Setup &setup, Tracer &tracer,
                Ledger &ledger, Metrics &metrics)
{
    std::vector<double> times;
    const auto start = Clock::now();
    while (times.empty() || secondsSince(start) < env.seconds) {
        const PassResult pass = setup.workload->pass(*setup.pool, tracer);
        ledger.record(reproduces(pass, setup.reference),
                      env.workload + ": pass reproduces the reference" +
                          (pass.ok ? "" : ": " + pass.error));
        times.push_back(pass.seconds);
    }
    setup.workload->checkOnce(*setup.pool, setup.reference, tracer,
                              ledger);

    // Every pass does the same work (checked above). Pass times can
    // be bimodal (paper-suite's are), and then the median jumps
    // between the modes as their weights shift from run to run; the
    // mean over the whole run moves smoothly.
    const double items = static_cast<double>(
        setup.workload->items(setup.reference.counts));
    double busy = 0.0;
    for (const double t : times)
        busy += t;
    const double mean = busy / static_cast<double>(times.size());
    metrics.set("pass_s", mean, "s");
    metrics.set("items_per_s", items / mean, "1/s");
    metrics.set("setup_s", setup.seconds, "s");
    metrics.set("peak_rss_mb", peakRssMb(), "MB");

    std::sort(times.begin(), times.end());
    std::printf("%s: %zu passes at %zu threads, %s per pass %llu; "
                "pass mean %.4f s, min %.4f s, median %.4f s, "
                "p90 %.4f s, max %.4f s\n",
                env.workload.c_str(), times.size(), env.threads,
                setup.workload->itemName(),
                static_cast<unsigned long long>(
                    setup.workload->items(setup.reference.counts)),
                mean, times.front(), median(times),
                times[times.size() * 9 / 10], times.back());
    std::fputs(setup.workload->describe().c_str(), stdout);
}

/** Traced run: tracing overhead on the workload's passes, then every
 * layer probe, with spans written out at the end. */
void
measureTraced(const Env &env, Setup &setup, Tracer &tracer,
              Ledger &ledger, Metrics &metrics)
{
    std::vector<double> plain, traced;
    const auto start = Clock::now();
    while (plain.size() < 3 || secondsSince(start) < env.seconds / 2) {
        tracer.setEnabled(false);
        const PassResult a = setup.workload->pass(*setup.pool, tracer);
        tracer.setEnabled(true);
        PassResult b;
        {
            const auto op = tracer.op("pass " + env.workload);
            b = setup.workload->pass(*setup.pool, tracer);
        }
        ledger.record(reproduces(a, setup.reference) &&
                          reproduces(b, setup.reference),
                      env.workload + ": traced and untraced passes "
                                     "reproduce the reference");
        plain.push_back(a.seconds);
        traced.push_back(b.seconds);
    }
    {
        const auto op = tracer.op("output checks");
        setup.workload->checkOnce(*setup.pool, setup.reference, tracer,
                                  ledger);
    }
    measureLayers(env, *setup.pool, tracer, metrics, ledger);

    const Counts &c = setup.reference.counts;
    metrics.set("count.ops", static_cast<double>(c.ops), "count");
    metrics.set("count.studies", static_cast<double>(c.studies),
                "count");
    metrics.set("count.missions", static_cast<double>(c.missions),
                "count");
    metrics.set("count.mc_samples", static_cast<double>(c.mcSamples),
                "count");
    metrics.set("count.kernel_blocks",
                static_cast<double>(c.kernelBlocks), "count");
    metrics.set("trace.overhead_frac",
                median(traced) / median(plain) - 1.0, "fraction");

    const std::string base = env.workDir + "/trace/" + env.workload +
                             "-seed" + std::to_string(env.seed);
    const std::string table = tracer.selfTimeTable();
    ledger.guard("write " + base + ".trace.json and .selftime.txt", [&] {
        std::filesystem::create_directories(env.workDir + "/trace");
        tracer.writeChromeTrace(base + ".trace.json");
        std::ofstream out(base + ".selftime.txt");
        out << table;
        out.flush();
        return static_cast<bool>(out);
    });
    std::printf("traced run: %zu spans -> %s.trace.json\n%s",
                tracer.size(), base.c_str(), table.c_str());
}

void
printResult(const Env &env, const Ledger &ledger, const Metrics &metrics)
{
    std::printf("%-44s %20s  %s\n", "metric", "value", "unit");
    for (const auto &m : metrics.entries())
        std::printf("%-44s %20.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const double error_rate = static_cast<double>(ledger.failed()) /
                              static_cast<double>(ledger.attempted());
    std::printf("%-44s %20.6g  %s\n", "error_rate", error_rate,
                "fraction");
    // The workload-specific name of the headline metric.
    for (const auto &m : metrics.entries()) {
        const char *alias =
            env.workload == "paper-suite" && m.name == "pass_s"
                ? "suite_pass_s"
            : env.workload == "fault-campaign" && m.name == "items_per_s"
                ? "campaign_missions_per_s"
            : env.workload == "uncertainty" && m.name == "items_per_s"
                ? "mc_samples_per_s"
                : nullptr;
        if (alias)
            std::printf("%-44s %20.6g  %s\n", alias, m.value,
                        m.unit.c_str());
    }

    std::string json = "{\"correct\": ";
    json += ledger.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ledger.attempted());
    json += ", \"failed\": " + std::to_string(ledger.failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &m : metrics.entries()) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (first ? "\"" : ", \"") + m.name +
                "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
                "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const auto entry = Clock::now();
    const Env env = parseArgs(argc, argv);
    try {
        std::filesystem::create_directories(env.workDir);
        Tracer tracer(false);
        Ledger ledger;
        Metrics metrics;
        Setup setup = setUp(env, entry, tracer, ledger);
        if (env.trace)
            measureTraced(env, setup, tracer, ledger, metrics);
        else
            measureEndToEnd(env, setup, tracer, ledger, metrics);
        bool finite = true;
        for (const auto &m : metrics.entries())
            finite = finite && std::isfinite(m.value);
        ledger.record(finite, "every metric is finite");
        printResult(env, ledger, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uavf1_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
