/**
 * @file
 * The Skyline command-line driver: every scenario in the repo from
 * one binary.
 *
 * Subcommands:
 *   skyline_cli list
 *       enumerate every registered fig/table study with its
 *       parameters and artifact kinds
 *   skyline_cli run <study>... [--set knob=value]... [--threads N]
 *               [--out dir] [--label name]
 *       run one or more studies; --set overrides apply to each
 *   skyline_cli run-all [--set knob=value]... [--threads N]
 *               [--out dir]
 *       run every registered study; each --set override applies to
 *       the studies that accept that parameter
 *   skyline_cli interactive
 *       the original REPL (also the default with no arguments):
 *       set/show/analyze/plot/sweep/save/load/report/svg/knobs
 *
 * Artifacts (CSV + SVG + JSON, HTML where a study produces a
 * report) are written under --out (default artifacts/skyline_cli).
 * run and run-all end with the paper-fidelity table: every value the
 * paper quotes next to ours, with its tolerance and status; run-all
 * also writes it to <out>/fidelity.html.
 * Batch execution fans out on the parallel sweep engine and is
 * bit-identical at any thread count.
 *
 * Examples:
 *   skyline_cli list
 *   skyline_cli run fig09 --set sweep_samples=64 --out /tmp/out
 *   skyline_cli run table2 --set compute_runtime=0.9
 *   skyline_cli run roofline --set "platform=Nvidia AGX" \
 *               --set op=half-clock
 *   skyline_cli run-all --threads 8
 *   echo "set compute_runtime 0.9
 *   analyze" | skyline_cli
 */

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "plot/ascii_renderer.hh"
#include "plot/roofline_chart.hh"
#include "plot/svg_writer.hh"
#include "scenario/runner.hh"
#include "skyline/report.hh"
#include "skyline/session.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/table.hh"

using namespace uavf1;

namespace {

void
printDriverHelp()
{
    std::printf(
        "usage: skyline_cli <command> [options]\n"
        "  list                     enumerate registered studies\n"
        "  run <study>...           run the named studies\n"
        "  run-all                  run every registered study\n"
        "  interactive              the knob REPL (default)\n"
        "options for run/run-all:\n"
        "  --set knob=value         study parameter override\n"
        "  --threads N              parallelism for the batch\n"
        "  --out dir                artifact directory\n"
        "                           (default artifacts/skyline_cli;\n"
        "                           empty string disables)\n"
        "  --label name             artifact label (single study)\n"
        "  --deadline-ms N          per-scenario time budget\n"
        "                           (cooperative; 0 disables)\n"
        "  --fail-fast              cancel remaining scenarios\n"
        "                           after the first failure\n");
}

int
runList()
{
    const scenario::StudyRegistry &registry =
        scenario::StudyRegistry::global();
    TextTable table({"Study", "Title", "Parameters", "Artifacts",
                     "Description"});
    for (const auto &study : registry.all()) {
        table.addRow({study.name, study.title,
                      study.params.empty() ? "-"
                                           : join(study.params, ", "),
                      join(study.artifacts, "+"),
                      study.description});
    }
    std::printf("%s%zu studies\n", table.render().c_str(),
                registry.all().size());
    return 0;
}

/** Options shared by run and run-all. */
struct DriverOptions
{
    std::vector<std::string> studies;
    std::vector<std::string> sets;
    std::string outDir = "artifacts/skyline_cli";
    std::string label;
    std::size_t threads = 0;    ///< 0: the global pool.
    std::size_t deadlineMs = 0; ///< 0: no per-scenario deadline.
    bool failFast = false;      ///< Cancel batch on first failure.
};

/**
 * Parse a flag's integer value in [min, max].
 *
 * @throws ModelError naming the flag when the value does not parse,
 *         overflows a long, or lies outside the range
 */
long
parseIntegerFlag(const char *flag, const std::string &text, long min,
                 long max, const char *expects)
{
    errno = 0;
    char *end = nullptr;
    const long parsed = std::strtol(text.c_str(), &end, 10);
    if (errno == ERANGE) {
        throw ModelError(std::string(flag) + " value '" + text +
                         "' is out of range");
    }
    if (end == text.c_str() || *end != '\0' || parsed < min ||
        parsed > max) {
        throw ModelError(std::string(flag) + " expects " + expects +
                         ", got '" + text + "'");
    }
    return parsed;
}

/**
 * Parse run/run-all arguments.
 *
 * @throws ModelError on unknown or incomplete options
 */
DriverOptions
parseDriverOptions(int argc, char **argv, int first)
{
    DriverOptions options;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *name) -> std::string {
            if (i + 1 >= argc) {
                throw ModelError(std::string(name) +
                                 " requires a value");
            }
            return argv[++i];
        };
        if (arg == "--set") {
            options.sets.push_back(value("--set"));
        } else if (arg == "--threads") {
            constexpr std::size_t max = exec::ThreadPool::maxThreads;
            const std::string expects =
                "an integer in [1, " + std::to_string(max) + "]";
            options.threads = static_cast<std::size_t>(
                parseIntegerFlag("--threads", value("--threads"), 1,
                                 static_cast<long>(max),
                                 expects.c_str()));
        } else if (arg == "--deadline-ms") {
            options.deadlineMs =
                static_cast<std::size_t>(parseIntegerFlag(
                    "--deadline-ms", value("--deadline-ms"), 0,
                    LONG_MAX, "a non-negative integer"));
        } else if (arg == "--fail-fast") {
            options.failFast = true;
        } else if (arg == "--out") {
            options.outDir = value("--out");
        } else if (arg == "--label") {
            options.label = value("--label");
        } else if (!arg.empty() && arg[0] == '-') {
            throw ModelError("unknown option '" + arg + "'");
        } else {
            options.studies.push_back(toLower(trim(arg)));
        }
    }
    return options;
}

int
runScenarios(const DriverOptions &options, bool run_all)
{
    const scenario::ScenarioRunner runner;
    const scenario::StudyRegistry &registry = runner.registry();

    // Each --set argument is one assignment, and the reserved spec
    // keys must not hijack the study/label picked on the command
    // line.
    std::vector<Assignment> sets;
    for (const auto &argument : options.sets) {
        const auto parsed = parseAssignments(argument);
        if (parsed.size() != 1) {
            throw ModelError("malformed --set '" + argument +
                             "' (expected one knob=value)");
        }
        if (parsed[0].key == "study" || parsed[0].key == "label") {
            throw ModelError(
                "--set cannot assign '" + parsed[0].key +
                "'; name studies positionally and use --label");
        }
        sets.push_back(parsed[0]);
    }

    // A label names one scenario's artifacts, so it needs exactly one
    // study; with more it would be dropped without a word.
    if (!options.label.empty() &&
        (run_all || options.studies.size() != 1)) {
        throw ModelError("--label names the artifacts of exactly one "
                         "study; run one study to use it");
    }

    std::vector<scenario::ScenarioSpec> specs;
    if (run_all) {
        specs = runner.allSpecs();
        // Apply each override to the studies that accept it; an
        // override no study accepts is a typo, not a no-op.
        for (const auto &assignment : sets) {
            std::size_t applied = 0;
            for (auto &spec : specs) {
                const auto &params =
                    registry.find(spec.study).params;
                if (std::find(params.begin(), params.end(),
                              assignment.key) != params.end()) {
                    spec.apply(assignment);
                    ++applied;
                }
            }
            if (applied == 0) {
                throw ModelError("--set '" + assignment.key + "=" +
                                 assignment.value +
                                 "' matches no study parameter; "
                                 "see 'skyline_cli list'");
            }
        }
    } else {
        if (options.studies.empty()) {
            throw ModelError(
                "run requires at least one study name; see "
                "'skyline_cli list'");
        }
        for (const auto &name : options.studies) {
            scenario::ScenarioSpec spec;
            spec.study = name;
            registry.find(name); // Fail fast on unknown names.
            for (const auto &assignment : sets)
                spec.apply(assignment);
            spec.label = options.label;
            specs.push_back(std::move(spec));
        }
    }

    scenario::RunnerOptions runner_options;
    runner_options.outDir = options.outDir;
    runner_options.deadlineMs = options.deadlineMs;
    runner_options.failFast = options.failFast;
    std::unique_ptr<exec::ThreadPool> pool;
    if (options.threads > 0) {
        pool = std::make_unique<exec::ThreadPool>(options.threads);
        runner_options.parallel.pool = pool.get();
    }

    const auto outcomes = runner.runAll(specs, runner_options);

    std::size_t failed = 0;
    for (const auto &outcome : outcomes) {
        std::printf("=== %s (%s) ===\n", outcome.label.c_str(),
                    outcome.study.c_str());
        if (!outcome.ok) {
            ++failed;
            std::printf("FAILED (%s): %s\n\n",
                        scenario::toString(outcome.status),
                        outcome.error.c_str());
            continue;
        }
        std::printf("%s", outcome.result.summary.c_str());
        for (const auto &path : outcome.artifacts)
            std::printf("  artifact: %s\n", path.c_str());
        std::printf("\n");
    }
    std::printf("%s",
                scenario::ScenarioRunner::renderSummary(outcomes)
                    .c_str());

    const std::string fidelity =
        scenario::ScenarioRunner::renderFidelity(outcomes);
    if (!fidelity.empty())
        std::printf("\n%s", fidelity.c_str());
    if (run_all && !options.outDir.empty() && !fidelity.empty()) {
        const std::string path = options.outDir + "/fidelity.html";
        skyline::ReportWriter::writeFile(
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            "<title>Paper fidelity</title></head><body>\n"
            "<h1>Paper fidelity</h1>\n<pre>" +
                escapeXml(fidelity) + "</pre>\n</body></html>\n",
            path);
        std::printf("  artifact: %s\n", path.c_str());
    }
    return failed == 0 ? 0 : 1;
}

void
printReplHelp()
{
    std::printf(
        "commands: set <knob> <value> | show | analyze | plot | "
        "sweep <knob> <from> <to> [steps] | save [file] | "
        "load <file> | report <file.html> | svg <file.svg> | "
        "knobs | help | quit\n"
        "(batch mode: skyline_cli list / run / run-all)\n");
}

void
printKnobs(const skyline::SkylineSession &session)
{
    const auto &k = session.knobs();
    // f_compute follows the platform roofline bound when the
    // platform knob is set, else 1/compute_runtime; the model is
    // the single source of the effective rate. It can only fail
    // here for an algorithm the platform path does not know.
    std::string f_compute;
    try {
        f_compute = strFormat(
            "%.2f Hz (%s)",
            session.model().inputs().computeRate.value(),
            k.platform.empty() ? "1/compute_runtime"
                               : "platform roofline bound");
    } catch (const std::exception &e) {
        f_compute = std::string("unavailable: ") + e.what();
    }
    std::printf(
        "  sensor_framerate = %.2f Hz\n"
        "  compute_tdp      = %.2f W\n"
        "  algorithm        = %s\n"
        "  compute_runtime  = %.5f s\n"
        "  f_compute        = %s\n"
        "  sensor_range     = %.2f m\n"
        "  drone_weight     = %.0f g\n"
        "  rotor_pull       = %.0f g\n"
        "  payload_weight   = %.0f g\n"
        "  control_rate     = %.0f Hz\n"
        "  knee_fraction    = %.3f\n"
        "  platform         = %s\n"
        "  operating_point  = %s\n"
        "  pipeline         = %s\n",
        k.sensorFramerate.value(), k.computeTdp.value(),
        k.algorithm.c_str(), k.computeRuntime.value(),
        f_compute.c_str(), k.sensorRange.value(),
        k.droneWeight.value(), k.rotorPull.value(),
        k.payloadWeight.value(), k.controlRate.value(),
        k.kneeFraction,
        k.platform.empty() ? "(none: compute_runtime drives "
                             "f_compute)"
                           : k.platform.c_str(),
        k.operatingPoint.empty() ? "nominal"
                                 : k.operatingPoint.c_str(),
        k.pipeline.empty() ? "(algorithm's standard pipeline)"
                           : k.pipeline.c_str());
}

int
runInteractive()
{
    skyline::SkylineSession session;

    std::printf("Skyline interactive tool for the F-1 model "
                "(type 'help')\n");

    std::string line;
    while (std::getline(std::cin, line)) {
        std::istringstream in(line);
        std::string command;
        in >> command;
        if (command.empty())
            continue;
        try {
            if (command == "quit" || command == "exit") {
                break;
            } else if (command == "help") {
                printReplHelp();
            } else if (command == "knobs") {
                std::printf("%s\n",
                            join(skyline::SkylineSession::knobNames(),
                                 ", ")
                                .c_str());
            } else if (command == "show") {
                printKnobs(session);
            } else if (command == "set") {
                std::string knob;
                std::string value;
                in >> knob;
                // The value is the rest of the line, so knobs with
                // spaces in their values ("set platform Nvidia
                // TX2", "set algorithm SPA package delivery") work.
                std::getline(in, value);
                value = trim(value);
                session.set(knob, value);
                std::printf("ok: %s = %s\n", knob.c_str(),
                            value.c_str());
            } else if (command == "analyze") {
                std::printf("%s",
                            session.renderAnalysis().c_str());
            } else if (command == "plot") {
                plot::Chart chart = plot::makeRooflineChart(
                    "Skyline: " + session.knobs().algorithm,
                    {{session.knobs().algorithm,
                      session.model().curve(), true, true}});
                std::printf(
                    "%s",
                    plot::AsciiRenderer().render(chart).c_str());
            } else if (command == "sweep") {
                std::string knob;
                double from = 0.0;
                double to = 0.0;
                int steps = 9;
                in >> knob >> from >> to;
                if (!(in >> steps))
                    steps = 9;
                std::printf("  %-14s %-14s %-12s %-12s\n",
                            knob.c_str(), "v_safe (m/s)",
                            "knee (Hz)", "roof (m/s)");
                for (const auto &point :
                     session.sweep(knob, from, to, steps)) {
                    if (point.feasible) {
                        std::printf(
                            "  %-14.4g %-14.3f %-12.2f %-12.3f\n",
                            point.knobValue, point.safeVelocity,
                            point.kneeThroughput,
                            point.roofVelocity);
                    } else {
                        std::printf("  %-14.4g infeasible\n",
                                    point.knobValue);
                    }
                }
            } else if (command == "save") {
                std::string path;
                in >> path;
                if (path.empty())
                    path = "skyline_session.cfg";
                std::ofstream out(path);
                out << session.saveConfig();
                std::printf("wrote %s\n", path.c_str());
            } else if (command == "load") {
                std::string path;
                in >> path;
                std::ifstream file(path);
                if (!file) {
                    std::printf("error: cannot open '%s'\n",
                                path.c_str());
                    continue;
                }
                std::string text(
                    (std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
                session.loadConfig(text);
                std::printf("loaded %s\n", path.c_str());
            } else if (command == "report") {
                std::string path;
                in >> path;
                if (path.empty())
                    path = "skyline_report.html";
                skyline::ReportWriter::writeHtml(
                    session, "Skyline report", path);
                std::printf("wrote %s\n", path.c_str());
            } else if (command == "svg") {
                std::string path;
                in >> path;
                if (path.empty())
                    path = "skyline_roofline.svg";
                plot::Chart chart = plot::makeRooflineChart(
                    "Skyline: " + session.knobs().algorithm,
                    {{session.knobs().algorithm,
                      session.model().curve(), true, true}});
                plot::SvgWriter().writeFile(chart, path);
                std::printf("wrote %s\n", path.c_str());
            } else {
                std::printf("unknown command '%s' (try 'help')\n",
                            command.c_str());
            }
        } catch (const std::exception &e) {
            std::printf("error: %s\n", e.what());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string command = argc > 1 ? argv[1] : "";
        if (command == "list")
            return runList();
        if (command == "run")
            return runScenarios(
                parseDriverOptions(argc, argv, 2), false);
        if (command == "run-all")
            return runScenarios(
                parseDriverOptions(argc, argv, 2), true);
        if (command == "help" || command == "--help" ||
            command == "-h") {
            printDriverHelp();
            return 0;
        }
        if (command.empty() || command == "interactive")
            return runInteractive();
        std::fprintf(stderr, "unknown command '%s'\n\n",
                     command.c_str());
        printDriverHelp();
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
