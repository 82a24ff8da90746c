/**
 * @file
 * ScenarioRunner implementation.
 */

#include "scenario/runner.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "plot/chart.hh"
#include "plot/csv_writer.hh"
#include "plot/json_writer.hh"
#include "plot/svg_writer.hh"
#include "skyline/report.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace uavf1::scenario {

namespace {

/** The JSON metrics artifact for one outcome. */
std::string
renderJson(const StudyInfo &info, const ScenarioSpec &spec,
           const StudyResult &result)
{
    plot::JsonObject params;
    for (const auto &entry : spec.overrides.entries())
        params.add(entry.first, entry.second);

    plot::JsonArray metrics;
    for (const auto &metric : result.metrics) {
        metrics.add(plot::JsonObject()
                        .add("name", metric.name)
                        .add("value", metric.value)
                        .add("unit", metric.unit)
                        .render());
    }

    return plot::JsonObject()
        .add("study", info.name)
        .add("label", spec.displayLabel())
        .add("title", info.title)
        .addRaw("params", params.render())
        .addRaw("metrics", metrics.render())
        .render();
}

} // namespace

const char *
toString(ScenarioStatus status)
{
    switch (status) {
      case ScenarioStatus::Ok:
        return "ok";
      case ScenarioStatus::Infeasible:
        return "infeasible";
      case ScenarioStatus::Timeout:
        return "timeout";
      case ScenarioStatus::Cancelled:
        return "cancelled";
      case ScenarioStatus::FaultAborted:
        return "fault-aborted";
      case ScenarioStatus::Error:
        return "error";
    }
    return "unknown";
}

ScenarioRunner::ScenarioRunner()
    : _registry(&StudyRegistry::global())
{}

std::vector<ScenarioSpec>
ScenarioRunner::allSpecs() const
{
    std::vector<ScenarioSpec> specs;
    specs.reserve(_registry->all().size());
    for (const auto &study : _registry->all()) {
        ScenarioSpec spec;
        spec.study = study.name;
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::string
ScenarioRunner::sanitizeLabel(const std::string &label)
{
    std::string out;
    for (const char c : toLower(trim(label))) {
        if (std::isalnum(static_cast<unsigned char>(c)) ||
            c == '-' || c == '_') {
            out += c;
        } else {
            out += '_';
        }
    }
    return out.empty() ? std::string("scenario") : out;
}

ScenarioOutcome
ScenarioRunner::runWithBasename(const ScenarioSpec &spec,
                                const RunnerOptions &options,
                                const std::string &basename) const
{
    ScenarioOutcome outcome;
    outcome.study = spec.study;
    outcome.label = spec.displayLabel();

    // One token per scenario: the batch's shared cancel flag plus
    // this scenario's own deadline, threaded into the study through
    // ParallelOptions so every parallel loop inside it observes
    // both at its chunk boundaries.
    exec::CancellationToken token = options.parallel.cancel;
    if (options.deadlineMs > 0) {
        // Clamp before the cast: a size_t above the signed range
        // would turn negative and disable the deadline.
        using std::chrono::milliseconds;
        token = token.withDeadlineAfter(milliseconds(
            std::min<std::size_t>(options.deadlineMs,
                                  milliseconds::max().count())));
    }
    if (token.cancelRequested()) {
        outcome.status = ScenarioStatus::Cancelled;
        outcome.error = "cancelled before start";
        return outcome;
    }

    try {
        const StudyInfo &info = _registry->find(spec.study);
        for (const auto &entry : spec.overrides.entries()) {
            if (std::find(info.params.begin(), info.params.end(),
                          entry.first) == info.params.end()) {
                throw ModelError(
                    "study '" + info.name +
                    "' does not accept parameter '" + entry.first +
                    "'" +
                    (info.params.empty()
                         ? " (it takes no parameters)"
                         : "; parameters: " +
                               join(info.params, ", ")));
            }
        }

        StudyContext context;
        context.params = spec.overrides;
        context.parallel = options.parallel;
        context.parallel.cancel = token;
        outcome.result = info.run(context);
        outcome.ok = true;
        outcome.status = ScenarioStatus::Ok;

        if (!options.outDir.empty()) {
            const std::string base = options.outDir + "/" + basename;
            plot::writeJsonFile(
                renderJson(info, spec, outcome.result),
                base + ".json");
            outcome.artifacts.push_back(base + ".json");
            if (!outcome.result.series.empty()) {
                plot::CsvWriter::writeFile(
                    outcome.result.series, base + ".csv",
                    outcome.result.xLabel, outcome.result.yLabel);
                outcome.artifacts.push_back(base + ".csv");
                plot::Chart chart(
                    outcome.result.chartTitle.empty()
                        ? info.title
                        : outcome.result.chartTitle,
                    plot::Axis(outcome.result.xLabel),
                    plot::Axis(outcome.result.yLabel));
                for (const auto &series : outcome.result.series)
                    chart.add(series);
                plot::SvgWriter().writeFile(chart, base + ".svg");
                outcome.artifacts.push_back(base + ".svg");
            }
            if (!outcome.result.reportHtml.empty()) {
                skyline::ReportWriter::writeFile(
                    outcome.result.reportHtml, base + ".html");
                outcome.artifacts.push_back(base + ".html");
            }
        }
    } catch (const TimeoutError &e) {
        outcome.status = ScenarioStatus::Timeout;
        outcome.error = e.what();
    } catch (const CancelledError &e) {
        outcome.status = ScenarioStatus::Cancelled;
        outcome.error = e.what();
    } catch (const FaultInducedAbort &e) {
        outcome.status = ScenarioStatus::FaultAborted;
        outcome.error = e.what();
    } catch (const InfeasibleError &e) {
        outcome.status = ScenarioStatus::Infeasible;
        outcome.error = e.what();
    } catch (const std::exception &e) {
        outcome.status = ScenarioStatus::Error;
        outcome.error = e.what();
    }
    if (outcome.status != ScenarioStatus::Ok) {
        outcome.ok = false;
        outcome.result = StudyResult();
        // Drop any artifact written before the failure so the
        // output directory never holds partial results of a
        // scenario reported as failed.
        for (const auto &path : outcome.artifacts) {
            std::error_code ec;
            std::filesystem::remove(path, ec);
        }
        outcome.artifacts.clear();
    }
    return outcome;
}

ScenarioOutcome
ScenarioRunner::run(const ScenarioSpec &spec,
                    const RunnerOptions &options) const
{
    if (!options.outDir.empty())
        std::filesystem::create_directories(options.outDir);
    return runWithBasename(spec, options,
                           sanitizeLabel(spec.displayLabel()));
}

std::vector<ScenarioOutcome>
ScenarioRunner::runAll(const std::vector<ScenarioSpec> &specs,
                       const RunnerOptions &options) const
{
    if (!options.outDir.empty())
        std::filesystem::create_directories(options.outDir);

    // Pre-assign unique artifact basenames in spec order so
    // concurrently running scenarios never write the same file and
    // naming is independent of execution order.
    std::vector<std::string> basenames;
    basenames.reserve(specs.size());
    for (const auto &spec : specs) {
        std::string base = sanitizeLabel(spec.displayLabel());
        int suffix = 1;
        while (std::find(basenames.begin(), basenames.end(), base) !=
               basenames.end()) {
            base = sanitizeLabel(spec.displayLabel()) + "_" +
                   std::to_string(++suffix);
        }
        basenames.push_back(std::move(base));
    }

    // Fail-fast shares one cancel flag across the batch's
    // scenarios (not the fan-out loop itself, which must survive
    // to report every outcome): the first failure trips it, and
    // scenarios still queued or running exit Cancelled at their
    // next checkpoint.
    RunnerOptions scenario_options = options;
    if (options.failFast && !scenario_options.parallel.cancel.armed())
        scenario_options.parallel.cancel =
            exec::CancellationToken::create();

    // Fan the batch out on the sweep engine: chunk geometry depends
    // only on the spec count, each index writes only its own
    // outcome slot (and its own files), so results are
    // bit-identical at any thread count (fail-fast excepted; see
    // RunnerOptions::failFast).
    return exec::parallelMap<ScenarioOutcome>(
        specs.size(),
        [&](std::size_t i) {
            ScenarioOutcome outcome = runWithBasename(
                specs[i], scenario_options, basenames[i]);
            if (options.failFast && !outcome.ok)
                scenario_options.parallel.cancel.requestCancel();
            return outcome;
        },
        options.parallel);
}

std::string
ScenarioRunner::renderSummary(
    const std::vector<ScenarioOutcome> &outcomes)
{
    TextTable table({"Scenario", "Study", "Status", "Headline"});
    std::size_t failed = 0;
    for (const auto &outcome : outcomes) {
        std::string headline;
        if (!outcome.ok) {
            ++failed;
            headline = outcome.error;
        } else if (!outcome.result.metrics.empty()) {
            const StudyMetric &m = outcome.result.metrics.front();
            headline = m.name + " = " + trimmedNumber(m.value, 4) +
                       (m.unit.empty() ? "" : " " + m.unit);
        }
        std::string status = "ok";
        if (!outcome.ok) {
            status = "FAILED";
            if (outcome.status != ScenarioStatus::Error)
                status += std::string(" (") +
                          toString(outcome.status) + ")";
        }
        table.addRow({outcome.label, outcome.study,
                      std::move(status), headline});
    }
    std::string out = table.render();
    out += strFormat("%zu scenario(s), %zu failed\n",
                     outcomes.size(), failed);
    return out;
}

std::string
ScenarioRunner::renderFidelity(
    const std::vector<ScenarioOutcome> &outcomes)
{
    TextTable table({"Study", "Quantity", "Paper", "Ours", "Delta",
                     "Tolerance", "Status", "Note"});
    std::size_t ok = 0;
    std::size_t gaps = 0;
    std::size_t failed = 0;
    for (const auto &outcome : outcomes) {
        for (const auto &metric : outcome.result.metrics) {
            if (!metric.paper)
                continue;
            const PaperReference &ref = *metric.paper;
            const double delta = metric.value - ref.value;
            // A gap must lie outside its tolerance, any other
            // reference inside it.
            const bool holds =
                (std::fabs(delta) <= ref.tolerance) != ref.gap;
            ++(!holds ? failed : ref.gap ? gaps : ok);
            const std::string unit =
                metric.unit.empty() ? "" : " " + metric.unit;
            table.addRow({outcome.study, metric.name,
                          trimmedNumber(ref.value, 4) + unit,
                          trimmedNumber(metric.value, 4) + unit,
                          strFormat("%+.4g", delta),
                          trimmedNumber(ref.tolerance, 4),
                          !holds ? "FAIL" : ref.gap ? "GAP" : "ok",
                          ref.note});
        }
    }
    if (table.rowCount() == 0)
        return "";
    return table.render() +
           strFormat("%zu paper reference(s): %zu ok, %zu gap, "
                     "%zu FAIL\n",
                     table.rowCount(), ok, gaps, failed);
}

} // namespace uavf1::scenario
