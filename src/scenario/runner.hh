/**
 * @file
 * ScenarioRunner: executes registered studies or user scenario
 * specs — singly or as a batch fanned out on the parallel sweep
 * engine — and emits CSV/SVG/JSON (and optional HTML) artifacts
 * through the shared plot/report writers.
 *
 * The batch path honours the PR-1 determinism contract: scenarios
 * are distributed over the pool with thread-count-independent chunk
 * geometry, every scenario writes only its own output slot and its
 * own (pre-assigned, unique) artifact files, and summaries are
 * merged in spec order on the caller. Batch results and artifact
 * bytes are therefore bit-identical at any thread count.
 */

#ifndef UAVF1_SCENARIO_RUNNER_HH
#define UAVF1_SCENARIO_RUNNER_HH

#include <string>
#include <vector>

#include "scenario/spec.hh"
#include "scenario/study.hh"

namespace uavf1::scenario {

/** Runner configuration. */
struct RunnerOptions
{
    /** Artifact directory; empty disables artifact emission. */
    std::string outDir;
    /** Executor options for the scenario fan-out (and studies). */
    exec::ParallelOptions parallel;
    /**
     * Per-scenario time budget in milliseconds; 0 disables it. The
     * deadline is cooperative: each study observes it at the chunk
     * boundaries of its parallel loops, so an overrunning scenario
     * stops at the next checkpoint with ScenarioStatus::Timeout,
     * not mid-write.
     */
    std::size_t deadlineMs = 0;
    /**
     * Batch mode only: after the first failed scenario, cancel the
     * scenarios still queued or running; they report
     * ScenarioStatus::Cancelled. *Which* scenarios get cut off
     * depends on scheduling, so a fail-fast batch is intentionally
     * exempt from the bit-identical-at-any-thread-count contract.
     */
    bool failFast = false;
};

/**
 * Structured outcome classification: why a scenario ended, beyond
 * ok/failed. The runner derives it from the error taxonomy in
 * support/errors.hh rather than by string matching.
 */
enum class ScenarioStatus
{
    Ok,          ///< Completed, artifacts written.
    Infeasible,  ///< InfeasibleError: physically impossible config.
    Timeout,     ///< TimeoutError: per-scenario deadline exceeded.
    Cancelled,   ///< CancelledError: cut off (e.g. fail-fast).
    FaultAborted, ///< FaultInducedAbort: no viable config under fault.
    Error,       ///< Any other failure.
};

/** Printable status ("ok", "infeasible", "timeout", ...). */
const char *toString(ScenarioStatus status);

/** The outcome of one scenario. */
struct ScenarioOutcome
{
    std::string study;  ///< Study name.
    std::string label;  ///< Display/artifact label.
    bool ok = false;    ///< False when the run failed.
    /** Why the scenario ended; Ok exactly when `ok`. */
    ScenarioStatus status = ScenarioStatus::Error;
    std::string error;  ///< Failure reason when !ok.
    StudyResult result; ///< Study outputs when ok.
    std::vector<std::string> artifacts; ///< Paths written.
};

/**
 * Executes scenarios against a study registry.
 */
class ScenarioRunner
{
  public:
    /** Runner over the global registry. */
    ScenarioRunner();

    /** The registry in use. */
    const StudyRegistry &registry() const { return *_registry; }

    /** One default-parameter spec per registered study. */
    std::vector<ScenarioSpec> allSpecs() const;

    /**
     * Run one scenario. Failures inside the study (invalid
     * parameters, infeasible configurations) are captured in the
     * outcome rather than thrown, mirroring how sweeps record
     * per-point infeasibility.
     */
    ScenarioOutcome run(const ScenarioSpec &spec,
                        const RunnerOptions &options = {}) const;

    /**
     * Run a batch of scenarios fanned out on the parallel engine.
     * Outcomes are returned in spec order and are bit-identical at
     * any thread count.
     */
    std::vector<ScenarioOutcome>
    runAll(const std::vector<ScenarioSpec> &specs,
           const RunnerOptions &options = {}) const;

    /** A text table summarizing a batch (deterministic). */
    static std::string
    renderSummary(const std::vector<ScenarioOutcome> &outcomes);

    /**
     * A text table of every paper reference in a batch: study,
     * quantity, paper, ours, delta, tolerance, status and note. The
     * status is "ok" inside the tolerance, "GAP" for a declared gap
     * outside it, and "FAIL" otherwise (a declared gap inside its
     * tolerance fails too: it is closed and must be reclassified).
     * Empty when no outcome carries a reference.
     */
    static std::string
    renderFidelity(const std::vector<ScenarioOutcome> &outcomes);

    /** Filesystem-safe artifact basename for a label. */
    static std::string sanitizeLabel(const std::string &label);

  private:
    ScenarioOutcome runWithBasename(const ScenarioSpec &spec,
                                    const RunnerOptions &options,
                                    const std::string &basename) const;

    const StudyRegistry *_registry;
};

} // namespace uavf1::scenario

#endif // UAVF1_SCENARIO_RUNNER_HH
