/**
 * @file
 * The study registry: every paper figure/table study is registered
 * under a stable name with metadata, so one runner (and one CLI)
 * can enumerate and execute all of them.
 *
 * A study is a pure function from (parameter overrides, executor
 * options) to a StudyResult: a human-readable summary, named
 * metrics for the JSON artifact, and data series for the CSV/SVG
 * artifacts. The ScenarioRunner in runner.hh turns results into
 * files through the shared plot/report writers.
 */

#ifndef UAVF1_SCENARIO_STUDY_HH
#define UAVF1_SCENARIO_STUDY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel.hh"
#include "plot/series.hh"

namespace uavf1::scenario {

/**
 * Ordered name/value parameter overrides for one study run. Keys
 * are case-insensitive and trimmed, values are kept verbatim;
 * parsing to numbers happens on access so error messages can name
 * the offending parameter.
 */
class StudyParams
{
  public:
    /** Set (or overwrite) one parameter. */
    void set(const std::string &name, const std::string &value);

    /** True when the parameter was set. */
    bool has(const std::string &name) const;

    /** String value, or `fallback` when unset. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /**
     * Finite numeric value, or `fallback` when unset.
     *
     * @throws ModelError when the value does not parse
     */
    double getNumber(const std::string &name, double fallback) const;

    /**
     * Positive integer value, or `fallback` when unset. `max` caps
     * what a study can afford to allocate or loop over.
     *
     * @throws ModelError naming the parameter when the value does
     *         not parse, is < 1, or exceeds min(max, 2^53) (2^53 is
     *         the last integer every double holds)
     */
    std::size_t getCount(const std::string &name, std::size_t fallback,
                         std::size_t max = SIZE_MAX) const;

    /**
     * Non-negative integer value (a seed, say), or `fallback` when
     * unset.
     *
     * @throws ModelError when the value does not parse, is < 0, or
     *         exceeds 2^53
     */
    std::uint64_t getUnsigned(const std::string &name,
                              std::uint64_t fallback) const;

    /** All overrides in insertion order. */
    const std::vector<std::pair<std::string, std::string>> &
    entries() const
    {
        return _entries;
    }

  private:
    /** The value as an integral double in [min, min(max, 2^53)],
     * safe to cast; `expects` names the accepted range. */
    double getInteger(const std::string &name, double min, double max,
                      const char *expects) const;

    std::vector<std::pair<std::string, std::string>> _entries;
};

/**
 * A value the paper quotes for a study metric, and how closely the
 * metric must match it. tests/fidelity_test.cc asserts every one;
 * the JSON artifact never carries it.
 */
struct PaperReference
{
    double value = 0.0;     ///< The paper's number.
    double tolerance = 0.0; ///< Absolute, in the metric's unit.
    /** Where the paper states it; for a gap, the divergence's cause. */
    std::string note;
    /** A known divergence: the metric lies outside the tolerance. */
    bool gap = false;
};

/** One named metric of a study result. */
struct StudyMetric
{
    std::string name;   ///< e.g. "knee_throughput".
    double value = 0.0;
    std::string unit;   ///< e.g. "Hz"; empty for ratios/flags.
    std::optional<PaperReference> paper; ///< Set when the paper quotes it.
};

/** Everything a study run produces. */
struct StudyResult
{
    std::string summary; ///< Multi-line human-readable text.
    std::vector<StudyMetric> metrics; ///< JSON artifact content.
    std::vector<plot::Series> series; ///< CSV/SVG artifact content.
    std::string xLabel = "x"; ///< CSV/SVG x-axis label.
    std::string yLabel = "y"; ///< CSV/SVG y-axis label.
    std::string chartTitle;   ///< Empty: use the study title.
    std::string reportHtml;   ///< Optional self-contained HTML.

    /** Append one metric (fluent helper for study adapters). */
    StudyResult &addMetric(const std::string &name, double value,
                           const std::string &unit = "",
                           std::optional<PaperReference> paper = {});

    /**
     * The value of the metric called `name`.
     *
     * @throws ModelError naming the metric when there is none
     */
    double metric(const std::string &name) const;
};

/** What a study hands to its run function. */
struct StudyContext
{
    StudyParams params;             ///< Validated overrides.
    exec::ParallelOptions parallel; ///< Executor configuration.
};

/** A registered study: metadata plus the run entry point. */
struct StudyInfo
{
    std::string name;        ///< Stable id, e.g. "fig09".
    std::string title;       ///< e.g. "Fig. 9: velocity vs payload".
    std::string description; ///< One-line description for `list`.
    /** Parameter names the study accepts as overrides. */
    std::vector<std::string> params;
    /** Artifact kinds the study emits ("csv", "svg", "json", ...). */
    std::vector<std::string> artifacts;
    /** The study entry point. */
    std::function<StudyResult(const StudyContext &)> run;
};

/**
 * Name-keyed collection of studies, preserving registration order.
 */
class StudyRegistry
{
  public:
    /**
     * Register a study.
     *
     * @throws ModelError on empty/duplicate names or a null run
     */
    void add(StudyInfo info);

    /** True when `name` is registered (case-insensitive). */
    bool contains(const std::string &name) const;

    /**
     * Look up a study by name (case-insensitive).
     *
     * @throws ModelError for unknown names, listing what exists
     */
    const StudyInfo &find(const std::string &name) const;

    /** Registered names in registration order. */
    std::vector<std::string> names() const;

    /** All studies in registration order. */
    const std::vector<StudyInfo> &all() const { return _studies; }

    /**
     * The process-wide registry, populated with every built-in
     * paper figure/table study on first use.
     */
    static StudyRegistry &global();

  private:
    std::vector<StudyInfo> _studies;
};

namespace detail {

/** Registers the built-in studies (builtin_studies.cc lists them;
 * each lives in its own file under scenario/studies/). */
void registerBuiltinStudies(StudyRegistry &registry);

} // namespace detail

} // namespace uavf1::scenario

#endif // UAVF1_SCENARIO_STUDY_HH
