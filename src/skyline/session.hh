/**
 * @file
 * Skyline analysis session (paper Section V).
 *
 * The session is the programmatic equivalent of the web tool: set
 * knobs (interactively or by name/value strings from the CLI),
 * derive the F-1 model, and obtain the automatic analysis — knee
 * point, achievable safe velocity, limiting bound and optimization
 * tips.
 */

#ifndef UAVF1_SKYLINE_SESSION_HH
#define UAVF1_SKYLINE_SESSION_HH

#include <optional>
#include <string>
#include <vector>

#include "core/f1_model.hh"
#include "platform/roofline_platform.hh"
#include "skyline/knobs.hh"
#include "thermal/heatsink.hh"
#include "workload/spa_pipeline.hh"

namespace uavf1::skyline {

/** One sample of a knob sweep (exploratory studies, Section V). */
struct SweepPoint
{
    double knobValue = 0.0;     ///< The swept knob's value.
    double safeVelocity = 0.0;  ///< m/s.
    double kneeThroughput = 0.0; ///< Hz.
    double roofVelocity = 0.0;  ///< m/s.
    bool feasible = true;       ///< False if the build cannot hover.
    /** Binding machine ceiling of f_compute at this point;
     * unattributed unless the platform knob routed the rate through
     * a roofline bound. */
    platform::CeilingRef binding{};
};

/** One stage row of the platform path's SPA pipeline breakdown. */
struct StageAnalysis
{
    std::string stage;      ///< Stage name, e.g. "SLAM".
    double latencyMs = 0.0; ///< Evaluated per-decision latency.
    /** Latency provenance: measured / measured-scaled /
     * roofline-bound. */
    std::string source;
    /** "<kind> '<name>'" of the stage's binding ceiling; empty for
     * measurement-sourced stages. */
    std::string binding;
    bool bottleneck = false; ///< True for the slowest stage.
};

/** The automatic-analysis output (paper Section V-D). */
struct Analysis
{
    core::F1Analysis f1;           ///< Raw model analysis.
    units::Grams heatsinkMass;     ///< Derived from the TDP knob.
    units::Grams takeoffMass;      ///< drone + payload + heatsink.
    double thrustToWeight = 0.0;   ///< At takeoff mass.
    units::MetersPerSecondSquared aMax; ///< Derived acceleration.
    std::vector<std::string> tips; ///< Optimization guidance.
    /** "<kind> '<name>'" of the binding machine ceiling; empty when
     * f_compute did not come from a roofline bound. */
    std::string bindingCeiling;
    /** Per-stage breakdown; non-empty only when the platform knob
     * is set and the algorithm has a standard SPA stage pipeline. */
    std::vector<StageAnalysis> stages;
};

/**
 * A mutable Skyline session.
 */
class SkylineSession
{
  public:
    /** Session with default knobs. */
    SkylineSession() = default;

    /** Session starting from explicit knobs. */
    explicit SkylineSession(const Knobs &knobs) : _knobs(knobs) {}

    /** Current knob values. */
    const Knobs &knobs() const { return _knobs; }

    /** Mutable knob access. */
    Knobs &knobs() { return _knobs; }

    /**
     * Set a knob from CLI-style name/value strings. Knob names
     * (case-insensitive): sensor_framerate, compute_tdp, algorithm,
     * compute_runtime, sensor_range, drone_weight, rotor_pull,
     * payload_weight, control_rate, knee_fraction, platform,
     * operating_point, pipeline. A positive numeric knob must also
     * be large enough that its reciprocal stays finite.
     *
     * The `platform` knob routes the session through a roofline
     * platform preset: it is validated eagerly against the catalog
     * (unknown names get "did you mean" suggestions) and derives
     * f_compute with measured-throughput-first semantics — the
     * oracle's measured number wins at the nominal operating point,
     * the workload-aware roofline bound (with binding-ceiling
     * attribution) answers everywhere else; SPA algorithms with a
     * standard stage pipeline evaluate per stage, so the analysis
     * carries a stage-by-stage latency/binding breakdown. The TDP
     * knob then follows the `operating_point`. An empty value
     * returns to the legacy compute_runtime path.
     *
     * The `pipeline` knob selects a named SPA stage pipeline from
     * workload::standardPipelines() (validated eagerly, with "did
     * you mean" suggestions), overriding the algorithm's standard
     * pipeline mapping on the platform path. An empty value returns
     * to the algorithm mapping.
     *
     * @throws ModelError for unknown names or unparsable values
     */
    void set(const std::string &name, const std::string &value);

    /** All settable knob names (for CLI help). */
    static std::vector<std::string> knobNames();

    /** Heat-sink mass implied by the TDP knob. */
    units::Grams heatsinkMass() const;

    /** Takeoff mass: drone + payload + heat sink. */
    units::Grams takeoffMass() const;

    /** a_max from the rotor-pull and weight knobs. */
    units::MetersPerSecondSquared aMax() const;

    /** Build the F-1 model for the current knobs. */
    core::F1Model model() const;

    /** Run the automatic analysis. */
    Analysis analyze() const;

    /** Multi-line analysis text (the tool's guidance pane). */
    std::string renderAnalysis() const;

    /**
     * Serialize the knob state to a "knob = value" text block
     * (one knob per line, '#' comments allowed on load).
     */
    std::string saveConfig() const;

    /**
     * Apply a saved configuration (as produced by saveConfig()).
     * Unknown knobs or unparsable values raise ModelError; knobs
     * absent from the text keep their current values.
     */
    void loadConfig(const std::string &text);

    /**
     * Sweep one numeric knob across a range and collect the
     * resulting model outputs — the programmatic version of
     * dragging a slider in the web tool.
     *
     * Points whose value fails the knob's own validation (e.g. a
     * zero drone_weight) or produces a build that cannot hover are
     * reported with `feasible = false` instead of aborting the
     * sweep.
     *
     * @param knob knob name (any numeric knob from knobNames())
     * @param from first value (inclusive)
     * @param to last value (inclusive); may be below `from`
     * @param steps number of samples (>= 2)
     * @throws ModelError for unknown/non-numeric knobs or steps < 2
     */
    std::vector<SweepPoint> sweep(const std::string &knob,
                                  double from, double to,
                                  int steps) const;

    /** The heat-sink model in use. */
    const thermal::HeatsinkModel &heatsinkModel() const
    {
        return _heatsink;
    }

    /**
     * The roofline platform preset selected by the platform knob
     * (with its operating-point set), or nothing when the knob is
     * empty. Every path that resolves the operating point comes
     * through here, whichever order the two knobs were set in.
     *
     * @throws ModelError for an unknown preset or operating point,
     *         or an operating point or pipeline without a platform
     */
    std::optional<platform::RooflinePlatform>
    rooflinePlatform() const;

    /**
     * TDP the heat-sink sizing uses: the selected operating point's
     * TDP when the platform knob is set (and the point carries
     * one), else the compute_tdp knob.
     */
    units::Watts effectiveTdp() const;

  private:
    /** Selected operating-point index on `machine`. */
    std::size_t
    operatingPointIndex(const platform::RooflinePlatform &machine)
        const;

    /**
     * The SPA stage pipeline the platform path should evaluate: the
     * `pipeline` knob's registry entry when set, else the standard
     * pipeline mapped from the algorithm name (nothing for
     * algorithms without one).
     */
    std::optional<workload::SpaPipeline>
    stagePipeline(const std::string &algorithm_name) const;

    Knobs _knobs;
    thermal::HeatsinkModel _heatsink;
};

} // namespace uavf1::skyline

#endif // UAVF1_SKYLINE_SESSION_HH
