/**
 * @file
 * SkylineSession implementation.
 */

#include "skyline/session.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>

#include "components/catalog.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/validate.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/stage_eval.hh"
#include "workload/throughput.hh"

namespace uavf1::skyline {

namespace {

/** Parse a strictly numeric, finite knob value. */
double
parseNumber(const std::string &name, const std::string &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || (end && *end != '\0')) {
        throw ModelError("knob '" + name + "' expects a number, got '" +
                         value + "'");
    }
    // strtod parses overflow ("1e999") to +/-inf and accepts
    // "nan"; neither is a usable knob value.
    return requireFinite(parsed, "knob '" + name + "'");
}

/**
 * Require a positive knob value whose reciprocal is finite. The
 * model divides by rates, periods, ranges and masses, and 1/x of a
 * subnormal x overflows to infinity, which turns into a NaN a step
 * later.
 */
void
requireInvertible(double value, const std::string &name)
{
    requirePositive(value, name);
    if (!std::isfinite(1.0 / value)) {
        throw ModelError(strFormat(
            "%s must be at least %g, so that its reciprocal stays "
            "finite; got %g",
            name.c_str(), 1.0 / DBL_MAX, value));
    }
}

/**
 * The catalog's roofline presets and the annotated algorithm
 * registry, built once per process: both are immutable and
 * deterministic, and session paths (analyze, sweep, the dvfs
 * study) would otherwise rebuild the full standard catalog per
 * call. Concurrent readers are safe — construction is the C++11
 * thread-safe static init, lookups are const.
 */
const components::Registry<platform::RooflinePlatform> &
rooflinePresets()
{
    static const components::Registry<platform::RooflinePlatform>
        presets = components::Catalog::standard().rooflines();
    return presets;
}

const components::Registry<workload::AutonomyAlgorithm> &
algorithmCatalog()
{
    static const components::Registry<workload::AutonomyAlgorithm>
        algorithms = workload::annotatedAlgorithms();
    return algorithms;
}

const workload::ThroughputOracle &
standardOracle()
{
    static const workload::ThroughputOracle oracle =
        workload::ThroughputOracle::standard();
    return oracle;
}

/**
 * Validate a string knob against the config grammar: '#' (comment
 * marker) and CR/LF (line structure) cannot survive a
 * saveConfig/loadConfig round-trip, so they are rejected up front.
 */
std::string
grammarSafe(const std::string &knob, const std::string &value)
{
    const std::string trimmed = trim(value);
    if (trimmed.find_first_of("#\n\r") != std::string::npos) {
        throw ModelError(
            knob + " value '" + trimmed +
            "' contains a character reserved by the config "
            "grammar ('#' or a line break)");
    }
    return trimmed;
}

} // namespace

void
SkylineSession::set(const std::string &name, const std::string &value)
{
    const std::string key = toLower(trim(name));
    if (key == "algorithm") {
        _knobs.algorithm = grammarSafe("algorithm", value);
        return;
    }
    if (key == "platform") {
        const std::string platform = grammarSafe("platform", value);
        // Validate eagerly so a typo fails at the knob, with the
        // catalog's "did you mean" treatment, not at model time.
        if (!platform.empty())
            (void)rooflinePresets().byName(platform, "platform");
        _knobs.platform = platform;
        return;
    }
    if (key == "operating_point") {
        // Validated lazily against the platform knob (the two may
        // be set in either order).
        _knobs.operatingPoint = grammarSafe("operating_point", value);
        return;
    }
    if (key == "pipeline") {
        const std::string pipeline = grammarSafe("pipeline", value);
        // Validate eagerly against the pipeline registry, same
        // treatment as the platform knob.
        if (!pipeline.empty())
            (void)workload::standardPipelines().byName(pipeline,
                                                       "pipeline");
        _knobs.pipeline = pipeline;
        return;
    }

    const double number = parseNumber(key, trim(value));
    if (key == "sensor_framerate") {
        requireInvertible(number, key);
        _knobs.sensorFramerate = units::Hertz(number);
    } else if (key == "compute_tdp") {
        requireInvertible(number, key);
        _knobs.computeTdp = units::Watts(number);
    } else if (key == "compute_runtime") {
        requireInvertible(number, key);
        _knobs.computeRuntime = units::Seconds(number);
    } else if (key == "sensor_range") {
        requireInvertible(number, key);
        _knobs.sensorRange = units::Meters(number);
    } else if (key == "drone_weight") {
        requireInvertible(number, key);
        _knobs.droneWeight = units::Grams(number);
    } else if (key == "rotor_pull") {
        requireInvertible(number, key);
        _knobs.rotorPull = units::Grams(number);
    } else if (key == "payload_weight") {
        requireNonNegative(number, key);
        _knobs.payloadWeight = units::Grams(number);
    } else if (key == "control_rate") {
        requireInvertible(number, key);
        _knobs.controlRate = units::Hertz(number);
    } else if (key == "knee_fraction") {
        requireInRange(number, 1e-6, 1.0 - 1e-9, key);
        _knobs.kneeFraction = number;
    } else {
        throw ModelError("unknown knob '" + name + "'; knobs: " +
                         join(knobNames(), ", "));
    }
}

std::vector<std::string>
SkylineSession::knobNames()
{
    return {
        "sensor_framerate", "compute_tdp", "algorithm",
        "compute_runtime", "sensor_range", "drone_weight",
        "rotor_pull", "payload_weight", "control_rate",
        "knee_fraction", "platform", "operating_point",
        "pipeline",
    };
}

std::optional<platform::RooflinePlatform>
SkylineSession::rooflinePlatform() const
{
    if (_knobs.platform.empty()) {
        // Both knobs act on the preset's roofline path, so without a
        // preset they would be ignored without a word.
        const char *dependent =
            !_knobs.operatingPoint.empty() ? "operating_point"
            : !_knobs.pipeline.empty()     ? "pipeline"
                                           : nullptr;
        if (dependent) {
            throw ModelError(std::string("knob '") + dependent +
                             "' needs the 'platform' knob, whose "
                             "roofline path it configures");
        }
        return std::nullopt;
    }
    return rooflinePresets().byName(_knobs.platform);
}

std::optional<workload::SpaPipeline>
SkylineSession::stagePipeline(const std::string &algorithm_name) const
{
    if (!_knobs.pipeline.empty())
        return workload::standardPipelines().byName(_knobs.pipeline);
    return workload::standardPipelineFor(algorithm_name);
}

std::size_t
SkylineSession::operatingPointIndex(
    const platform::RooflinePlatform &machine) const
{
    if (_knobs.operatingPoint.empty())
        return 0;
    return machine.operatingPointIndex(_knobs.operatingPoint);
}

units::Watts
SkylineSession::effectiveTdp() const
{
    // With a platform preset selected, the DVFS operating point
    // carries the TDP (the paper's "trade excess performance for
    // TDP" knob); points without a TDP figure and the legacy path
    // fall back to the compute_tdp knob.
    if (const auto machine = rooflinePlatform()) {
        const auto &point =
            machine->operatingPoints()[operatingPointIndex(*machine)];
        if (point.tdp.value() > 0.0)
            return point.tdp;
    }
    return _knobs.computeTdp;
}

units::Grams
SkylineSession::heatsinkMass() const
{
    return _heatsink.mass(effectiveTdp());
}

units::Grams
SkylineSession::takeoffMass() const
{
    return _knobs.droneWeight + _knobs.payloadWeight + heatsinkMass();
}

units::MetersPerSecondSquared
SkylineSession::aMax() const
{
    const units::Newtons thrust =
        units::gramsForceToNewtons(_knobs.rotorPull);
    return physics::maxAcceleration(
        thrust, units::toKilograms(takeoffMass()),
        _knobs.acceleration);
}

core::F1Model
SkylineSession::model() const
{
    core::F1Inputs inputs;
    inputs.aMax = aMax();
    inputs.sensingRange = _knobs.sensorRange;
    inputs.sensorRate = _knobs.sensorFramerate;
    inputs.computeRate = units::rate(_knobs.computeRuntime);
    inputs.controlRate = _knobs.controlRate;
    inputs.kneeFraction = _knobs.kneeFraction;
    if (const auto machine = rooflinePlatform()) {
        // Platform path: f_compute is derived measured-first on the
        // preset's ceiling family — the oracle's measured number
        // wins at the nominal operating point, the workload-aware
        // roofline bound (with its binding ceiling as provenance)
        // answers everywhere else. SPA algorithms with a standard
        // stage pipeline evaluate per stage, so a stage-gated
        // accelerator preset shortens exactly the stage it
        // accelerates and the bottleneck stage's binding travels
        // into the model.
        const auto &algorithms = algorithmCatalog();
        if (!algorithms.contains(_knobs.algorithm)) {
            throw ModelError(
                "the platform knob needs a catalog algorithm for "
                "the roofline bound; unknown algorithm '" +
                _knobs.algorithm + "' (known: " +
                join(algorithms.names(), ", ") + ")");
        }
        const auto &algorithm = algorithms.byName(_knobs.algorithm);
        const std::size_t op_index = operatingPointIndex(*machine);
        if (const auto pipeline = stagePipeline(algorithm.name())) {
            const workload::StagePipelineEvaluator evaluator(
                *pipeline, *machine);
            const workload::PipelineBound bound =
                evaluator.evaluate({.opIndex = op_index});
            inputs.computeRate = units::Hertz(bound.throughputHz);
            inputs.computeBinding = bound.bottleneckBinding();
        } else {
            const auto estimate = standardOracle().throughput(
                algorithm, *machine, op_index);
            inputs.computeRate = estimate.value;
            inputs.computeBinding = estimate.binding;
        }
    }
    return core::F1Model(inputs);
}

Analysis
SkylineSession::analyze() const
{
    Analysis analysis;
    const core::F1Model f1 = model();
    analysis.f1 = f1.analyze();
    analysis.heatsinkMass = heatsinkMass();
    analysis.takeoffMass = takeoffMass();
    analysis.aMax = aMax();
    analysis.thrustToWeight = physics::thrustToWeight(
        units::gramsForceToNewtons(_knobs.rotorPull),
        units::toKilograms(takeoffMass()));
    if (analysis.f1.computeBinding.attributed) {
        if (const auto machine = rooflinePlatform();
            machine && machine->resolves(analysis.f1.computeBinding)) {
            analysis.bindingCeiling =
                std::string(
                    platform::toString(
                        analysis.f1.computeBinding.kind)) +
                " '" +
                machine->ceilingName(analysis.f1.computeBinding) +
                "'";
        }
    }
    if (const auto machine = rooflinePlatform()) {
        // Per-stage breakdown for algorithms with a standard SPA
        // pipeline — or for the explicitly selected pipeline knob
        // (model() above already validated the algorithm).
        if (const auto pipeline = stagePipeline(_knobs.algorithm)) {
            const workload::StagePipelineEvaluator evaluator(
                *pipeline, *machine);
            const workload::PipelineBound bound = evaluator.evaluate(
                {.opIndex = operatingPointIndex(*machine)});
            for (std::size_t i = 0; i < bound.stageCount; ++i) {
                const workload::StageBound &stage = bound.stages[i];
                StageAnalysis row;
                row.stage = evaluator.stageName(i);
                row.latencyMs = stage.latencySeconds * 1e3;
                row.source = workload::toString(stage.source);
                if (stage.binding.attributed &&
                    machine->resolves(stage.binding)) {
                    row.binding =
                        std::string(
                            platform::toString(stage.binding.kind)) +
                        " '" + machine->ceilingName(stage.binding) +
                        "'";
                }
                row.bottleneck = i == bound.bottleneckIndex;
                analysis.stages.push_back(std::move(row));
            }
        }
    }

    const auto &a = analysis.f1;
    switch (a.bound) {
      case core::BoundType::SensorBound:
        analysis.tips.push_back(strFormat(
            "Sensor-bound: raise the sensor framerate from %.0f Hz "
            "toward the %.1f Hz knee to unlock up to %.2f m/s.",
            _knobs.sensorFramerate.value(), a.kneeThroughput.value(),
            a.roofVelocity.value()));
        break;
      case core::BoundType::ComputeBound:
        analysis.tips.push_back(strFormat(
            "Compute-bound: improve algorithm/compute throughput by "
            "%.2fx (from %.2f Hz to the %.1f Hz knee) to reach the "
            "physics roof of %.2f m/s.",
            a.requiredSpeedup, f1.inputs().computeRate.value(),
            a.kneeThroughput.value(), a.roofVelocity.value()));
        if (!analysis.bindingCeiling.empty()) {
            analysis.tips.push_back(
                "The " + analysis.bindingCeiling +
                " ceiling of " + _knobs.platform +
                " binds the roofline bound: target that ceiling "
                "(vectorize, offload, cache-block) rather than the "
                "platform's headline peak.");
        }
        break;
      case core::BoundType::ControlBound:
        analysis.tips.push_back(strFormat(
            "Control-bound: the flight-controller loop (%.0f Hz) "
            "limits the pipeline; raise it toward %.1f Hz.",
            _knobs.controlRate.value(), a.kneeThroughput.value()));
        break;
      case core::BoundType::PhysicsBound: {
        analysis.tips.push_back(strFormat(
            "Physics-bound: body dynamics cap the velocity at "
            "%.2f m/s; faster compute/sensing buys nothing.",
            a.roofVelocity.value()));
        if (a.overProvisionFactor > 1.2 && _knobs.platform.empty()) {
            // Quantify the TDP-reduction opportunity the paper's
            // AGX-30W -> AGX-15W what-if demonstrates. Use the raw
            // F-1 model of the what-if session (analyze() here
            // would recurse into this very tip).
            SkylineSession what_if = *this;
            what_if._knobs.computeTdp = _knobs.computeTdp / 2.0;
            const double gained =
                what_if.model().analyze().roofVelocity.value() /
                a.roofVelocity.value();
            analysis.tips.push_back(strFormat(
                "Compute is over-provisioned by %.2fx: trading "
                "excess throughput for half the TDP would shed "
                "%.0f g of heat sink and raise the roof by %.0f%%.",
                a.overProvisionFactor,
                heatsinkMass().value() -
                    what_if.heatsinkMass().value(),
                (gained - 1.0) * 100.0));
        } else if (a.overProvisionFactor > 1.2) {
            // On the platform path the TDP follows the DVFS
            // operating point, so the what-if is "drop a point":
            // the dvfs study sweeps the whole curve.
            const auto machine = rooflinePlatform();
            const std::size_t op = operatingPointIndex(*machine);
            if (op + 1 < machine->operatingPoints().size()) {
                SkylineSession what_if = *this;
                what_if._knobs.operatingPoint =
                    machine->operatingPoints()[op + 1].name;
                const double gained =
                    what_if.model().analyze().roofVelocity.value() /
                    a.roofVelocity.value();
                analysis.tips.push_back(strFormat(
                    "Compute is over-provisioned by %.2fx: dropping "
                    "to operating point '%s' would shed %.0f g of "
                    "heat sink and raise the roof by %.0f%% (see "
                    "the dvfs study for the full v_safe-vs-TDP "
                    "curve).",
                    a.overProvisionFactor,
                    what_if._knobs.operatingPoint.c_str(),
                    heatsinkMass().value() -
                        what_if.heatsinkMass().value(),
                    (gained - 1.0) * 100.0));
            }
        }
        break;
      }
    }
    if (a.verdict == core::DesignVerdict::Optimal) {
        analysis.tips.push_back(
            "Balanced design: action throughput sits at the knee.");
    }
    return analysis;
}

std::string
SkylineSession::saveConfig() const
{
    std::string out = "# Skyline session configuration\n";
    out += strFormat("sensor_framerate = %.12g\n",
                     _knobs.sensorFramerate.value());
    out += strFormat("compute_tdp = %.12g\n",
                     _knobs.computeTdp.value());
    out += "algorithm = " + _knobs.algorithm + "\n";
    out += strFormat("compute_runtime = %.12g\n",
                     _knobs.computeRuntime.value());
    out += strFormat("sensor_range = %.12g\n",
                     _knobs.sensorRange.value());
    out += strFormat("drone_weight = %.12g\n",
                     _knobs.droneWeight.value());
    out += strFormat("rotor_pull = %.12g\n",
                     _knobs.rotorPull.value());
    out += strFormat("payload_weight = %.12g\n",
                     _knobs.payloadWeight.value());
    out += strFormat("control_rate = %.12g\n",
                     _knobs.controlRate.value());
    out += strFormat("knee_fraction = %.12g\n",
                     _knobs.kneeFraction);
    // Emitted only when set, so legacy sessions keep their exact
    // config bytes.
    if (!_knobs.platform.empty())
        out += "platform = " + _knobs.platform + "\n";
    if (!_knobs.operatingPoint.empty())
        out += "operating_point = " + _knobs.operatingPoint + "\n";
    if (!_knobs.pipeline.empty())
        out += "pipeline = " + _knobs.pipeline + "\n";
    return out;
}

void
SkylineSession::loadConfig(const std::string &text)
{
    for (const auto &[key, value] : parseAssignments(text))
        set(key, value);
}

std::vector<SweepPoint>
SkylineSession::sweep(const std::string &knob, double from,
                      double to, int steps) const
{
    if (steps < 2)
        throw ModelError("sweep requires at least 2 steps");
    const std::string key = toLower(trim(knob));
    if (key == "algorithm" || key == "platform" ||
        key == "operating_point" || key == "pipeline") {
        throw ModelError("cannot sweep the non-numeric knob '" +
                         key + "'");
    }
    // Validate the knob name once up front so an unknown knob still
    // fails loudly instead of yielding an all-infeasible sweep.
    const auto names = knobNames();
    if (std::find(names.begin(), names.end(), key) == names.end())
        throw ModelError("unknown knob '" + knob + "'; knobs: " +
                         join(names, ", "));

    std::vector<SweepPoint> points;
    points.reserve(static_cast<std::size_t>(steps));
    for (int i = 0; i < steps; ++i) {
        const double value =
            from + (to - from) * static_cast<double>(i) /
                       static_cast<double>(steps - 1);
        SkylineSession variant = *this;
        SweepPoint point;
        point.knobValue = value;
        try {
            // Both a value the knob's validator rejects (e.g.
            // drone_weight 0, knee_fraction 1.0) and a build that
            // cannot hover are per-point conditions: mark the point
            // infeasible instead of aborting the whole sweep.
            variant.set(key, strFormat("%.12g", value));
            const core::F1Analysis a = variant.model().analyze();
            point.safeVelocity = a.safeVelocity.value();
            point.kneeThroughput = a.kneeThroughput.value();
            point.roofVelocity = a.roofVelocity.value();
            point.binding = a.computeBinding;
        } catch (const ModelError &) {
            point.feasible = false;
        }
        points.push_back(point);
    }
    return points;
}

std::string
SkylineSession::renderAnalysis() const
{
    const Analysis analysis = analyze();
    const auto &a = analysis.f1;
    std::string out;
    out += strFormat("Skyline analysis (algorithm: %s)\n",
                     _knobs.algorithm.c_str());
    out += strFormat(
        "  takeoff mass %.0f g (heatsink %.1f g), T/W %.2f, "
        "a_max %.2f m/s^2\n",
        analysis.takeoffMass.value(), analysis.heatsinkMass.value(),
        analysis.thrustToWeight, analysis.aMax.value());
    if (!_knobs.platform.empty()) {
        out += strFormat(
            "  platform %s @ %s%s%s\n", _knobs.platform.c_str(),
            _knobs.operatingPoint.empty()
                ? "nominal"
                : _knobs.operatingPoint.c_str(),
            analysis.bindingCeiling.empty() ? ""
                                            : ", binding ceiling ",
            analysis.bindingCeiling.c_str());
        for (const auto &row : analysis.stages) {
            out += strFormat(
                "    stage %s: %.1f ms (%s%s%s)%s\n",
                row.stage.c_str(), row.latencyMs, row.source.c_str(),
                row.binding.empty() ? "" : ", binding ",
                row.binding.c_str(),
                row.bottleneck ? " <- bottleneck" : "");
        }
    }
    out += strFormat(
        "  f_action %.2f Hz (bottleneck: %s), knee %.2f Hz\n",
        a.actionThroughput.value(),
        core::toString(a.bottleneckStage),
        a.kneeThroughput.value());
    out += strFormat(
        "  safe velocity %.2f m/s of %.2f m/s roof -> %s (%s)\n",
        a.safeVelocity.value(), a.roofVelocity.value(),
        core::toString(a.bound), core::toString(a.verdict));
    for (const auto &tip : analysis.tips)
        out += "  tip: " + tip + "\n";
    return out;
}

} // namespace uavf1::skyline
