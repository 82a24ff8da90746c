/**
 * @file
 * F1Model implementation.
 */

#include "core/f1_model.hh"

#include <algorithm>
#include <cmath>

#include "support/errors.hh"
#include "support/validate.hh"

namespace uavf1::core {

const char *
toString(BoundType bound)
{
    switch (bound) {
      case BoundType::ComputeBound:
        return "compute-bound";
      case BoundType::SensorBound:
        return "sensor-bound";
      case BoundType::ControlBound:
        return "control-bound";
      case BoundType::PhysicsBound:
        return "physics-bound";
    }
    return "unknown";
}

const char *
toString(DesignVerdict verdict)
{
    switch (verdict) {
      case DesignVerdict::Optimal:
        return "optimal";
      case DesignVerdict::OverOptimized:
        return "over-optimized";
      case DesignVerdict::SubOptimal:
        return "sub-optimal";
    }
    return "unknown";
}

const char *
toString(BottleneckStage stage)
{
    switch (stage) {
      case BottleneckStage::Sensor:
        return "sensor";
      case BottleneckStage::Compute:
        return "compute";
      case BottleneckStage::Control:
        return "control";
    }
    return "unknown";
}

namespace {

/** The checks of F1Inputs beyond SafetyModel's (aMax, sensingRange). */
void
requireValidInputs(const F1Inputs &inputs)
{
    requireInRange(inputs.kneeFraction, 1e-6, 1.0 - 1e-9,
                   "kneeFraction");
    requirePositive(inputs.sensorRate.value(), "sensorRate");
    requirePositive(inputs.computeRate.value(), "computeRate");
    requirePositive(inputs.controlRate.value(), "controlRate");
}

} // namespace

F1Model::F1Model(const F1Inputs &inputs)
    : _inputs(inputs), _safety(inputs.aMax, inputs.sensingRange)
{
    requireValidInputs(inputs);
}

F1Analysis
F1Model::analyze() const
{
    // Inputs were validated at construction; the static hot path
    // re-checks cheap scalar predicates only.
    F1Analysis out;
    analyzeInto(_inputs, out);
    return out;
}

void
F1Model::analyzeInto(const F1Inputs &inputs, F1Analysis &out)
{
    requireValidInputs(inputs);
    const SafetyModel safety(inputs.aMax, inputs.sensingRange);

    // Eq. 3: the action throughput is the slowest of the sensor,
    // compute and control stages; on a tie the earlier stage binds.
    units::Hertz f_min = inputs.sensorRate;
    out.bottleneckStage = BottleneckStage::Sensor;
    if (inputs.computeRate < f_min) {
        f_min = inputs.computeRate;
        out.bottleneckStage = BottleneckStage::Compute;
    }
    if (inputs.controlRate < f_min) {
        f_min = inputs.controlRate;
        out.bottleneckStage = BottleneckStage::Control;
    }

    out.computeBinding = inputs.computeBinding;
    out.actionThroughput = f_min;
    out.safeVelocity = safety.safeVelocityAtRate(out.actionThroughput);
    out.kneeThroughput = safety.kneeThroughput(inputs.kneeFraction);
    out.roofVelocity = safety.physicsRoof();
    out.kneeVelocity = safety.safeVelocityAtRate(out.kneeThroughput);
    out.sensorCeiling = safety.safeVelocityAtRate(inputs.sensorRate);
    out.computeCeiling = safety.safeVelocityAtRate(inputs.computeRate);

    const double f_action = out.actionThroughput.value();
    const double f_knee = out.kneeThroughput.value();

    if (f_action >= f_knee) {
        out.bound = BoundType::PhysicsBound;
        out.overProvisionFactor = f_action / f_knee;
        out.requiredSpeedup = 1.0;
    } else {
        out.requiredSpeedup = f_knee / f_action;
        out.overProvisionFactor = 1.0;
        switch (out.bottleneckStage) {
          case BottleneckStage::Sensor:
            out.bound = BoundType::SensorBound;
            break;
          case BottleneckStage::Control:
            out.bound = BoundType::ControlBound;
            break;
          case BottleneckStage::Compute:
            out.bound = BoundType::ComputeBound;
            break;
        }
    }

    // Verdict: within 5% of the knee counts as balanced (paper
    // Fig. 4b's "optimal design" is exactly at the knee; a tolerance
    // keeps the classification usable on real numbers).
    constexpr double tolerance = 0.05;
    if (f_action >= f_knee * (1.0 - tolerance) &&
        f_action <= f_knee * (1.0 + tolerance)) {
        out.verdict = DesignVerdict::Optimal;
    } else if (f_action > f_knee) {
        out.verdict = DesignVerdict::OverOptimized;
    } else {
        out.verdict = DesignVerdict::SubOptimal;
    }
}

RooflineCurve
F1Model::curve(std::size_t samples, units::Hertz f_min,
               units::Hertz f_max) const
{
    if (samples < 2)
        throw ModelError("roofline curve requires at least 2 samples");

    const F1Analysis analysis = analyze();
    double lo = f_min.value();
    double hi = f_max.value();
    if (lo <= 0.0)
        lo = analysis.kneeThroughput.value() / 100.0;
    if (hi <= 0.0) {
        const double max_stage = std::max(
            {_inputs.sensorRate.value(), _inputs.computeRate.value(),
             _inputs.controlRate.value()});
        hi = std::max(10.0 * max_stage,
                      10.0 * analysis.kneeThroughput.value());
    }
    if (!(lo < hi))
        throw ModelError("roofline curve needs f_min < f_max");

    RooflineCurve curve;
    curve.points.reserve(samples);
    const double log_lo = std::log10(lo);
    const double log_hi = std::log10(hi);
    for (std::size_t i = 0; i < samples; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(samples - 1);
        const units::Hertz f(
            std::pow(10.0, log_lo + frac * (log_hi - log_lo)));
        curve.points.push_back({f, _safety.safeVelocityAtRate(f)});
    }
    curve.knee = {analysis.kneeThroughput, analysis.kneeVelocity};
    curve.operating = {analysis.actionThroughput,
                       analysis.safeVelocity};
    curve.roof = analysis.roofVelocity;
    return curve;
}

} // namespace uavf1::core
