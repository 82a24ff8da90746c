/**
 * @file
 * UavConfig and Builder implementation.
 */

#include "core/uav_config.hh"

#include "control/flight_controller.hh"
#include "support/errors.hh"
#include "support/strings.hh"
#include "support/validate.hh"

namespace uavf1::core {

namespace {

/** The flight controller every configuration flies. */
const control::FlightController &
flightController()
{
    static const control::FlightController controller =
        control::FlightController::typical1kHz();
    return controller;
}

} // namespace

units::Newtons
UavConfig::totalThrust() const
{
    return units::Newtons(
        _airframe.propulsion().totalThrust().value() * _thrustDerate);
}

double
UavConfig::thrustToWeight() const
{
    return physics::thrustToWeight(totalThrust(), _mass.totalKg());
}

units::MetersPerSecondSquared
UavConfig::maxAcceleration() const
{
    return physics::maxAcceleration(totalThrust(), _mass.totalKg(),
                                    _accelOptions);
}

units::Watts
UavConfig::computePower() const
{
    return _redundancy.power(*_compute);
}

F1Inputs
UavConfig::f1Inputs() const
{
    F1Inputs inputs;
    inputs.aMax = maxAcceleration();
    inputs.sensingRange = _sensor.range();
    inputs.sensorRate = _sensor.framerate();
    inputs.computeRate = _computeRate;
    inputs.controlRate = flightController().loopRate();
    inputs.computeBinding = _computeBinding;
    return inputs;
}

F1Model
UavConfig::f1Model() const
{
    return F1Model(f1Inputs());
}

std::string
UavConfig::describe() const
{
    std::string out;
    out += strFormat("UAV configuration: %s\n", _name.c_str());
    out += strFormat("  airframe: %s (%s, %.0f mm)\n",
                     _airframe.name().c_str(),
                     components::toString(_airframe.sizeClass()),
                     _airframe.frameSizeMm());
    out += strFormat("  sensor: %s (%.0f FPS, %.1f m range)\n",
                     _sensor.name().c_str(),
                     _sensor.framerate().value(),
                     _sensor.range().value());
    out += strFormat(
        "  compute: %s x%d (TDP %.2f W, module %.0f g, "
        "heatsink %.0f g)\n",
        _compute->name().c_str(), _redundancy.replicas(),
        _compute->tdp().value(), _compute->moduleMass().value(),
        _compute->heatsinkMass(heatsinkModel()).value());
    out += strFormat("  algorithm: %s (%s)\n",
                     _algorithm->name().c_str(),
                     workload::toString(_algorithm->paradigm()));
    std::string provenance = workload::toString(_computeRateSource);
    // A CeilingRef is only resolvable against the family that
    // produced it; the ref's family tag makes a mismatch (e.g. on a
    // hand-assembled config) detectable, and a report must not
    // throw, so ask the family instead of resolving blindly.
    const platform::RooflinePlatform &family = _compute->roofline();
    if (_computeBinding.attributed && family.resolves(_computeBinding)) {
        provenance +=
            ", " +
            std::string(platform::toString(_computeBinding.kind)) +
            " ceiling '" + family.ceilingName(_computeBinding) + "'";
    }
    out += strFormat("  f_compute: %.2f Hz (%s)\n",
                     _computeRate.value(), provenance.c_str());
    out += strFormat("  takeoff mass: %.0f g, thrust %.2f N, T/W %.2f\n",
                     takeoffMass().value(), totalThrust().value(),
                     thrustToWeight());
    out += strFormat("  a_max: %.2f m/s^2\n", maxAcceleration().value());
    return out;
}

UavConfig::Builder::Builder(std::string name) : _name(std::move(name))
{
    if (_name.empty())
        throw ModelError("UAV configuration requires a name");
}

UavConfig::Builder &
UavConfig::Builder::airframe(components::Airframe airframe)
{
    _airframe = std::move(airframe);
    return *this;
}

UavConfig::Builder &
UavConfig::Builder::sensor(components::Sensor sensor)
{
    _sensor = std::move(sensor);
    return *this;
}

UavConfig::Builder &
UavConfig::Builder::compute(components::ComputePlatform platform)
{
    _compute = std::move(platform);
    return *this;
}

UavConfig::Builder &
UavConfig::Builder::algorithm(workload::AutonomyAlgorithm algorithm)
{
    _algorithm = std::move(algorithm);
    return *this;
}

UavConfig::Builder &
UavConfig::Builder::throughputOracle(workload::ThroughputOracle oracle)
{
    _oracle = std::move(oracle);
    return *this;
}

UavConfig::Builder &
UavConfig::Builder::redundancy(pipeline::ModularRedundancy redundancy)
{
    _redundancy = redundancy;
    return *this;
}

UavConfig::Builder &
UavConfig::Builder::accelerationOptions(
    physics::AccelerationOptions options)
{
    _accelOptions = options;
    return *this;
}

UavConfig::Builder &
UavConfig::Builder::thrustDerate(double derate)
{
    requireInRange(derate, 0.0, 1.0, "thrustDerate");
    requirePositive(derate, "thrustDerate");
    _thrustDerate = derate;
    return *this;
}

UavConfig
UavConfig::Builder::build() const
{
    if (!_airframe) {
        throw ModelError("UAV configuration '" + _name +
                         "' is missing an airframe");
    }
    if (!_sensor) {
        throw ModelError("UAV configuration '" + _name +
                         "' is missing a sensor");
    }

    UavConfig config;
    config._name = _name;
    config._airframe = *_airframe;
    config._sensor = *_sensor;
    config._compute = _compute;
    config._algorithm = _algorithm;
    config._redundancy = _redundancy;
    config._accelOptions = _accelOptions;
    config._thrustDerate = _thrustDerate;

    // Compute rate: the oracle's measured-first ceiling-family path,
    // so an unmeasured pair carries binding attribution.
    if (!_compute || !_algorithm) {
        throw ModelError("UAV configuration '" + _name +
                         "' has no compute rate: set both compute() "
                         "and algorithm()");
    }
    const auto estimate = _oracle.throughput(*_algorithm, *_compute);
    config._computeRate = _redundancy.effectiveThroughput(estimate.value);
    config._computeRateSource = estimate.source;
    config._computeBinding = estimate.binding;

    // Mass roll-up.
    physics::MassBudget mass;
    mass.add(_airframe->name() + " (base)", _airframe->baseMass());
    mass.add(flightController().name() + " (FC)",
             flightController().mass());
    mass.add(_sensor->name() + " (sensor)", _sensor->mass());
    mass.add(_compute->name() + " (compute)",
             _redundancy.payloadMass(*_compute, config.heatsinkModel()));
    config._mass = mass;

    // Validate physics feasibility eagerly: maxAcceleration() throws
    // InfeasibleError for T/W <= 1.
    (void)config.maxAcceleration();

    return config;
}

} // namespace uavf1::core
