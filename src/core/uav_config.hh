/**
 * @file
 * Full UAV system configuration.
 *
 * Joins every substrate — airframe, sensor, compute platform (with
 * heat sink and optional modular redundancy), autonomy algorithm and
 * a generic 1 kHz flight controller — and reduces the assembly to
 * the scalar F1Inputs the model consumes:
 *
 *   payload masses -> total mass -> (with thrust) a_max
 *   sensor         -> f_sensor and range d
 *   algorithm on compute (oracle) -> f_compute
 *   flight controller -> f_control
 */

#ifndef UAVF1_CORE_UAV_CONFIG_HH
#define UAVF1_CORE_UAV_CONFIG_HH

#include <optional>
#include <string>

#include "components/airframe.hh"
#include "components/compute_platform.hh"
#include "components/sensor.hh"
#include "core/f1_model.hh"
#include "physics/acceleration.hh"
#include "physics/mass_budget.hh"
#include "pipeline/redundancy.hh"
#include "thermal/heatsink.hh"
#include "workload/algorithm.hh"
#include "workload/throughput.hh"

namespace uavf1::core {

/**
 * An immutable, fully-validated UAV system configuration.
 * Create via UavConfig::Builder.
 */
class UavConfig
{
  public:
    class Builder;

    /** Configuration name (for reports and chart legends). */
    const std::string &name() const { return _name; }

    /** The airframe. */
    const components::Airframe &airframe() const { return _airframe; }

    /** The sensor. */
    const components::Sensor &sensor() const { return _sensor; }

    /** The compute platform (always set by build()). */
    const std::optional<components::ComputePlatform> &compute() const
    {
        return _compute;
    }

    /** The autonomy algorithm (always set by build()). */
    const std::optional<workload::AutonomyAlgorithm> &algorithm() const
    {
        return _algorithm;
    }

    /** Redundancy scheme applied to the compute subsystem. */
    const pipeline::ModularRedundancy &redundancy() const
    {
        return _redundancy;
    }

    /** The heat-sink model used for compute payload mass (the
     * paper-calibrated default). */
    thermal::HeatsinkModel heatsinkModel() const { return {}; }

    /** Itemized takeoff mass. */
    const physics::MassBudget &massBudget() const { return _mass; }

    /** Total takeoff mass. */
    units::Grams takeoffMass() const { return _mass.total(); }

    /** Usable thrust (after the configured derate). */
    units::Newtons totalThrust() const;

    /** Thrust-to-weight ratio at takeoff mass. */
    double thrustToWeight() const;

    /** a_max from the acceleration law. */
    units::MetersPerSecondSquared maxAcceleration() const;

    /** f_compute: oracle throughput through the redundancy voter. */
    units::Hertz computeRate() const { return _computeRate; }

    /** Provenance of the compute rate. */
    workload::ThroughputSource computeRateSource() const
    {
        return _computeRateSource;
    }

    /** Machine-ceiling attribution of the compute rate;
     * unattributed unless the rate came from a roofline bound
     * (resolve against compute()->roofline() for a name). */
    platform::CeilingRef computeBinding() const
    {
        return _computeBinding;
    }

    /** Total compute electrical power (replicas x TDP). */
    units::Watts computePower() const;

    /** Reduced model inputs. */
    F1Inputs f1Inputs() const;

    /** The F-1 model for this configuration. */
    F1Model f1Model() const;

    /** Multi-line human-readable description. */
    std::string describe() const;

  private:
    UavConfig() = default;

    std::string _name;
    components::Airframe _airframe{components::Airframe::Spec{
        .name = "unset",
        .baseMass = units::Grams(1.0),
        .frameSizeMm = 1.0,
    }};
    components::Sensor _sensor{
        "unset", units::Hertz(1.0), units::Meters(1.0),
        units::Degrees(90.0), units::Grams(0.0), units::Watts(0.0)};
    std::optional<components::ComputePlatform> _compute;
    std::optional<workload::AutonomyAlgorithm> _algorithm;
    pipeline::ModularRedundancy _redundancy{
        pipeline::RedundancyScheme::None};
    physics::MassBudget _mass;
    physics::AccelerationOptions _accelOptions;
    double _thrustDerate = 1.0;
    units::Hertz _computeRate{1.0};
    workload::ThroughputSource _computeRateSource =
        workload::ThroughputSource::Measured;
    platform::CeilingRef _computeBinding{};
};

/**
 * Fluent builder for UavConfig.
 */
class UavConfig::Builder
{
  public:
    /** Start a configuration with a report name. */
    explicit Builder(std::string name);

    /** Set the airframe (required). */
    Builder &airframe(components::Airframe airframe);

    /** Set the sensor (required). */
    Builder &sensor(components::Sensor sensor);

    /** Set the compute platform. */
    Builder &compute(components::ComputePlatform platform);

    /** Set the autonomy algorithm. */
    Builder &algorithm(workload::AutonomyAlgorithm algorithm);

    /** Set the throughput oracle (default: paper-seeded). */
    Builder &throughputOracle(workload::ThroughputOracle oracle);

    /** Apply compute redundancy (default: none). */
    Builder &redundancy(pipeline::ModularRedundancy redundancy);

    /** Select the acceleration law (default: hover-constrained). */
    Builder &accelerationOptions(physics::AccelerationOptions options);

    /** Derate usable thrust to a fraction of static pull. */
    Builder &thrustDerate(double derate);

    /**
     * Validate and assemble the configuration.
     *
     * @throws ModelError if the airframe or sensor is missing, or if
     *         no compute rate is derivable (needs both a platform
     *         and an algorithm)
     * @throws InfeasibleError if thrust cannot lift the takeoff mass
     */
    UavConfig build() const;

  private:
    std::string _name;
    std::optional<components::Airframe> _airframe;
    std::optional<components::Sensor> _sensor;
    std::optional<components::ComputePlatform> _compute;
    std::optional<workload::AutonomyAlgorithm> _algorithm;
    workload::ThroughputOracle _oracle{
        workload::ThroughputOracle::standard()};
    pipeline::ModularRedundancy _redundancy{
        pipeline::RedundancyScheme::None};
    physics::AccelerationOptions _accelOptions;
    double _thrustDerate = 1.0;
};

} // namespace uavf1::core

#endif // UAVF1_CORE_UAV_CONFIG_HH
