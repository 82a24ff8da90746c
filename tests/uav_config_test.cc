/**
 * @file
 * Unit tests for UavConfig and its builder: validation, mass
 * roll-up, throughput resolution and redundancy integration.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "components/catalog.hh"
#include "core/uav_config.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::units::literals;
using core::UavConfig;

/** A complete, valid Pelican + TX2 + DroNet builder. */
UavConfig::Builder
pelicanBuilder()
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    UavConfig::Builder builder("test-pelican");
    builder.airframe(catalog.airframes().byName("AscTec Pelican"))
        .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"))
        .compute(catalog.computes().byName("Nvidia TX2"))
        .algorithm(algorithms.byName("DroNet"));
    return builder;
}

TEST(UavConfigBuilder, RequiresAirframeAndSensor)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    UavConfig::Builder no_airframe("x");
    no_airframe.sensor(catalog.sensors().byName("60FPS camera (10m)"))
        .compute(catalog.computes().byName("Nvidia TX2"))
        .algorithm(algorithms.byName("DroNet"));
    EXPECT_THROW(no_airframe.build(), ModelError);

    UavConfig::Builder no_sensor("x");
    no_sensor.airframe(catalog.airframes().byName("AscTec Pelican"))
        .compute(catalog.computes().byName("Nvidia TX2"))
        .algorithm(algorithms.byName("DroNet"));
    EXPECT_THROW(no_sensor.build(), ModelError);

    EXPECT_THROW(UavConfig::Builder(""), ModelError);
}

TEST(UavConfigBuilder, RequiresAComputeRateSource)
{
    const auto catalog = components::Catalog::standard();
    UavConfig::Builder builder("x");
    builder.airframe(catalog.airframes().byName("AscTec Pelican"))
        .sensor(catalog.sensors().byName("60FPS camera (10m)"));
    // No compute+algorithm pair.
    EXPECT_THROW(builder.build(), ModelError);
    // Platform alone is not enough.
    builder.compute(catalog.computes().byName("Nvidia TX2"));
    EXPECT_THROW(builder.build(), ModelError);
}

TEST(UavConfig, ComputeRateFromOracle)
{
    const UavConfig config = pelicanBuilder().build();
    EXPECT_DOUBLE_EQ(config.computeRate().value(), 178.0);
    EXPECT_EQ(config.computeRateSource(),
              workload::ThroughputSource::Measured);
}

TEST(UavConfig, MassRollUpIncludesEverything)
{
    const UavConfig config = pelicanBuilder().build();

    const auto &budget = config.massBudget();
    // Airframe 1000 + FC 10 + sensor 72 + TX2 (85 + ~41 heatsink).
    EXPECT_NEAR(config.takeoffMass().value(),
                1000.0 + 10.0 + 72.0 + 85.0 + 41.2, 1.0);
    const auto compute = std::find_if(
        budget.items().begin(), budget.items().end(),
        [](const physics::MassItem &item) {
            return item.label == "Nvidia TX2 (compute)";
        });
    ASSERT_NE(compute, budget.items().end());
    EXPECT_NEAR(compute->mass.value(), 85.0 + 41.2, 1.0);
    EXPECT_EQ(budget.items().size(), 4u);
}

TEST(UavConfig, InfeasibleBuildThrows)
{
    // A nano-UAV cannot lift a TX2.
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    UavConfig::Builder builder("overloaded");
    builder.airframe(catalog.airframes().byName("Nano-UAV"))
        .sensor(catalog.sensors().byName("Nano camera 60FPS (6m)"))
        .compute(catalog.computes().byName("Nvidia TX2"))
        .algorithm(algorithms.byName("DroNet"));
    EXPECT_THROW(builder.build(), InfeasibleError);
}

TEST(UavConfig, RedundancyAffectsMassAndRate)
{
    const UavConfig single = pelicanBuilder().build();
    const UavConfig dual =
        pelicanBuilder()
            .redundancy(pipeline::ModularRedundancy(
                pipeline::RedundancyScheme::Dual))
            .build();
    EXPECT_GT(dual.takeoffMass().value(),
              single.takeoffMass().value() + 100.0);
    EXPECT_LT(dual.computeRate().value(),
              single.computeRate().value());
    EXPECT_DOUBLE_EQ(dual.computePower().value(),
                     2.0 * single.computePower().value());
    // Heavier -> lower a_max.
    EXPECT_LT(dual.maxAcceleration().value(),
              single.maxAcceleration().value());
}

TEST(UavConfig, ThrustDerateLowersAcceleration)
{
    const UavConfig full = pelicanBuilder().build();
    const UavConfig derated =
        pelicanBuilder().thrustDerate(0.833).build();
    EXPECT_LT(derated.maxAcceleration().value(),
              full.maxAcceleration().value());
    EXPECT_NEAR(derated.totalThrust().value(),
                full.totalThrust().value() * 0.833, 1e-9);
}

TEST(UavConfig, F1InputsWiring)
{
    const UavConfig config = pelicanBuilder().build();
    const core::F1Inputs inputs = config.f1Inputs();
    EXPECT_DOUBLE_EQ(inputs.sensorRate.value(), 60.0);
    EXPECT_DOUBLE_EQ(inputs.sensingRange.value(), 4.5);
    EXPECT_DOUBLE_EQ(inputs.computeRate.value(), 178.0);
    EXPECT_DOUBLE_EQ(inputs.controlRate.value(), 1000.0);
    EXPECT_DOUBLE_EQ(inputs.kneeFraction,
                     core::SafetyModel::defaultKneeFraction);
    EXPECT_DOUBLE_EQ(inputs.aMax.value(),
                     config.maxAcceleration().value());
    // The model analyzes without throwing.
    EXPECT_NO_THROW(config.f1Model().analyze());
}

TEST(UavConfig, DescribeMentionsKeyFacts)
{
    const UavConfig config = pelicanBuilder().build();
    const std::string text = config.describe();
    EXPECT_NE(text.find("AscTec Pelican"), std::string::npos);
    EXPECT_NE(text.find("Nvidia TX2"), std::string::npos);
    EXPECT_NE(text.find("DroNet"), std::string::npos);
    EXPECT_NE(text.find("a_max"), std::string::npos);
}

TEST(UavConfig, BuilderKnobValidation)
{
    UavConfig::Builder builder("x");
    EXPECT_THROW(builder.thrustDerate(0.0), ModelError);
    EXPECT_THROW(builder.thrustDerate(1.5), ModelError);
}

} // namespace
