/**
 * @file
 * Unit tests for the pipeline library: the modular-redundancy model.
 */

#include <gtest/gtest.h>

#include "components/catalog.hh"
#include "pipeline/redundancy.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::pipeline;

TEST(Redundancy, ReplicaCounts)
{
    EXPECT_EQ(replicaCount(RedundancyScheme::None), 1);
    EXPECT_EQ(replicaCount(RedundancyScheme::Dual), 2);
    EXPECT_EQ(replicaCount(RedundancyScheme::Triple), 3);
}

TEST(Redundancy, PayloadMassScalesWithReplicas)
{
    const auto catalog = components::Catalog::standard();
    const auto &tx2 = catalog.computes().byName("Nvidia TX2");
    const thermal::HeatsinkModel heatsink;
    const double single_mass = tx2.totalMass(heatsink).value();

    const ModularRedundancy none(RedundancyScheme::None);
    const ModularRedundancy dual(RedundancyScheme::Dual);
    const ModularRedundancy triple(RedundancyScheme::Triple);

    EXPECT_DOUBLE_EQ(none.payloadMass(tx2, heatsink).value(),
                     single_mass);
    // DMR: two modules + 15 g voter.
    EXPECT_NEAR(dual.payloadMass(tx2, heatsink).value(),
                2.0 * single_mass + 15.0, 1e-9);
    EXPECT_NEAR(triple.payloadMass(tx2, heatsink).value(),
                3.0 * single_mass + 15.0, 1e-9);
}

TEST(Redundancy, PowerScalesWithReplicas)
{
    const auto catalog = components::Catalog::standard();
    const auto &tx2 = catalog.computes().byName("Nvidia TX2");
    const ModularRedundancy dual(RedundancyScheme::Dual);
    EXPECT_DOUBLE_EQ(dual.power(tx2).value(),
                     2.0 * tx2.tdp().value());
}

TEST(Redundancy, ThroughputUnchangedExceptVoter)
{
    const ModularRedundancy none(RedundancyScheme::None);
    EXPECT_DOUBLE_EQ(
        none.effectiveThroughput(Hertz(178.0)).value(), 178.0);

    // DMR adds 1 ms validator latency: 1/178 + 0.001.
    const ModularRedundancy dual(RedundancyScheme::Dual);
    const double expected = 1.0 / (1.0 / 178.0 + 0.001);
    EXPECT_NEAR(dual.effectiveThroughput(Hertz(178.0)).value(),
                expected, 1e-9);
    // Replication never *increases* throughput.
    EXPECT_LT(dual.effectiveThroughput(Hertz(178.0)).value(), 178.0);
}

TEST(Redundancy, CustomVoterParams)
{
    ModularRedundancy::Params params;
    params.voterLatency = Seconds(0.0);
    params.voterMass = Grams(0.0);
    const ModularRedundancy dual(RedundancyScheme::Dual, params);
    EXPECT_DOUBLE_EQ(
        dual.effectiveThroughput(Hertz(100.0)).value(), 100.0);
    EXPECT_THROW(dual.effectiveThroughput(Hertz(0.0)), ModelError);
}

} // namespace
