/**
 * @file
 * Unit tests for the physics library: mass budget, propulsion,
 * acceleration laws (paper Eq. 5), drag and battery.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "physics/physics.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::units::literals;
using namespace uavf1::physics;

TEST(MassBudget, AccumulatesAndSummarizes)
{
    MassBudget budget;
    budget.add("frame", 1030.0_g).add("compute", 46.0_g);
    budget.add("battery", 544.0_g);
    EXPECT_DOUBLE_EQ(budget.total().value(), 1620.0);
    EXPECT_DOUBLE_EQ(budget.totalKg().value(), 1.62);
    EXPECT_EQ(budget.items().size(), 3u);
}

TEST(MassBudget, DuplicateLabelsSum)
{
    MassBudget budget;
    budget.add("weight", 50.0_g).add("weight", 100.0_g);
    EXPECT_DOUBLE_EQ(budget.total().value(), 150.0);
    EXPECT_EQ(budget.items().size(), 2u);
}

TEST(MassBudget, RejectsNegativeMass)
{
    MassBudget budget;
    EXPECT_THROW(budget.add("bad", Grams(-1.0)), ModelError);
}

TEST(Propulsion, TotalPullAndThrust)
{
    const Propulsion prop("ReadytoSky 2212", 4, 435.0_g);
    EXPECT_DOUBLE_EQ(prop.totalPull().value(), 1740.0);
    EXPECT_NEAR(prop.totalThrust().value(), 1.740 * 9.80665, 1e-9);
    EXPECT_EQ(prop.motorCount(), 4);
}

TEST(Propulsion, DerateScalesPull)
{
    const Propulsion prop("m", 4, 850.0_g, 0.55);
    EXPECT_NEAR(prop.totalPull().value(), 1870.0, 1e-9);
}

TEST(Propulsion, RejectsBadArguments)
{
    EXPECT_THROW(Propulsion("m", 0, 435.0_g), ModelError);
    EXPECT_THROW(Propulsion("m", 4, Grams(0.0)), ModelError);
    EXPECT_THROW(Propulsion("m", 4, 435.0_g, 0.0), ModelError);
    EXPECT_THROW(Propulsion("m", 4, 435.0_g, 1.5), ModelError);
}

TEST(Acceleration, ThrustToWeight)
{
    // 2 kg craft with 39.2266 N thrust has T/W exactly 2.
    const double twr =
        thrustToWeight(Newtons(2.0 * 2.0 * 9.80665), 2.0_kg);
    EXPECT_NEAR(twr, 2.0, 1e-12);
}

TEST(Acceleration, HoverConstrainedMatchesClosedForm)
{
    // twr = 2 -> a = g * sqrt(3).
    const auto a = maxAcceleration(
        Newtons(2.0 * 9.80665), 1.0_kg,
        {.law = AccelerationLaw::HoverConstrained});
    EXPECT_NEAR(a.value(), 9.80665 * std::sqrt(3.0), 1e-9);
}

TEST(Acceleration, VerticalExcessMatchesClosedForm)
{
    // twr = 1.5 -> a = 0.5 g.
    const auto a = maxAcceleration(
        Newtons(1.5 * 9.80665), 1.0_kg,
        {.law = AccelerationLaw::VerticalExcess});
    EXPECT_NEAR(a.value(), 0.5 * 9.80665, 1e-9);
}

TEST(Acceleration, InfeasibleWhenCannotHover)
{
    EXPECT_THROW(
        maxAcceleration(Newtons(9.0), 1.0_kg, {}),
        InfeasibleError);
    // Exactly twr = 1 is also infeasible (no margin to maneuver).
    EXPECT_THROW(
        maxAcceleration(Newtons(9.80665), 1.0_kg, {}),
        InfeasibleError);
}

TEST(Drag, QuadraticFactor)
{
    const DragModel drag(1.0, 0.02); // 1/2*1.225*1*0.02 = 0.01225.
    EXPECT_NEAR(drag.quadraticFactor(), 0.01225, 1e-12);
    EXPECT_FALSE(drag.isNone());
}

TEST(Drag, NoneModel)
{
    const DragModel none = DragModel::none();
    EXPECT_TRUE(none.isNone());
    EXPECT_DOUBLE_EQ(none.quadraticFactor(), 0.0);
}

TEST(Battery, EnergyAndEndurance)
{
    const Battery pack("3S 5000mAh", 5000.0_mah, 11.1_v, 380.0_g);
    EXPECT_NEAR(pack.ratedEnergy().value(), 55.5, 1e-9);
    EXPECT_NEAR(pack.usableEnergy().value(), 44.4, 1e-9);
    // 44.4 Wh over 0.444 h = 1598.4 s is a 100 W draw.
    EXPECT_NEAR(
        pack.impliedDraw(units::Seconds(1598.4)).value(), 100.0,
        1e-9);
}

TEST(Battery, RejectsBadArguments)
{
    EXPECT_THROW(
        Battery("x", MilliampHours(0.0), 11.1_v, 380.0_g),
        ModelError);
    EXPECT_THROW(
        Battery("x", 5000.0_mah, Volts(0.0), 380.0_g), ModelError);
    EXPECT_THROW(
        Battery("x", 5000.0_mah, 11.1_v, 380.0_g, 1.5), ModelError);
    const Battery pack("x", 5000.0_mah, 11.1_v, 380.0_g);
    EXPECT_THROW(pack.impliedDraw(Seconds(0.0)), ModelError);
}

} // namespace
