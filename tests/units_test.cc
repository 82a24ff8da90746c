/**
 * @file
 * Unit tests for the units library: quantity arithmetic,
 * cross-dimension operators, literals, conversions and formatting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "units/units.hh"

namespace {

using namespace uavf1::units;
using namespace uavf1::units::literals;

TEST(Quantity, DefaultIsZero)
{
    Meters m;
    EXPECT_EQ(m.value(), 0.0);
}

TEST(Quantity, SameDimensionArithmetic)
{
    const Meters a(3.0);
    const Meters b(1.5);
    EXPECT_DOUBLE_EQ((a + b).value(), 4.5);
    EXPECT_DOUBLE_EQ((a - b).value(), 1.5);
    EXPECT_DOUBLE_EQ((-a).value(), -3.0);
    EXPECT_DOUBLE_EQ((a * 2.0).value(), 6.0);
    EXPECT_DOUBLE_EQ((2.0 * a).value(), 6.0);
    EXPECT_DOUBLE_EQ((a / 2.0).value(), 1.5);
    EXPECT_DOUBLE_EQ(a / b, 2.0);
}

TEST(Quantity, CompoundAssignment)
{
    Meters m(1.0);
    m += Meters(2.0);
    EXPECT_DOUBLE_EQ(m.value(), 3.0);
    m -= Meters(0.5);
    EXPECT_DOUBLE_EQ(m.value(), 2.5);
    m *= 4.0;
    EXPECT_DOUBLE_EQ(m.value(), 10.0);
}

TEST(Quantity, Comparisons)
{
    EXPECT_LT(Meters(1.0), Meters(2.0));
    EXPECT_EQ(Meters(2.0), Meters(2.0));
    EXPECT_GE(Meters(3.0), Meters(2.0));
}

TEST(Quantity, MinMaxAbs)
{
    EXPECT_DOUBLE_EQ(min(Meters(1.0), Meters(2.0)).value(), 1.0);
    EXPECT_DOUBLE_EQ(max(Meters(1.0), Meters(2.0)).value(), 2.0);
    EXPECT_DOUBLE_EQ(abs(Meters(-4.0)).value(), 4.0);
}

TEST(Quantity, AlmostEqual)
{
    EXPECT_TRUE(almostEqual(Meters(1.0), Meters(1.0 + 1e-12)));
    EXPECT_FALSE(almostEqual(Meters(1.0), Meters(1.001)));
    EXPECT_TRUE(almostEqual(Meters(0.0), Meters(0.0)));
    EXPECT_TRUE(
        almostEqual(Meters(1000.0), Meters(1000.1), 1e-3));
}

TEST(Quantity, ToStringUsesSymbolAndTrimsZeros)
{
    EXPECT_EQ(toString(Meters(3.0)), "3 m");
    EXPECT_EQ(toString(Hertz(1.5)), "1.5 Hz");
    EXPECT_EQ(toString(MetersPerSecondSquared(2.25)), "2.25 m/s^2");
}

TEST(Quantity, StreamInsertion)
{
    std::ostringstream os;
    os << Grams(640.0);
    EXPECT_EQ(os.str(), "640 g");
}

TEST(Arithmetic, VelocityFromDistanceAndTime)
{
    const MetersPerSecond v = Meters(10.0) / Seconds(4.0);
    EXPECT_DOUBLE_EQ(v.value(), 2.5);
    EXPECT_DOUBLE_EQ((v * Seconds(4.0)).value(), 10.0);
    EXPECT_DOUBLE_EQ((Seconds(4.0) * v).value(), 10.0);
}

TEST(Arithmetic, AccelerationChain)
{
    const MetersPerSecondSquared a =
        MetersPerSecond(5.0) / Seconds(2.0);
    EXPECT_DOUBLE_EQ(a.value(), 2.5);
    EXPECT_DOUBLE_EQ((a * Seconds(2.0)).value(), 5.0);
    EXPECT_DOUBLE_EQ(
        (MetersPerSecond(5.0) / a).value(), 2.0);
}

TEST(Arithmetic, ForceMassAcceleration)
{
    const Newtons f = Kilograms(2.0) * MetersPerSecondSquared(3.0);
    EXPECT_DOUBLE_EQ(f.value(), 6.0);
    EXPECT_DOUBLE_EQ((f / Kilograms(2.0)).value(), 3.0);
    EXPECT_DOUBLE_EQ((f / MetersPerSecondSquared(3.0)).value(), 2.0);
}

TEST(Arithmetic, EnergyPowerTime)
{
    const Joules e = Watts(10.0) * Seconds(6.0);
    EXPECT_DOUBLE_EQ(e.value(), 60.0);
    EXPECT_DOUBLE_EQ((e / Watts(10.0)).value(), 6.0);
    EXPECT_DOUBLE_EQ((e / Seconds(6.0)).value(), 10.0);
}

TEST(Arithmetic, RatePeriodRoundTrip)
{
    const Hertz f(60.0);
    EXPECT_NEAR(period(f).value(), 1.0 / 60.0, 1e-15);
    EXPECT_NEAR(rate(period(f)).value(), 60.0, 1e-12);
}

TEST(Arithmetic, MassConversions)
{
    EXPECT_DOUBLE_EQ(toKilograms(Grams(1500.0)).value(), 1.5);
    EXPECT_DOUBLE_EQ(toGrams(Kilograms(1.5)).value(), 1500.0);
}

TEST(Arithmetic, AngleConversions)
{
    EXPECT_NEAR(toRadians(Degrees(180.0)).value(), 3.14159265,
                1e-8);
    EXPECT_NEAR(toDegrees(Radians(3.14159265358979)).value(),
                180.0, 1e-9);
}

TEST(Arithmetic, BatteryEnergy)
{
    // 5000 mAh at 11.1 V = 55.5 Wh.
    const WattHours wh =
        batteryEnergy(MilliampHours(5000.0), Volts(11.1));
    EXPECT_NEAR(wh.value(), 55.5, 1e-9);
    EXPECT_NEAR(toJoules(wh).value(), 55.5 * 3600.0, 1e-6);
    EXPECT_NEAR(toWattHours(toJoules(wh)).value(), 55.5, 1e-9);
}

TEST(Constants, GramsForceConversionRoundTrip)
{
    const Newtons n = gramsForceToNewtons(Grams(1000.0));
    EXPECT_NEAR(n.value(), 9.80665, 1e-9);
    EXPECT_NEAR(newtonsToGramsForce(n).value(), 1000.0, 1e-9);
}

TEST(Literals, AllLiteralsProduceExpectedMagnitudes)
{
    EXPECT_DOUBLE_EQ((3.5_m).value(), 3.5);
    EXPECT_DOUBLE_EQ((2_s).value(), 2.0);
    EXPECT_DOUBLE_EQ((250_ms).value(), 0.25);
    EXPECT_DOUBLE_EQ((60_hz).value(), 60.0);
    EXPECT_DOUBLE_EQ((590_g).value(), 590.0);
    EXPECT_DOUBLE_EQ((1.62_kg).value(), 1.62);
    EXPECT_DOUBLE_EQ((30_w).value(), 30.0);
    EXPECT_DOUBLE_EQ((64_mw).value(), 0.064);
    EXPECT_DOUBLE_EQ((2.13_mps).value(), 2.13);
    EXPECT_DOUBLE_EQ((50_mps2).value(), 50.0);
    EXPECT_DOUBLE_EQ((5000_mah).value(), 5000.0);
    EXPECT_DOUBLE_EQ((11.1_v).value(), 11.1);
    EXPECT_DOUBLE_EQ((35_deg).value(), 35.0);
}

} // namespace
