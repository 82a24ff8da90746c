/**
 * @file
 * Unit tests for the thermal library: the heat-sink mass model must
 * reproduce the paper's three calculator points (Fig. 12) and
 * behave monotonically in between.
 */

#include <gtest/gtest.h>

#include "support/errors.hh"
#include "thermal/heatsink.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using thermal::HeatsinkModel;

TEST(Heatsink, ReproducesPaperCalibrationPoints)
{
    const HeatsinkModel model;
    // Paper Section VI-A / Fig. 12: 162 g @ 30 W, 81 g @ 15 W,
    // ~10 g @ 1.5 W.
    EXPECT_NEAR(model.mass(Watts(30.0)).value(), 162.0, 0.5);
    EXPECT_NEAR(model.mass(Watts(15.0)).value(), 81.0, 0.5);
    EXPECT_NEAR(model.mass(Watts(1.5)).value(), 10.0, 0.5);
}

TEST(Heatsink, PaperHeadlineRatios)
{
    const HeatsinkModel model;
    // "~20x in TDP -> ~16.2x in heatsink weight" (Fig. 12).
    const double ratio = model.mass(Watts(30.0)).value() /
                         model.mass(Watts(1.5)).value();
    EXPECT_NEAR(ratio, 16.2, 0.5);
    // Halving 30 W halves the heat sink (162 -> 81).
    EXPECT_NEAR(model.mass(Watts(30.0)).value() /
                    model.mass(Watts(15.0)).value(),
                2.0, 0.05);
}

TEST(Heatsink, NoHeatsinkBelowThreshold)
{
    const HeatsinkModel model;
    EXPECT_DOUBLE_EQ(model.mass(Watts(0.9)).value(), 0.0);
    EXPECT_DOUBLE_EQ(model.mass(Watts(0.064)).value(), 0.0);
    EXPECT_DOUBLE_EQ(model.mass(Watts(0.002)).value(), 0.0);
    EXPECT_DOUBLE_EQ(model.mass(Watts(0.0)).value(), 0.0);
    EXPECT_GT(model.mass(Watts(1.0)).value(), 0.0);
}

class HeatsinkMonotoneTest : public ::testing::TestWithParam<double>
{
};

TEST_P(HeatsinkMonotoneTest, MassIncreasesWithTdp)
{
    const HeatsinkModel model;
    const double tdp = GetParam();
    const double here = model.mass(Watts(tdp)).value();
    const double above = model.mass(Watts(tdp * 1.25)).value();
    EXPECT_GT(above, here);
}

INSTANTIATE_TEST_SUITE_P(TdpSweep, HeatsinkMonotoneTest,
                         ::testing::Values(1.0, 2.0, 5.0, 7.5, 10.0,
                                           15.0, 20.0, 30.0, 60.0));

TEST(Heatsink, CustomParams)
{
    HeatsinkModel::Params params;
    params.massCoefficient = 5.0;
    params.exponent = 1.0;
    params.baseMass = 0.0;
    params.noHeatsinkBelow = Watts(0.0);
    const HeatsinkModel model(params);
    EXPECT_DOUBLE_EQ(model.mass(Watts(10.0)).value(), 50.0);
}

TEST(Heatsink, RejectsInvalidParams)
{
    HeatsinkModel::Params params;
    params.massCoefficient = 0.0;
    EXPECT_THROW(HeatsinkModel{params}, ModelError);
    params = {};
    params.exponent = -1.0;
    EXPECT_THROW(HeatsinkModel{params}, ModelError);
    const HeatsinkModel model;
    EXPECT_THROW(model.mass(Watts(-1.0)), ModelError);
}

} // namespace
