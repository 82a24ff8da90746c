/**
 * @file
 * Unit tests for the components library: sensors, compute
 * platforms, airframes, registries and the standard catalog.
 */

#include <gtest/gtest.h>

#include "components/catalog.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::units::literals;
using namespace uavf1::components;

TEST(Sensor, AccessorsAndLatency)
{
    const Sensor cam("cam", 60.0_hz, 10.0_m, 90.0_deg, 35.0_g,
                     2.0_w);
    EXPECT_EQ(cam.name(), "cam");
    EXPECT_NEAR(cam.latency().value(), 1.0 / 60.0, 1e-12);
    EXPECT_DOUBLE_EQ(cam.range().value(), 10.0);
}

TEST(Sensor, RejectsBadArguments)
{
    EXPECT_THROW(Sensor("s", Hertz(0.0), 10.0_m, 90.0_deg, 1.0_g,
                        1.0_w),
                 ModelError);
    EXPECT_THROW(Sensor("s", 60.0_hz, Meters(0.0), 90.0_deg, 1.0_g,
                        1.0_w),
                 ModelError);
    EXPECT_THROW(Sensor("s", 60.0_hz, 10.0_m, Degrees(400.0), 1.0_g,
                        1.0_w),
                 ModelError);
}

TEST(ComputePlatform, HeatsinkAndTotalMass)
{
    const auto catalog = Catalog::standard();
    const ComputePlatform &agx =
        catalog.computes().byName("Nvidia AGX");
    const thermal::HeatsinkModel heatsink;
    // Paper: AGX module 280 g + 162 g heatsink at 30 W.
    EXPECT_DOUBLE_EQ(agx.moduleMass().value(), 280.0);
    EXPECT_NEAR(agx.heatsinkMass(heatsink).value(), 162.0, 0.5);
    EXPECT_NEAR(agx.totalMass(heatsink).value(), 442.0, 0.5);
}

TEST(ComputePlatform, NcsHasNoHeatsink)
{
    const auto catalog = Catalog::standard();
    const ComputePlatform &ncs =
        catalog.computes().byName("Intel NCS");
    const thermal::HeatsinkModel heatsink;
    // Paper: NCS weighs ~47 g total (sub-1 W, board-cooled).
    EXPECT_DOUBLE_EQ(ncs.heatsinkMass(heatsink).value(), 0.0);
    EXPECT_DOUBLE_EQ(ncs.totalMass(heatsink).value(), 47.0);
}

TEST(ComputePlatform, WithTdpCreatesVariant)
{
    const auto catalog = Catalog::standard();
    const ComputePlatform agx15 =
        catalog.computes().byName("Nvidia AGX").withTdp(15.0_w,
                                                        "-15W");
    EXPECT_EQ(agx15.name(), "Nvidia AGX-15W");
    EXPECT_DOUBLE_EQ(agx15.tdp().value(), 15.0);
    // Throughput attributes are preserved.
    EXPECT_DOUBLE_EQ(
        agx15.peakThroughput().value(),
        catalog.computes().byName("Nvidia AGX").peakThroughput()
            .value());
    EXPECT_THROW(agx15.withTdp(Watts(0.0), "-bad"), ModelError);
}

TEST(ComputePlatform, NavionIsStageAccelerator)
{
    const auto catalog = Catalog::standard();
    EXPECT_EQ(catalog.computes().byName("Navion").role(),
              ComputeRole::StageAccelerator);
    EXPECT_EQ(catalog.computes().byName("Nvidia TX2").role(),
              ComputeRole::GeneralPurpose);
}

TEST(Airframe, SpecAccessors)
{
    const auto catalog = Catalog::standard();
    const Airframe &s500 = catalog.airframes().byName("S500");
    EXPECT_DOUBLE_EQ(s500.baseMass().value(), 1030.0);
    EXPECT_EQ(s500.sizeClass(), SizeClass::Mini);
    EXPECT_EQ(s500.propulsion().motorCount(), 4);
}

TEST(Airframe, SizeClassNames)
{
    EXPECT_STREQ(toString(SizeClass::Nano), "nano");
    EXPECT_STREQ(toString(SizeClass::Micro), "micro");
    EXPECT_STREQ(toString(SizeClass::Mini), "mini");
}

TEST(Registry, UnknownNameListsCandidates)
{
    const auto catalog = Catalog::standard();
    try {
        catalog.computes().byName("Jetson Nano");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("Jetson Nano"), std::string::npos);
        EXPECT_NE(what.find("Nvidia TX2"), std::string::npos);
    }
}

TEST(Registry, RejectsDuplicates)
{
    Registry<Sensor> reg;
    reg.add(Sensor("cam", 60.0_hz, 10.0_m, 90.0_deg, 1.0_g, 1.0_w));
    EXPECT_THROW(
        reg.add(Sensor("cam", 30.0_hz, 5.0_m, 90.0_deg, 1.0_g,
                       1.0_w)),
        ModelError);
    EXPECT_TRUE(reg.contains("cam"));
    EXPECT_FALSE(reg.contains("lidar"));
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, UnknownNameSuggestsTheClosestEntries)
{
    const auto catalog = Catalog::standard();
    // A near-miss earns a "did you mean" with the fix, plus the
    // full candidate list — the treatment study names get.
    try {
        catalog.rooflines().byName("Nvidia TX3");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("did you mean"), std::string::npos)
            << message;
        EXPECT_NE(message.find("Nvidia TX2"), std::string::npos)
            << message;
        EXPECT_NE(message.find("known entries:"), std::string::npos)
            << message;
    }
    // Hopeless queries still list what exists.
    try {
        catalog.rooflines().byName("quantum-annealer");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_EQ(message.find("did you mean"), std::string::npos)
            << message;
        EXPECT_NE(message.find("known entries:"), std::string::npos)
            << message;
    }
}

TEST(Catalog, StandardHasEveryPaperPart)
{
    const auto catalog = Catalog::standard();
    for (const char *name :
         {"Intel NCS", "Nvidia AGX", "Nvidia TX2", "Ras-Pi4",
          "UpBoard", "PULP-GAP8", "Navion", "ARM Cortex-M4",
          "Intel NUC"}) {
        EXPECT_TRUE(catalog.computes().contains(name)) << name;
    }
    for (const char *name :
         {"S500", "AscTec Pelican", "DJI Spark", "Nano-UAV"}) {
        EXPECT_TRUE(catalog.airframes().contains(name)) << name;
    }
    EXPECT_GE(catalog.sensors().size(), 6u);
    EXPECT_GE(catalog.batteries().size(), 5u);
}

TEST(Catalog, SizeClassOrderingMatchesPaper)
{
    const auto catalog = Catalog::standard();
    // Fig. 2b: bigger frame -> bigger battery.
    const auto &nano = catalog.batteries().byName("Nano 240mAh");
    const auto &micro = catalog.batteries().byName("Micro 1300mAh");
    const auto &mini = catalog.batteries().byName("Mini 3830mAh");
    EXPECT_LT(nano.capacity().value(), micro.capacity().value());
    EXPECT_LT(micro.capacity().value(), mini.capacity().value());
    EXPECT_LT(nano.usableEnergy().value(),
              micro.usableEnergy().value());
}

} // namespace
