/**
 * @file
 * Standard catalog definitions.
 *
 * Mass / TDP / throughput values come from the paper where quoted
 * (Table I, Section VI, Section VII) and from public datasheets
 * otherwise. The classic-roofline machine parameters (peak GOPS and
 * memory bandwidth) are *effective* deep-learning numbers, used only
 * to upper-bound throughput for pairs the paper did not measure.
 */

#include "components/catalog.hh"

#include "units/units.hh"

namespace uavf1::components {

using namespace units::literals;
using units::GigabytesPerSecond;
using units::Gops;

namespace {

void
addComputes(Registry<ComputePlatform> &reg)
{
    // Paper §VI-A: NCS is a sub-1 W, 47 g USB-stick platform
    // (below the heat-sink threshold, so its payload stays 47 g).
    reg.add(ComputePlatform({
        .name = "Intel NCS",
        .tdp = 0.9_w,
        .moduleMass = 47.0_g,
        .peakThroughput = Gops(100.0),
        .memoryBandwidth = GigabytesPerSecond(4.0),
        .role = ComputeRole::GeneralPurpose,
        .description = "Myriad VPU compute stick (sub-1 W)",
    }));

    // Paper §VI-A: AGX module 280 g without heat sink, 30 W TDP;
    // the 30 W heat sink the paper derives is 162 g.
    reg.add(ComputePlatform({
        .name = "Nvidia AGX",
        .tdp = 30.0_w,
        .moduleMass = 280.0_g,
        .peakThroughput = Gops(11000.0),
        .memoryBandwidth = GigabytesPerSecond(137.0),
        .role = ComputeRole::GeneralPurpose,
        .description = "Jetson AGX Xavier module",
    }));

    reg.add(ComputePlatform({
        .name = "Nvidia TX2",
        .tdp = 7.5_w,
        .moduleMass = 85.0_g,
        .peakThroughput = Gops(1330.0),
        .memoryBandwidth = GigabytesPerSecond(59.7),
        .role = ComputeRole::GeneralPurpose,
        .description = "Jetson TX2 module",
    }));

    // Table I / §IV: lowest-end platform able to run MAVROS.
    reg.add(ComputePlatform({
        .name = "Ras-Pi4",
        .tdp = 6.0_w,
        .moduleMass = 46.0_g,
        .peakThroughput = Gops(24.0),
        .memoryBandwidth = GigabytesPerSecond(4.0),
        .role = ComputeRole::GeneralPurpose,
        .description = "Raspberry Pi 4 (ARM Cortex-A72)",
    }));

    // Table I: x86 alternative; board + carrier are heavier.
    reg.add(ComputePlatform({
        .name = "UpBoard",
        .tdp = 12.0_w,
        .moduleMass = 180.0_g,
        .peakThroughput = Gops(50.0),
        .memoryBandwidth = GigabytesPerSecond(8.0),
        .role = ComputeRole::GeneralPurpose,
        .description = "Up Squared (x86 Apollo Lake)",
    }));

    // §VII: PULP-DroNet runs DroNet at 6 Hz in 64 mW.
    reg.add(ComputePlatform({
        .name = "PULP-GAP8",
        .tdp = 0.064_w,
        .moduleMass = 3.0_g,
        .peakThroughput = Gops(8.0),
        .memoryBandwidth = GigabytesPerSecond(0.5),
        .role = ComputeRole::GeneralPurpose,
        .description = "PULP GAP8 nano-UAV DNN engine (64 mW)",
    }));

    // §VII: Navion accelerates only visual-inertial odometry
    // (172 FPS @ 2 mW); the rest of the SPA pipeline still needs a
    // host.
    reg.add(ComputePlatform({
        .name = "Navion",
        .tdp = 0.002_w,
        .moduleMass = 2.0_g,
        .peakThroughput = Gops(200.0),
        .memoryBandwidth = GigabytesPerSecond(1.0),
        .role = ComputeRole::StageAccelerator,
        .description = "VIO ASIC, accelerates the SLAM stage only",
    }));

    // §II-C: nano-UAV microcontroller class.
    reg.add(ComputePlatform({
        .name = "ARM Cortex-M4",
        .tdp = 0.1_w,
        .moduleMass = 2.0_g,
        .peakThroughput = Gops(0.2),
        .memoryBandwidth = GigabytesPerSecond(0.1),
        .role = ComputeRole::GeneralPurpose,
        .description = "Flight-controller-class MCU",
    }));

    // §II-C: mini-UAV general-purpose computer.
    reg.add(ComputePlatform({
        .name = "Intel NUC",
        .tdp = 28.0_w,
        .moduleMass = 700.0_g,
        .peakThroughput = Gops(400.0),
        .memoryBandwidth = GigabytesPerSecond(25.6),
        .role = ComputeRole::GeneralPurpose,
        .description = "Mini-PC used on larger research UAVs",
    }));
}

void
addSensors(Registry<Sensor> &reg)
{
    // The paper's case studies keep the sensor at 60 FPS "to ensure
    // we are not in the sensor-bound region" and vary the range per
    // study.
    reg.add(Sensor("60FPS camera (3m)", 60.0_hz, 3.0_m, 90.0_deg,
                   30.0_g, 1.5_w));
    reg.add(Sensor("60FPS camera (6m)", 60.0_hz, 6.0_m, 90.0_deg,
                   30.0_g, 1.5_w));
    reg.add(Sensor("60FPS camera (10m)", 60.0_hz, 10.0_m, 90.0_deg,
                   35.0_g, 2.0_w));
    // §VI-C: RGB-D camera, 60 FPS, 4.5 m sensing distance.
    reg.add(Sensor("RGB-D 60FPS (4.5m)", 60.0_hz, 4.5_m, 70.0_deg,
                   72.0_g, 3.5_w));
    // Long-range stereo used by the full-system study on DJI Spark.
    reg.add(Sensor("Stereo 60FPS (11m)", 60.0_hz, 11.0_m, 85.0_deg,
                   60.0_g, 3.0_w));
    // Nano-UAV front camera (§VII).
    reg.add(Sensor("Nano camera 60FPS (6m)", 60.0_hz, 6.0_m,
                   87.0_deg, 1.0_g, 0.1_w));
    // A slow sensor for sensor-bound demonstrations.
    reg.add(Sensor("10FPS camera (10m)", 10.0_hz, 10.0_m, 90.0_deg,
                   35.0_g, 2.0_w));
}

void
addAirframes(Registry<Airframe> &reg)
{
    // Table I: S500 frame, base (motors + ESC + frame) 1030 g,
    // ReadytoSky 2212 920KV motors. The table quotes ~435 g pull per
    // motor, but UAV-B's 1830 g takeoff mass cannot hover on
    // 4 x 435 g; 435 g is the ~50%-throttle operating point of this
    // motor/prop combo, whose bench-test maximum is ~850 g on 3S.
    // We store the datasheet maximum and let experiments derate.
    reg.add(Airframe({
        .name = "S500",
        .baseMass = 1030.0_g,
        .frameSizeMm = 500.0,
        .sizeClass = SizeClass::Mini,
        .propulsion = physics::Propulsion(
            "ReadytoSky 2212 920KV", 4, 850.0_g),
        .dragCoefficient = 1.1,
        .frontalAreaM2 = 0.022,
    }));

    // AscTec Pelican: research mini-UAV, ~1 kg without payload.
    reg.add(Airframe({
        .name = "AscTec Pelican",
        .baseMass = 1000.0_g,
        .frameSizeMm = 651.0,
        .sizeClass = SizeClass::Mini,
        .propulsion = physics::Propulsion(
            "AscTec 10in props", 4, 448.0_g),
        .dragCoefficient = 1.0,
        .frontalAreaM2 = 0.020,
    }));

    // DJI Spark: 143 mm palm-size quadcopter, 300 g takeoff mass.
    // Total pull calibrated to 793.7 g-f (4 x 198.4) so that the
    // Fig. 11 case study reproduces the paper's +75% safe-velocity
    // gain when the AGX TDP drops from 30 W to 15 W (hover-
    // constrained law; see scenario/studies/fig11.cc).
    reg.add(Airframe({
        .name = "DJI Spark",
        .baseMass = 300.0_g,
        .frameSizeMm = 143.0,
        .sizeClass = SizeClass::Micro,
        .propulsion = physics::Propulsion(
            "Spark rotors", 4, 198.415_g),
        .dragCoefficient = 0.9,
        .frontalAreaM2 = 0.006,
    }));

    // CrazyFlie-class nano-UAV (§VII): ~30 g base, ~13 g-f/motor.
    reg.add(Airframe({
        .name = "Nano-UAV",
        .baseMass = 30.0_g,
        .frameSizeMm = 92.0,
        .sizeClass = SizeClass::Nano,
        .propulsion = physics::Propulsion(
            "Nano coreless motors", 4, 13.4_g),
        .dragCoefficient = 0.8,
        .frontalAreaM2 = 0.0008,
    }));
}

void
addBatteries(Registry<physics::Battery> &reg)
{
    // Table I flight battery.
    reg.add(physics::Battery("3S 5000mAh", 5000.0_mah, 11.1_v,
                             380.0_g));
    // Dedicated compute packs (§IV: Ras-Pi4 and UpBoard each need a
    // separate battery due to UAV power-delivery limits).
    reg.add(physics::Battery("Compute pack (Ras-Pi4)", 3000.0_mah,
                             11.1_v, 544.0_g));
    reg.add(physics::Battery("Compute pack (UpBoard)", 4200.0_mah,
                             11.1_v, 620.0_g));
    // Fig. 2b size-class packs.
    reg.add(physics::Battery("Nano 240mAh", 240.0_mah, 3.7_v, 7.0_g));
    reg.add(physics::Battery("Micro 1300mAh", 1300.0_mah, 7.4_v,
                             75.0_g));
    reg.add(physics::Battery("Mini 3830mAh", 3830.0_mah, 11.1_v,
                             292.0_g));
}

void
addRooflines(Registry<platform::RooflinePlatform> &reg)
{
    // Multi-ceiling families for the SoC-class parts. The *top*
    // compute ceiling and the *slowest* memory ceiling (the two
    // that bind the attainable bound) match the flat catalog
    // entries of the same name exactly, so the single-ceiling
    // adapter and the family agree on the bound; the remaining
    // ceilings are effective datasheet numbers for the scalar/SIMD
    // execution targets and on-chip memory levels. Every compute
    // ceiling carries its execution-target class so annotated
    // workloads (workload::WorkloadTraits) can opt out of roofs
    // they cannot use. Operating points use the CMOS power law
    // (platform::dvfsOperatingPoints, full-DVFS defaults) for the
    // TDP at each clock fraction.
    using platform::ComputeTarget;
    const std::vector<std::pair<std::string, double>> fractions = {
        {"nominal", 1.0}, {"half-clock", 0.5}, {"dvfs-floor", 0.25}};

    reg.add(platform::RooflinePlatform({
        .name = "Nvidia TX2",
        .computeCeilings = {{"Denver2/A57 scalar", Gops(42.0),
                             ComputeTarget::Scalar, {}},
                            {"NEON SIMD", Gops(170.0),
                             ComputeTarget::Simd, {}},
                            {"Pascal GPU FP16", Gops(1330.0),
                             ComputeTarget::Accelerator, {}}},
        .memoryCeilings = {{"LPDDR4 DRAM",
                            GigabytesPerSecond(59.7)},
                           {"GPU L2/shared",
                            GigabytesPerSecond(300.0)}},
        .operatingPoints = platform::dvfsOperatingPoints(7.5_w, fractions),
        .description = "Jetson TX2-class hierarchical roofline",
    }));

    reg.add(platform::RooflinePlatform({
        .name = "Nvidia AGX",
        .computeCeilings = {{"Carmel scalar", Gops(90.0),
                             ComputeTarget::Scalar, {}},
                            {"Carmel NEON SIMD", Gops(350.0),
                             ComputeTarget::Simd, {}},
                            {"Volta GPU + DLA FP16", Gops(11000.0),
                             ComputeTarget::Accelerator, {}}},
        .memoryCeilings = {{"LPDDR4x DRAM",
                            GigabytesPerSecond(137.0)},
                           {"GPU L2/shared",
                            GigabytesPerSecond(700.0)}},
        .operatingPoints = platform::dvfsOperatingPoints(30.0_w, fractions),
        .description = "Xavier-class hierarchical roofline",
    }));

    reg.add(platform::RooflinePlatform({
        .name = "ARM Cortex-M4",
        .computeCeilings = {{"Thumb-2 scalar", Gops(0.08),
                             ComputeTarget::Scalar, {}},
                            {"DSP MAC", Gops(0.2),
                             ComputeTarget::Simd, {}}},
        .memoryCeilings = {{"SRAM", GigabytesPerSecond(0.1)},
                           {"TCM", GigabytesPerSecond(0.4)}},
        .operatingPoints = platform::dvfsOperatingPoints(0.1_w, fractions),
        .description =
            "Microcontroller-class hierarchical roofline",
    }));

    // §VII: Navion pairs a VIO ASIC with a host CPU — the ASIC
    // accelerates only the SLAM stage, so its ceiling is *gated* to
    // that stage: a SLAM-stage workload can ride it, every other
    // kernel falls back to the host's scalar/SIMD roofs. This is
    // the MAVBench observation that kernels map to different
    // execution targets, expressed as a ceiling family.
    reg.add(platform::RooflinePlatform({
        .name = "TX2-CPU + Navion",
        .computeCeilings = {{"Denver2/A57 scalar", Gops(42.0),
                             ComputeTarget::Scalar, {}},
                            {"NEON SIMD", Gops(170.0),
                             ComputeTarget::Simd, {}},
                            {"Navion VIO ASIC", Gops(200.0),
                             ComputeTarget::Accelerator, "SLAM"}},
        .memoryCeilings = {{"LPDDR4 DRAM",
                            GigabytesPerSecond(59.7)},
                           {"on-chip SRAM",
                            GigabytesPerSecond(300.0)}},
        .operatingPoints = platform::dvfsOperatingPoints(7.5_w, fractions),
        .description = "TX2 CPU host with a stage-gated VIO "
                       "accelerator ceiling",
    }));
}

} // namespace

Catalog
Catalog::standard()
{
    Catalog catalog;
    addComputes(catalog.computes());
    addSensors(catalog.sensors());
    addAirframes(catalog.airframes());
    addBatteries(catalog.batteries());
    addRooflines(catalog.rooflines());
    return catalog;
}

} // namespace uavf1::components
