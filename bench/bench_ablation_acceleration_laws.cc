/**
 * @file
 * Ablation: acceleration-law choice (paper Eq. 5 variants).
 *
 * The F-1 model needs one number, a_max, but Eq. 5 admits several
 * flight-condition interpretations. This bench quantifies, for the
 * same builds, how the law choice moves a_max, the roof and the
 * knee — and therefore why DESIGN.md documents which law each
 * experiment uses.
 */

#include <cstdio>

#include "bench_common.hh"
#include "components/catalog.hh"
#include "core/uav_config.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace {

using namespace uavf1;

core::UavConfig
buildWithLaw(const std::string &airframe,
             const std::string &compute,
             const std::string &sensor,
             physics::AccelerationLaw law)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    physics::AccelerationOptions options;
    options.law = law;
    options.maxTilt = units::Degrees(25.0);
    return core::UavConfig::Builder(airframe + "/" +
                                    physics::toString(law))
        .airframe(catalog.airframes().byName(airframe))
        .sensor(catalog.sensors().byName(sensor))
        .compute(catalog.computes().byName(compute))
        .algorithm(algorithms.byName("DroNet"))
        .accelerationOptions(options)
        .build();
}

void
printAblation()
{
    bench::banner("Ablation", "Acceleration-law choice (DroNet "
                              "configurations)");

    const struct
    {
        const char *airframe;
        const char *compute;
        const char *sensor;
    } builds[] = {
        {"AscTec Pelican", "Nvidia TX2", "RGB-D 60FPS (4.5m)"},
        {"DJI Spark", "Intel NCS", "60FPS camera (6m)"},
        {"DJI Spark", "Nvidia AGX", "60FPS camera (6m)"},
    };
    const physics::AccelerationLaw laws[] = {
        physics::AccelerationLaw::HoverConstrained,
        physics::AccelerationLaw::VerticalExcess,
        physics::AccelerationLaw::TiltLimited,
    };

    TextTable table({"Build", "Law", "T/W", "a_max (m/s^2)",
                     "Roof (m/s)", "Knee (Hz)"});
    for (const auto &build : builds) {
        for (const auto law : laws) {
            const auto config = buildWithLaw(
                build.airframe, build.compute, build.sensor, law);
            const auto analysis = config.f1Model().analyze();
            table.addRow(
                {std::string(build.airframe) + "+" + build.compute,
                 physics::toString(law),
                 trimmedNumber(config.thrustToWeight(), 2),
                 trimmedNumber(config.maxAcceleration().value(), 2),
                 trimmedNumber(analysis.roofVelocity.value(), 2),
                 trimmedNumber(analysis.kneeThroughput.value(),
                               1)});
        }
    }
    std::printf("%s\n", table.render().c_str());
    bench::note("hover-constrained >= vertical-excess always "
                "(sqrt(twr^2-1) >= twr-1); the 25-deg tilt clip "
                "binds only for high-T/W builds. Law choice scales "
                "the roof by up to ~2x near T/W ~ 1, which is why "
                "each case study documents its law");
}

} // namespace

int
main()
{
    printAblation();
    return 0;
}
