/**
 * @file
 * Fig. 9: safe velocity against payload on the S500 validation build
 * (1030 g base, the Table-I usable thrust, 10 Hz loop, d = 3 m). Equal
 * payload steps cost unequal velocity: the loss is non-linear.
 */

#include "core/safety_model.hh"
#include "exec/parallel.hh"
#include "physics/acceleration.hh"
#include "scenario/studies/common.hh"
#include "sim/table1.hh"
#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1::scenario::detail {

namespace {

using namespace units::literals;

/** v_safe of the S500 build carrying `payload_grams`. */
double
safeVelocityWithPayload(double payload_grams)
{
    const units::Newtons thrust =
        units::gramsForceToNewtons(sim::table1UsableThrust());
    const units::Kilograms mass =
        units::toKilograms(1030.0_g + units::Grams(payload_grams));
    physics::AccelerationOptions options;
    options.law = physics::AccelerationLaw::VerticalExcess;
    const core::SafetyModel safety(
        physics::maxAcceleration(thrust, mass, options), 3.0_m);
    return safety.safeVelocityAtRate(10.0_hz).value();
}

StudyResult
run(const StudyContext &ctx)
{
    const std::size_t samples =
        ctx.params.getCount("sweep_samples", 141, kMaxSweepPoints);
    if (samples < 2) {
        throw ModelError(
            "fig09 payload sweep requires sweep_samples >= 2");
    }
    // 100 g .. 800 g, the paper's operating region; base + payload
    // stays below the usable thrust (1870 g-f).
    const auto payload = [&](std::size_t i) {
        return 100.0 + 700.0 * static_cast<double>(i) /
                           static_cast<double>(samples - 1);
    };
    std::vector<double> v_safe(samples);
    exec::ParallelOptions options = ctx.parallel;
    options.grain = 16; // Chunk geometry pins determinism.
    exec::parallelFor(
        samples,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                v_safe[i] = safeVelocityWithPayload(payload(i));
        },
        options);

    StudyResult result;
    result.xLabel = "payload_g";
    result.yLabel = "v_safe_mps";

    plot::Series curve("v_safe (10 Hz loop, d = 3 m)");
    for (std::size_t i = 0; i < samples; ++i)
        curve.add(payload(i), v_safe[i]);
    // Table I's builds, A..D, by the payload each carries.
    const struct
    {
        const char *name;
        double payload;
    } uavs[] = {
        {"UAV-A", 590.0},
        {"UAV-B", 800.0},
        {"UAV-C", 640.0},
        {"UAV-D", 690.0},
    };
    plot::Series markers("Table I builds",
                         plot::SeriesStyle::Markers);
    double v[4];
    for (std::size_t i = 0; i < 4; ++i) {
        v[i] = safeVelocityWithPayload(uavs[i].payload);
        markers.add(uavs[i].payload, v[i]);
        result.addMetric(std::string(uavs[i].name) + "_v_safe", v[i],
                         "m/s");
    }
    result.series.push_back(std::move(curve));
    result.series.push_back(std::move(markers));

    const double drop_a_to_c = 100.0 * (1.0 - v[2] / v[0]);
    const double drop_c_to_d = 100.0 * (1.0 - v[3] / v[2]);
    const double drop_a_to_b = 100.0 * (1.0 - v[1] / v[0]);
    // The paper's markers (A 2.13, C 1.58, D 1.53, B 1.51 m/s) imply
    // the drops, rounded to the percent.
    const std::string drop_cause =
        std::string("Fig. 9 markers; ") + kThrustCalibration;
    result.addMetric("drop_a_to_c", drop_a_to_c, "%",
                     gap(26.0, 1.0, drop_cause))
        .addMetric("drop_c_to_d", drop_c_to_d, "%",
                   gap(3.0, 1.0, drop_cause))
        .addMetric("drop_a_to_b", drop_a_to_b, "%",
                   gap(29.0, 1.0, drop_cause));
    result.summary = strFormat(
        "Non-linear payload effect: +50 g A->C costs %.1f%%, "
        "+50 g C->D costs %.1f%%, +210 g A->B costs %.1f%%\n",
        drop_a_to_c, drop_c_to_d, drop_a_to_b);
    return result;
}

} // namespace

StudyInfo
fig09Study()
{
    return {"fig09", "Fig. 9: velocity vs payload",
            "Non-linear safe-velocity loss with payload on "
            "the S500 build",
            {"sweep_samples"}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
