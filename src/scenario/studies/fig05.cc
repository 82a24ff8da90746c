/**
 * @file
 * Fig. 5: constructing the F-1 roofline from the safety model. T_action
 * sweeps (0, 5] s with the paper's example a_max = 50 m/s^2 and
 * d = 10 m; plotted against f_action = 1/T, v_safe shows the roof,
 * point A (1 Hz) and the knee region the paper marks at 100 Hz.
 */

#include "core/safety_model.hh"
#include "scenario/studies/common.hh"
#include "support/strings.hh"

namespace uavf1::scenario::detail {

namespace {

StudyResult
run(const StudyContext &ctx)
{
    using units::Hertz;
    const std::size_t samples =
        ctx.params.getCount("sweep_samples", 128, kMaxSweepPoints);
    const core::SafetyModel safety(
        units::MetersPerSecondSquared(50.0), units::Meters(10.0));

    StudyResult result;
    result.xLabel = "f_action_hz";
    result.yLabel = "v_safe_mps";

    plot::Series curve("v_safe");
    for (std::size_t i = 0; i < samples; ++i) {
        const double t_action = 5.0 * static_cast<double>(i + 1) /
                                static_cast<double>(samples);
        curve.add(1.0 / t_action,
                  safety.safeVelocity(units::Seconds(t_action)).value());
    }
    result.series.push_back(std::move(curve));

    const double roof = safety.physicsRoof().value();
    const double at_a = safety.safeVelocityAtRate(Hertz(1.0)).value();
    const double at_100hz =
        safety.safeVelocityAtRate(Hertz(100.0)).value();
    const double knee = safety.kneeThroughput().value();
    const double gain_a_to_knee = at_100hz / at_a;
    const double gain_beyond_knee =
        safety.safeVelocityAtRate(Hertz(10000.0)).value() / at_100hz;
    result
        .addMetric("roof_velocity", roof, "m/s",
                   paper(32.0, 1.0,
                         "Fig. 5: v -> 32 m/s as T_action -> 0"))
        .addMetric("velocity_at_1hz", at_a, "m/s",
                   paper(10.0, 1.0, "Fig. 5b: ~10 m/s at point A"))
        .addMetric("velocity_at_100hz", at_100hz, "m/s",
                   paper(30.0, 3.0, "Fig. 5b: ~30 m/s at 100 Hz"))
        .addMetric("knee_throughput", knee, "Hz")
        .addMetric("gain_a_to_knee", gain_a_to_knee, "",
                   gap(3.0, 0.3,
                       "Fig. 5: 100x the rate buys ~3x the velocity, "
                       "the ratio of the paper's rounded 10 and 30 "
                       "m/s; the safety model gives 9.16 -> 31.13 "
                       "m/s, 3.4x"))
        .addMetric("gain_beyond_knee", gain_beyond_knee, "",
                   paper(1.0, 0.1,
                         "Fig. 5: 100 Hz -> 10 kHz gains ~1x"));
    result.summary = strFormat(
        "Roofline construction: roof %.2f m/s, knee %.1f Hz; "
        "1 Hz -> %.2f m/s, 100 Hz -> %.2f m/s (gain %.2fx, "
        "beyond-knee gain %.2fx)\n",
        roof, knee, at_a, at_100hz, gain_a_to_knee, gain_beyond_knee);
    return result;
}

} // namespace

StudyInfo
fig05Study()
{
    return {"fig05", "Fig. 5: roofline construction",
            "Safe velocity vs action throughput; knee and "
            "diminishing returns",
            {"sweep_samples"}, {"csv", "svg", "json"}, run};
}

} // namespace uavf1::scenario::detail
