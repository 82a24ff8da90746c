/**
 * @file
 * Registration of every built-in paper figure/table study.
 *
 * Each adapter wraps one existing study entry point (src/studies/,
 * src/sim/, src/thermal/, src/skyline/) into the uniform
 * StudyInfo/StudyResult shape so the ScenarioRunner and the
 * skyline_cli driver can enumerate and execute all of them through
 * one path.
 */

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "pipeline/redundancy.hh"
#include "platform/roofline_platform.hh"
#include "plot/roofline_chart.hh"
#include "scenario/runner.hh"
#include "scenario/study.hh"
#include "sim/table1.hh"
#include "sim/validation.hh"
#include "skyline/report.hh"
#include "skyline/session.hh"
#include "studies/fig02_swap.hh"
#include "studies/fig05_safety.hh"
#include "studies/fig09_payload.hh"
#include "studies/fig11_compute.hh"
#include "studies/fig13_algorithms.hh"
#include "studies/fig14_redundancy.hh"
#include "studies/fig15_full_system.hh"
#include "studies/fig16_accelerators.hh"
#include "studies/presets.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "thermal/heatsink.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/stage_eval.hh"
#include "workload/throughput.hh"

namespace uavf1::scenario {

namespace {

// Resource caps: the largest counts a study accepts, checked before
// any cast or allocation, so an oversized scenario fails naming its
// parameter instead of wrapping or exhausting memory.
constexpr std::size_t kMaxSweepPoints = 100000; ///< Points per series.
constexpr std::size_t kMaxMissions = 100000000; ///< faults samples.
constexpr std::size_t kMaxLevels = 1000;        ///< faults levels.

// Paper references (arXiv 2204.10898). A tolerance is the precision
// of the quote:
//  - a number quoted to some digit matches to one unit of that digit
//    (the paper rounds some values and truncates others: TrailNet's
//    55/43 Hz = 1.279 appears as 1.27x);
//  - a round "~" number with one significant figure ("~10 m/s",
//    "~3x") matches to 10%;
//  - a value our simulated flights measure matches to the
//    simulation's resolution, stated in the note.
// A value outside its tolerance is declared a gap whose note names
// the cause; tests/fidelity_test.cc asserts both kinds.

/** A paper value the metric matches within `tolerance`. */
PaperReference
paper(double value, double tolerance, std::string note)
{
    return {value, tolerance, std::move(note)};
}

/** A paper value the metric misses; `cause` says why. */
PaperReference
gap(double value, double tolerance, std::string cause)
{
    return {value, tolerance, std::move(cause), true};
}

/** Why the Table I builds fly at other speeds than the paper's. */
const char *const kThrustCalibration =
    "usable thrust is calibrated to 1870 g-f, as Table I's 4 x 435 g "
    "cannot hover UAV-B (1830 g), so each build's a_max differs";

StudyResult
runFig02Study(const StudyContext &)
{
    const studies::Fig02Result fig = studies::runFig02();
    StudyResult result;
    result.xLabel = "capacity_mah";
    result.yLabel = "endurance_min";

    TextTable table({"Class", "Frame (mm)", "Capacity (mAh)",
                     "Endurance (min)", "Implied draw (W)"});
    plot::Series endurance("endurance",
                           plot::SeriesStyle::LineAndMarkers);
    for (const auto &row : fig.rows) {
        table.addRow({row.sizeClass, trimmedNumber(row.frameSizeMm),
                      trimmedNumber(row.capacityMah),
                      trimmedNumber(row.enduranceMin),
                      trimmedNumber(row.impliedDrawW, 2)});
        endurance.add(row.capacityMah, row.enduranceMin);
        result.addMetric(row.sizeClass + "_implied_draw",
                         row.impliedDrawW, "W");
        result.addMetric(row.sizeClass + "_usable_energy",
                         row.usableEnergyWh, "Wh");
    }
    result.series.push_back(std::move(endurance));
    result
        .addMetric("nano_capacity", fig.rows[0].capacityMah, "mAh",
                   paper(240.0, 1.0, "Fig. 2b: nano battery"))
        .addMetric("micro_capacity", fig.rows[1].capacityMah, "mAh",
                   paper(1300.0, 1.0, "Fig. 2b: micro battery"))
        .addMetric("mini_capacity", fig.rows[2].capacityMah, "mAh",
                   paper(3830.0, 1.0, "Fig. 2b: mini battery"))
        .addMetric("nano_endurance", fig.rows[0].enduranceMin, "min",
                   paper(6.0, 1.0, "Fig. 2b: nano endurance"))
        .addMetric("mini_endurance", fig.rows[2].enduranceMin, "min",
                   paper(30.0, 1.0, "Fig. 2b: mini endurance"));
    result.summary = table.render();
    return result;
}

StudyResult
runFig04Study(const StudyContext &)
{
    StudyResult result;
    result.xLabel = "f_compute_hz";
    result.yLabel = "v_safe_mps";

    const struct
    {
        const char *label;
        double sensor;
        double compute;
    } scenarios[] = {
        {"compute-bound", 60.0, 5.0},
        {"sensor-bound", 10.0, 178.0},
        {"physics-bound", 60.0, 178.0},
    };
    TextTable table({"Scenario", "f_sensor (Hz)", "f_compute (Hz)",
                     "f_action (Hz)", "v_safe (m/s)", "Bound"});
    plot::Series points("bound regions",
                        plot::SeriesStyle::Markers);
    for (const auto &scenario : scenarios) {
        core::F1Inputs inputs = studies::pelicanInputs(
            units::Hertz(scenario.compute));
        inputs.sensorRate = units::Hertz(scenario.sensor);
        const core::F1Analysis analysis =
            core::F1Model(inputs).analyze();
        table.addRow({scenario.label,
                      trimmedNumber(scenario.sensor),
                      trimmedNumber(scenario.compute),
                      trimmedNumber(analysis.actionThroughput.value()),
                      trimmedNumber(analysis.safeVelocity.value(), 2),
                      core::toString(analysis.bound)});
        points.add(scenario.compute,
                   analysis.safeVelocity.value());
        result.addMetric(std::string(scenario.label) + "_v_safe",
                         analysis.safeVelocity.value(), "m/s");
    }
    result.series.push_back(std::move(points));
    result.summary = table.render();
    return result;
}

StudyResult
runFig05Study(const StudyContext &ctx)
{
    const studies::Fig05Result fig = studies::runFig05(
        ctx.params.getCount("sweep_samples", 128, kMaxSweepPoints));
    StudyResult result;
    result.xLabel = "f_action_hz";
    result.yLabel = "v_safe_mps";

    plot::Series curve("v_safe");
    for (const auto &point : fig.sweep) {
        if (std::isfinite(point.fAction) && point.fAction > 0.0)
            curve.add(point.fAction, point.vSafe);
    }
    result.series.push_back(std::move(curve));

    result
        .addMetric("roof_velocity", fig.roof, "m/s",
                   paper(32.0, 1.0,
                         "Fig. 5: v -> 32 m/s as T_action -> 0"))
        .addMetric("velocity_at_1hz", fig.velocityAtA, "m/s",
                   paper(10.0, 1.0, "Fig. 5b: ~10 m/s at point A"))
        .addMetric("velocity_at_100hz", fig.velocityAt100Hz, "m/s",
                   paper(30.0, 3.0, "Fig. 5b: ~30 m/s at 100 Hz"))
        .addMetric("knee_throughput", fig.kneeThroughput, "Hz")
        .addMetric("gain_a_to_knee", fig.gainAToKnee, "",
                   gap(3.0, 0.3,
                       "Fig. 5: 100x the rate buys ~3x the velocity, "
                       "the ratio of the paper's rounded 10 and 30 "
                       "m/s; the safety model gives 9.16 -> 31.13 "
                       "m/s, 3.4x"))
        .addMetric("gain_beyond_knee", fig.gainBeyondKnee, "",
                   paper(1.0, 0.1,
                         "Fig. 5: 100 Hz -> 10 kHz gains ~1x"));
    result.summary = strFormat(
        "Roofline construction: roof %.2f m/s, knee %.1f Hz; "
        "1 Hz -> %.2f m/s, 100 Hz -> %.2f m/s (gain %.2fx, "
        "beyond-knee gain %.2fx)\n",
        fig.roof, fig.kneeThroughput, fig.velocityAtA,
        fig.velocityAt100Hz, fig.gainAToKnee, fig.gainBeyondKnee);
    return result;
}

StudyResult
runFig07Study(const StudyContext &ctx)
{
    const auto results = sim::ValidationHarness::validateAll(
        sim::table1ValidationCases(), ctx.parallel);
    const auto paper_errors = sim::table1PaperErrorPercent();
    // One 0.05 m/s step of the simulated velocity sweep moves a
    // build's error by 2.1-5.1 pp, so 2 pp is the finest match the
    // simulated flights resolve.
    const double error_resolution = 2.0;

    StudyResult result;
    result.xLabel = "commanded_velocity_mps";
    result.yLabel = "infraction_fraction";

    TextTable table({"UAV", "Predicted (m/s)", "Observed (m/s)",
                     "Error (%)", "Paper error (%)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sim::ValidationResult &r = results[i];
        table.addRow({r.name, trimmedNumber(r.predicted, 3),
                      trimmedNumber(r.observed, 3),
                      trimmedNumber(r.errorPercent, 2),
                      i < paper_errors.size()
                          ? trimmedNumber(paper_errors[i], 2)
                          : "-"});
        result.addMetric(r.name + "_predicted", r.predicted, "m/s");
        result.addMetric(r.name + "_observed", r.observed, "m/s");
        result.addMetric(
            r.name + "_error", r.errorPercent, "%",
            r.name == "UAV-C"
                ? gap(paper_errors[i], error_resolution,
                      "Fig. 7b: our UAV-C flies at 2.54 m/s, not the "
                      "paper's 1.58 (see table1), and the simulated "
                      "error grows with speed through the drag and "
                      "actuation lag the F-1 model omits")
                : paper(paper_errors[i], error_resolution,
                        "Fig. 7b: model-vs-flight error"));

        plot::Series sweep(r.name,
                           plot::SeriesStyle::LineAndMarkers);
        for (const auto &outcome : r.sweep) {
            sweep.add(outcome.velocity,
                      outcome.trials > 0
                          ? static_cast<double>(outcome.infractions) /
                                outcome.trials
                          : 0.0);
        }
        result.series.push_back(std::move(sweep));
    }
    result.summary = table.render();
    return result;
}

StudyResult
runFig09Study(const StudyContext &ctx)
{
    const studies::Fig09Result fig = studies::runFig09(
        ctx.params.getCount("sweep_samples", 141, kMaxSweepPoints),
        ctx.parallel);
    StudyResult result;
    result.xLabel = "payload_g";
    result.yLabel = "v_safe_mps";

    plot::Series curve("v_safe (10 Hz loop, d = 3 m)");
    for (const auto &point : fig.sweep)
        curve.add(point.payloadGrams, point.vSafe);
    plot::Series markers("Table I builds",
                         plot::SeriesStyle::Markers);
    for (const auto &marker : fig.markers) {
        markers.add(marker.payloadGrams, marker.vSafe);
        result.addMetric(marker.name + "_v_safe", marker.vSafe,
                         "m/s");
    }
    result.series.push_back(std::move(curve));
    result.series.push_back(std::move(markers));

    // The paper's markers (A 2.13, C 1.58, D 1.53, B 1.51 m/s) imply
    // the drops, rounded to the percent.
    const std::string drop_cause =
        std::string("Fig. 9 markers; ") + kThrustCalibration;
    result.addMetric("drop_a_to_c", fig.dropAtoC, "%",
                     gap(26.0, 1.0, drop_cause))
        .addMetric("drop_c_to_d", fig.dropCtoD, "%",
                   gap(3.0, 1.0, drop_cause))
        .addMetric("drop_a_to_b", fig.dropAtoB, "%",
                   gap(29.0, 1.0, drop_cause));
    result.summary = strFormat(
        "Non-linear payload effect: +50 g A->C costs %.1f%%, "
        "+50 g C->D costs %.1f%%, +210 g A->B costs %.1f%%\n",
        fig.dropAtoC, fig.dropCtoD, fig.dropAtoB);
    return result;
}

StudyResult
runFig11Study(const StudyContext &ctx)
{
    const studies::Fig11Result fig = studies::runFig11(ctx.parallel);
    StudyResult result;
    result.xLabel = "f_compute_hz";
    result.yLabel = "v_safe_mps";

    TextTable table({"Option", "Throughput (Hz)", "Heatsink (g)",
                     "Takeoff (g)", "Roof (m/s)"});
    plot::Series points("compute options",
                        plot::SeriesStyle::Markers);
    for (const studies::Fig11Option *option :
         {&fig.ncs, &fig.agx30, &fig.agx15}) {
        table.addRow(
            {option->name, trimmedNumber(option->throughputHz),
             trimmedNumber(option->heatsinkGrams, 1),
             trimmedNumber(option->takeoffGrams),
             trimmedNumber(option->analysis.roofVelocity.value(),
                           2)});
        points.add(option->throughputHz,
                   option->analysis.safeVelocity.value());
    }
    result.series.push_back(std::move(points));

    result
        .addMetric("ncs_roof", fig.ncs.analysis.roofVelocity.value(),
                   "m/s")
        .addMetric("agx30_roof",
                   fig.agx30.analysis.roofVelocity.value(), "m/s")
        .addMetric("agx15_roof",
                   fig.agx15.analysis.roofVelocity.value(), "m/s")
        .addMetric("agx_tdp_gain", fig.agxTdpGain, "",
                   paper(1.75, 0.01,
                         "Fig. 11: the AGX at 15 W raises its roof "
                         "1.75x"))
        .addMetric("ncs_wins", fig.ncsWins ? 1.0 : 0.0, "",
                   paper(1.0, 0.0,
                         "Fig. 11: the NCS roofline tops the "
                         "AGX-30W one"))
        .addMetric("ncs_throughput", fig.ncs.throughputHz, "Hz",
                   paper(150.0, 1.0, "Fig. 11: DroNet on the NCS"))
        .addMetric("agx30_throughput", fig.agx30.throughputHz, "Hz",
                   paper(230.0, 1.0, "Fig. 11: DroNet on the AGX"))
        .addMetric("agx30_heatsink", fig.agx30.heatsinkGrams, "g",
                   paper(162.0, 1.0, "Fig. 11: AGX heat sink at 30 W"))
        .addMetric("agx15_heatsink", fig.agx15.heatsinkGrams, "g",
                   paper(81.0, 1.0, "Fig. 11: AGX heat sink at 15 W"));
    result.summary =
        table.render() +
        strFormat("AGX 30 W -> 15 W raises the roof %.2fx; NCS %s "
                  "the AGX-30W roofline\n",
                  fig.agxTdpGain, fig.ncsWins ? "tops" : "trails");
    return result;
}

StudyResult
runFig12Study(const StudyContext &)
{
    const thermal::HeatsinkModel model;
    StudyResult result;
    result.xLabel = "tdp_w";
    result.yLabel = "heatsink_g";

    plot::Series curve("heatsink mass");
    for (double tdp = 1.0; tdp <= 34.0; tdp *= 1.3)
        curve.add(tdp, model.mass(units::Watts(tdp)).value());
    result.series.push_back(std::move(curve));

    const double at30 = model.mass(units::Watts(30.0)).value();
    const double at15 = model.mass(units::Watts(15.0)).value();
    const double at1_5 = model.mass(units::Watts(1.5)).value();
    result
        .addMetric("mass_at_30w", at30, "g",
                   paper(162.0, 1.0, "Fig. 12: 162 g at 30 W"))
        .addMetric("mass_at_15w", at15, "g",
                   paper(81.0, 1.0, "Fig. 12: 81 g at 15 W"))
        .addMetric("mass_at_1_5w", at1_5, "g",
                   paper(10.0, 1.0, "Fig. 12: ~10 g at 1.5 W"))
        .addMetric("mass_ratio_20x_tdp", at30 / at1_5, "",
                   paper(16.2, 0.1,
                         "Fig. 12: ~20x the TDP, ~16.2x the mass"));
    result.summary = strFormat(
        "Heat-sink scaling: %.0f g @ 30 W, %.0f g @ 15 W, "
        "%.0f g @ 1.5 W (~20x TDP -> %.1fx mass)\n",
        at30, at15, at1_5, at30 / at1_5);
    return result;
}

StudyResult
runFig13Study(const StudyContext &)
{
    const studies::Fig13Result fig = studies::runFig13();
    StudyResult result;
    result.xLabel = "f_compute_hz";
    result.yLabel = "v_safe_mps";

    TextTable table({"Algorithm", "Throughput (Hz)",
                     "v_safe (m/s)", "Factor vs knee"});
    plot::Series points("algorithms", plot::SeriesStyle::Markers);
    // Entries are SPA, TrailNet, DroNet; the paper quotes the first
    // two factors.
    const std::optional<PaperReference> factor_refs[] = {
        paper(39.0, 1.0, "Fig. 13: SPA needs 39x to reach the knee"),
        paper(1.27, 0.01,
              "Fig. 13: TrailNet is over-provisioned 1.27x"),
        std::nullopt};
    for (std::size_t i = 0; i < fig.entries.size(); ++i) {
        const studies::Fig13Entry &entry = fig.entries[i];
        table.addRow(
            {entry.algorithm, trimmedNumber(entry.throughputHz),
             trimmedNumber(entry.analysis.safeVelocity.value(), 2),
             trimmedNumber(entry.factorVsKnee, 2)});
        points.add(entry.throughputHz,
                   entry.analysis.safeVelocity.value());
        result.addMetric(entry.algorithm + "_factor_vs_knee",
                         entry.factorVsKnee, "",
                         i < std::size(factor_refs) ? factor_refs[i]
                                                    : std::nullopt);
    }
    result.series.push_back(std::move(points));
    const studies::Fig13Entry &spa = fig.entries[0];
    const studies::Fig13Entry &dronet = fig.entries[2];
    result
        .addMetric("knee_throughput", fig.kneeThroughput, "Hz",
                   paper(43.0, 1.0, "Fig. 13: Pelican knee at 43 Hz"))
        .addMetric(spa.algorithm + "_v_safe",
                   spa.analysis.safeVelocity.value(), "m/s",
                   paper(2.3, 0.1, "Fig. 13: SPA flies at 2.3 m/s"))
        .addMetric(dronet.algorithm + "_compute_margin",
                   dronet.throughputHz / fig.kneeThroughput, "",
                   gap(4.13, 0.01,
                       "Fig. 13: DroNet's 178 Hz over the knee; the "
                       "paper truncates 178/43 = 4.1395, our knee of "
                       "42.995 Hz gives 4.1401"));
    result.summary = table.render();
    return result;
}

StudyResult
runFig14Study(const StudyContext &)
{
    const studies::Fig14Result fig = studies::runFig14();
    StudyResult result;
    result.xLabel = "compute_g";
    result.yLabel = "v_safe_mps";

    TextTable table({"Arrangement", "Replicas", "Compute (g)",
                     "Takeoff (g)", "v_safe (m/s)"});
    plot::Series points("redundancy", plot::SeriesStyle::Markers);
    for (const studies::Fig14Option *option :
         {&fig.single, &fig.dual}) {
        table.addRow(
            {option->name, trimmedNumber(option->replicas),
             trimmedNumber(option->computeGrams),
             trimmedNumber(option->takeoffGrams),
             trimmedNumber(option->analysis.safeVelocity.value(),
                           2)});
        points.add(option->computeGrams,
                   option->analysis.safeVelocity.value());
    }
    result.series.push_back(std::move(points));

    result
        .addMetric("velocity_loss", fig.velocityLossPercent, "%",
                   paper(33.0, 1.0,
                         "Fig. 14: DMR costs 33% of v_safe"))
        .addMetric("single_v_safe",
                   fig.single.analysis.safeVelocity.value(), "m/s")
        .addMetric("dual_v_safe",
                   fig.dual.analysis.safeVelocity.value(), "m/s");
    result.summary =
        table.render() +
        strFormat("DMR compute lowers v_safe by %.0f%%\n",
                  fig.velocityLossPercent);
    return result;
}

StudyResult
runFig15Study(const StudyContext &)
{
    const studies::Fig15Result fig = studies::runFig15();
    StudyResult result;
    result.xLabel = "f_compute_hz";
    result.yLabel = "v_safe_mps";

    TextTable table({"UAV", "Algorithm", "Compute",
                     "Throughput (Hz)", "v_safe (m/s)",
                     "Factor vs knee"});
    plot::Series pelican("AscTec Pelican",
                         plot::SeriesStyle::Markers);
    plot::Series spark("DJI Spark", plot::SeriesStyle::Markers);
    for (const auto &entry : fig.entries) {
        table.addRow(
            {entry.uav, entry.algorithm, entry.compute,
             trimmedNumber(entry.throughputHz, 4),
             trimmedNumber(entry.analysis.safeVelocity.value(), 2),
             trimmedNumber(entry.factorVsKnee, 2)});
        (entry.uav == "DJI Spark" ? spark : pelican)
            .add(entry.throughputHz,
                 entry.analysis.safeVelocity.value());
    }
    result.series.push_back(std::move(pelican));
    result.series.push_back(std::move(spark));

    const auto raspi4_speedup = [&](const char *algorithm) {
        return fig.find("AscTec Pelican", algorithm, "Ras-Pi4")
            .factorVsKnee;
    };
    result
        .addMetric("pelican_knee", fig.pelicanKnee, "Hz",
                   paper(43.0, 1.0, "Fig. 15: Pelican knee at 43 Hz"))
        .addMetric("spark_knee", fig.sparkKnee, "Hz",
                   paper(30.0, 1.0, "Fig. 15: Spark knee at 30 Hz"))
        .addMetric("entries",
                   static_cast<double>(fig.entries.size()))
        .addMetric("spark_tx2_dronet_over_provision",
                   fig.find("DJI Spark", "DroNet", "Nvidia TX2")
                           .throughputHz /
                       fig.sparkKnee,
                   "",
                   paper(6.0, 0.6,
                         "Fig. 15: DroNet on a TX2 over-provisions "
                         "the Spark ~6x"))
        .addMetric("pelican_raspi4_dronet_speedup",
                   raspi4_speedup("DroNet"), "",
                   paper(3.3, 0.1,
                         "Fig. 15: Ras-Pi4 needs 3.3x for DroNet"))
        .addMetric("pelican_raspi4_trailnet_speedup",
                   raspi4_speedup("TrailNet"), "",
                   paper(110.0, 1.0,
                         "Fig. 15: Ras-Pi4 needs 110x for TrailNet"))
        .addMetric("pelican_raspi4_cad2rl_speedup",
                   raspi4_speedup("CAD2RL"), "",
                   paper(660.0, 1.0,
                         "Fig. 15: Ras-Pi4 needs 660x for CAD2RL"));
    result.summary = table.render();
    return result;
}

StudyResult
runFig16Study(const StudyContext &ctx)
{
    const studies::Fig16Result fig = studies::runFig16(ctx.parallel);
    StudyResult result;
    result.xLabel = "f_action_hz";
    result.yLabel = "v_safe_mps";

    TextTable table({"Accelerator", "Decision rate (Hz)",
                     "Power (W)", "Required speedup"});
    plot::Series points("accelerators", plot::SeriesStyle::Markers);
    for (const studies::Fig16Entry *entry :
         {&fig.pulp, &fig.navion}) {
        table.addRow({entry->name,
                      trimmedNumber(entry->throughputHz, 3),
                      trimmedNumber(entry->powerWatts, 3),
                      trimmedNumber(entry->requiredSpeedup, 2)});
        points.add(entry->throughputHz,
                   entry->analysis.safeVelocity.value());
    }
    result.series.push_back(std::move(points));

    result
        .addMetric("knee_throughput", fig.kneeThroughput, "Hz",
                   paper(26.0, 1.0, "Fig. 16: nano-UAV knee at 26 Hz"))
        .addMetric("pulp_required_speedup", fig.pulp.requiredSpeedup,
                   "",
                   paper(4.33, 0.01, "Fig. 16: PULP-DroNet needs "
                                     "4.33x"))
        .addMetric("navion_required_speedup",
                   fig.navion.requiredSpeedup, "",
                   paper(21.1, 0.1, "Fig. 16: Navion in SPA needs "
                                    "21.1x"))
        .addMetric("pulp_throughput", fig.pulp.throughputHz, "Hz",
                   paper(6.0, 1.0, "Fig. 16: PULP-DroNet at 6 Hz"))
        .addMetric("navion_latency",
                   fig.navionPipeline.totalLatency().value() * 1000.0,
                   "ms",
                   paper(810.0, 1.0,
                         "Fig. 16: SPA with Navion takes 810 ms"))
        .addMetric("navion_throughput", fig.navion.throughputHz, "Hz",
                   paper(1.23, 0.01,
                         "Fig. 16: SPA with Navion at 1.23 Hz"));
    result.summary = table.render();
    return result;
}

StudyResult
runTable1Study(const StudyContext &)
{
    const auto cases = sim::table1ValidationCases();
    StudyResult result;
    result.xLabel = "takeoff_g";
    result.yLabel = "predicted_v_safe_mps";

    TextTable table({"UAV", "Takeoff (g)", "Predicted (m/s)"});
    plot::Series points("Table I builds",
                        plot::SeriesStyle::Markers);
    // The paper's predictions for UAV-A..D (its Fig. 9 markers).
    const double paper_predicted[] = {2.13, 1.51, 1.58, 1.53};
    const std::string predicted_cause =
        std::string("Fig. 9 marker; ") + kThrustCalibration;
    char letter = 'A';
    for (const auto &vcase : cases) {
        const double takeoff =
            sim::table1TakeoffMass(letter).value();
        const double predicted =
            sim::ValidationHarness::predictedSafeVelocity(vcase);
        table.addRow({vcase.name, trimmedNumber(takeoff),
                      trimmedNumber(predicted, 3)});
        points.add(takeoff, predicted);
        result.addMetric(
            vcase.name + "_predicted", predicted, "m/s",
            gap(paper_predicted[letter - 'A'], 0.01, predicted_cause));
        result.addMetric(vcase.name + "_takeoff", takeoff, "g");
        ++letter;
    }
    result.series.push_back(std::move(points));
    result.addMetric("usable_thrust",
                     sim::table1UsableThrust().value(), "g");
    result.summary = table.render();
    return result;
}

/** Apply every override to a session as a knob assignment. */
skyline::SkylineSession
sessionFromParams(const StudyParams &params)
{
    skyline::SkylineSession session;
    for (const auto &entry : params.entries())
        session.set(entry.first, entry.second);
    return session;
}

StudyResult
runTable2Study(const StudyContext &ctx)
{
    const skyline::SkylineSession session =
        sessionFromParams(ctx.params);
    const skyline::Analysis analysis = session.analyze();

    StudyResult result;
    result.xLabel = "f_action_hz";
    result.yLabel = "v_safe_mps";
    result.chartTitle = "Skyline: " + session.knobs().algorithm;

    plot::Series curve("roofline: " + session.knobs().algorithm);
    for (const auto &point : session.model().curve().points) {
        curve.add(point.actionThroughput.value(),
                  point.safeVelocity.value());
    }
    result.series.push_back(std::move(curve));

    const core::F1Analysis &f1 = analysis.f1;
    result.addMetric("safe_velocity", f1.safeVelocity.value(), "m/s")
        .addMetric("roof_velocity", f1.roofVelocity.value(), "m/s")
        .addMetric("knee_throughput", f1.kneeThroughput.value(),
                   "Hz")
        .addMetric("action_throughput",
                   f1.actionThroughput.value(), "Hz")
        .addMetric("takeoff_mass", analysis.takeoffMass.value(), "g")
        .addMetric("heatsink_mass", analysis.heatsinkMass.value(),
                   "g")
        .addMetric("thrust_to_weight", analysis.thrustToWeight)
        .addMetric("over_provision_factor", f1.overProvisionFactor)
        .addMetric("required_speedup", f1.requiredSpeedup);
    // Binding-ceiling attribution, present only when the platform
    // knob routed f_compute through a roofline bound (so legacy
    // sessions keep their exact artifact bytes).
    if (f1.computeBinding.attributed) {
        result
            .addMetric("binding_kind",
                       f1.computeBinding.kind ==
                               platform::CeilingKind::Compute
                           ? 0.0
                           : 1.0)
            .addMetric("binding_index",
                       static_cast<double>(f1.computeBinding.index))
            .addMetric("compute_rate",
                       session.model().inputs().computeRate.value(),
                       "Hz");
    }
    // Per-stage breakdown of the SPA pipeline, present only when
    // the platform path evaluated one (so legacy sessions keep
    // their exact artifact bytes).
    for (std::size_t i = 0; i < analysis.stages.size(); ++i) {
        const skyline::StageAnalysis &row = analysis.stages[i];
        const std::string prefix =
            "stage_" + ScenarioRunner::sanitizeLabel(row.stage);
        result.addMetric(prefix + "_latency", row.latencyMs, "ms");
        if (row.bottleneck) {
            result.addMetric("bottleneck_stage",
                             static_cast<double>(i));
        }
    }
    result.summary = session.renderAnalysis();
    result.reportHtml = skyline::ReportWriter::html(
        session, "Skyline report: " + session.knobs().algorithm);
    return result;
}

StudyResult
runTable3Study(const StudyContext &)
{
    const studies::Fig11Result fig11 = studies::runFig11();
    const studies::Fig13Result fig13 = studies::runFig13();
    const studies::Fig14Result fig14 = studies::runFig14();
    const studies::Fig15Result fig15 = studies::runFig15();

    StudyResult result;
    TextTable table({"Case study", "UAV", "Headline result"});
    table.addRow(
        {"VI-A Onboard compute", "DJI Spark",
         strFormat("NCS roof %.1f m/s vs AGX-30W %.1f m/s; 15 W "
                   "what-if +%.0f%%",
                   fig11.ncs.analysis.roofVelocity.value(),
                   fig11.agx30.analysis.roofVelocity.value(),
                   (fig11.agxTdpGain - 1.0) * 100.0)});
    table.addRow(
        {"VI-B Autonomy algorithms", "AscTec Pelican",
         strFormat("knee %.0f Hz; SPA needs %.0fx",
                   fig13.kneeThroughput,
                   fig13.entries[0].factorVsKnee)});
    table.addRow({"VI-C Payload redundancy", "AscTec Pelican",
                  strFormat("DMR lowers v_safe by %.0f%%",
                            fig14.velocityLossPercent)});
    table.addRow(
        {"VI-D Full UAV system", "Pelican & Spark",
         strFormat("knees %.0f / %.0f Hz across %zu design points",
                   fig15.pelicanKnee, fig15.sparkKnee,
                   fig15.entries.size())});
    result.summary = table.render();

    result
        .addMetric("agx_tdp_gain", fig11.agxTdpGain)
        .addMetric("spa_required_speedup",
                   fig13.entries[0].factorVsKnee)
        .addMetric("dmr_velocity_loss", fig14.velocityLossPercent,
                   "%")
        .addMetric("pelican_knee", fig15.pelicanKnee, "Hz")
        .addMetric("spark_knee", fig15.sparkKnee, "Hz");
    return result;
}

StudyResult
runRooflineStudy(const StudyContext &ctx)
{
    const auto presets = studies::rooflinePlatformPresets();
    const platform::RooflinePlatform &machine =
        presets.byName(ctx.params.get("platform", "Nvidia TX2"));
    const std::string op_name = ctx.params.get("op", "");
    const std::size_t op =
        op_name.empty() ? 0 : machine.operatingPointIndex(op_name);
    const double ai_min = ctx.params.getNumber("ai_min", 0.01);
    const double ai_max = ctx.params.getNumber("ai_max", 1000.0);
    const auto samples =
        ctx.params.getCount("samples", 97, kMaxSweepPoints);
    const std::string workloads =
        toLower(trim(ctx.params.get("workloads", "standard")));
    if (workloads != "standard" && workloads != "annotated") {
        throw ModelError("parameter 'workloads' must be 'standard' "
                         "or 'annotated', got '" + workloads + "'");
    }
    const bool annotated = workloads == "annotated";

    StudyResult result;
    result.xLabel = "arithmetic_intensity_op_b";
    result.yLabel = "attainable_gops";
    result.chartTitle = "Hierarchical roofline: " + machine.name();
    result.series = plot::ceilingFamilySeries(machine, op, ai_min,
                                              ai_max, samples);

    const auto &point = machine.operatingPoints()[op];
    result
        .addMetric("compute_ceilings",
                   static_cast<double>(
                       machine.computeCeilings().size()))
        .addMetric("memory_ceilings",
                   static_cast<double>(machine.memoryCeilings().size()))
        .addMetric("frequency_fraction", point.frequencyFraction)
        .addMetric("operating_tdp", point.tdp.value(), "W");

    // Mark every algorithm on the envelope and attribute its bound
    // to the binding ceiling. With workloads=annotated, the
    // ceiling-annotated variants join in and each annotated
    // workload also gets its *own* attainable envelope — the
    // ceilings its applicability mask and per-level traffic admit —
    // so binding diversity is visible on the chart.
    TextTable table({"Algorithm", "AI (op/B)", "Attainable (GOPS)",
                     "Bound (Hz)", "Binding ceiling"});
    plot::Series markers("algorithms", plot::SeriesStyle::Markers);
    const auto algorithms = annotated
                                ? workload::annotatedAlgorithms()
                                : workload::standardAlgorithms();
    for (const auto &algo : algorithms.items()) {
        const auto estimate = workload::rooflineBound(algo, machine,
                                                      op);
        // One ceiling-set evaluation per algorithm: the attainable
        // GOPS is the bound times the per-frame work.
        const double attainable_gops =
            estimate.value.value() * algo.workPerFrameGop();
        markers.add(algo.arithmeticIntensity().value(),
                    attainable_gops);
        table.addRow(
            {algo.name(),
             trimmedNumber(algo.arithmeticIntensity().value(), 3),
             trimmedNumber(attainable_gops, 4),
             trimmedNumber(estimate.value.value(), 4),
             std::string(platform::toString(estimate.binding.kind)) +
                 ": " + machine.ceilingName(estimate.binding)});
        result.addMetric(algo.name() + "_bound",
                         estimate.value.value(), "Hz");
        // Kind and index together identify the ceiling: the index
        // alone is ambiguous across the compute/memory families.
        result.addMetric(algo.name() + "_binding_kind",
                         estimate.binding.kind ==
                                 platform::CeilingKind::Compute
                             ? 0.0
                             : 1.0);
        result.addMetric(algo.name() + "_binding_index",
                         static_cast<double>(estimate.binding.index));

        if (annotated && algo.traits().annotated()) {
            platform::WorkloadProfile profile =
                workload::workloadProfile(algo, machine);
            plot::Series envelope("envelope: " + algo.name());
            for (std::size_t i = 0; i < samples; ++i) {
                const double frac =
                    static_cast<double>(i) /
                    static_cast<double>(samples - 1);
                profile.ai = units::OpsPerByte(
                    ai_min * std::pow(ai_max / ai_min, frac));
                envelope.add(profile.ai.value(),
                             machine.attainable(profile, op)
                                 .attainable.value());
            }
            result.series.push_back(std::move(envelope));
        }
    }
    result.series.push_back(std::move(markers));

    // Per-stage pipeline breakdown: pipeline=<algorithm with a
    // standard SPA stage pipeline> appends the workload-aware
    // per-stage evaluation on this machine and operating point;
    // stage=<name> narrows the breakdown to one stage. Both names
    // are validated up front with "did you mean" suggestions.
    std::string stage_breakdown;
    const std::string pipeline_name =
        trim(ctx.params.get("pipeline", ""));
    if (!pipeline_name.empty()) {
        const auto pipeline =
            workload::standardPipelineFor(pipeline_name);
        if (!pipeline) {
            std::vector<std::string> candidates;
            const auto algorithms = workload::standardAlgorithms();
            for (const auto &algo : algorithms.items()) {
                if (workload::standardPipelineFor(algo.name()))
                    candidates.push_back(algo.name());
            }
            const auto hints =
                closestMatches(pipeline_name, candidates);
            throw ModelError(
                "no standard SPA stage pipeline for '" +
                pipeline_name + "'" +
                (hints.empty()
                     ? "; pipelines exist for: " +
                           join(candidates, ", ")
                     : " (did you mean " + join(hints, " or ") +
                           "?)"));
        }
        const std::string stage_filter =
            trim(ctx.params.get("stage", ""));
        if (!stage_filter.empty() &&
            !pipeline->hasStage(stage_filter)) {
            const auto hints = closestMatches(
                stage_filter, pipeline->stageNames());
            throw ModelError(
                "pipeline '" + pipeline->name() +
                "' has no stage '" + stage_filter + "'" +
                (hints.empty()
                     ? "; stages: " +
                           join(pipeline->stageNames(), ", ")
                     : " (did you mean " + join(hints, " or ") +
                           "?)"));
        }
        const workload::StagePipelineEvaluator evaluator(*pipeline,
                                                         machine);
        workload::StageEvalOptions eval_options;
        eval_options.opIndex = op;
        const workload::PipelineBound bound =
            evaluator.evaluate(eval_options);
        TextTable stage_table({"Stage", "Latency (ms)", "Source",
                               "Binding ceiling"});
        for (std::size_t i = 0; i < bound.stageCount; ++i) {
            const std::string &stage_name = evaluator.stageName(i);
            if (!stage_filter.empty() && stage_name != stage_filter)
                continue;
            const workload::StageBound &stage = bound.stages[i];
            stage_table.addRow(
                {stage_name + (i == bound.bottleneckIndex
                                   ? " (bottleneck)"
                                   : ""),
                 trimmedNumber(stage.latencySeconds * 1e3, 3),
                 workload::toString(stage.source),
                 stage.binding.attributed
                     ? std::string(platform::toString(
                           stage.binding.kind)) +
                           ": " +
                           machine.ceilingName(stage.binding)
                     : "-"});
            const std::string prefix =
                "stage_" +
                ScenarioRunner::sanitizeLabel(stage_name);
            result.addMetric(prefix + "_latency",
                             stage.latencySeconds * 1e3, "ms");
            if (stage.binding.attributed) {
                result
                    .addMetric(prefix + "_binding_kind",
                               stage.binding.kind ==
                                       platform::CeilingKind::
                                           Compute
                                   ? 0.0
                                   : 1.0)
                    .addMetric(prefix + "_binding_index",
                               static_cast<double>(
                                   stage.binding.index));
            }
        }
        result
            .addMetric("pipeline_stages",
                       static_cast<double>(bound.stageCount))
            .addMetric("pipeline_throughput", bound.throughputHz,
                       "Hz");
        stage_breakdown =
            strFormat("Per-stage pipeline '%s' (%.4f Hz):\n",
                      pipeline->name().c_str(),
                      bound.throughputHz) +
            stage_table.render();
    }

    result.summary =
        strFormat("%s @ %s (x%.2f clock, %.2f W): %zu compute + "
                  "%zu memory ceilings\n",
                  machine.name().c_str(), point.name.c_str(),
                  point.frequencyFraction, point.tdp.value(),
                  machine.computeCeilings().size(),
                  machine.memoryCeilings().size()) +
        table.render() + stage_breakdown;
    return result;
}

StudyResult
runSweepStudy(const StudyContext &ctx)
{
    const std::string knob =
        ctx.params.get("knob", "payload_weight");
    const double from = ctx.params.getNumber("from", 0.0);
    const double to = ctx.params.getNumber("to", 1200.0);
    const auto steps = ctx.params.getCount("steps", 25, kMaxSweepPoints);

    StudyParams knob_overrides;
    for (const auto &entry : ctx.params.entries()) {
        if (entry.first != "knob" && entry.first != "from" &&
            entry.first != "to" && entry.first != "steps") {
            knob_overrides.set(entry.first, entry.second);
        }
    }
    const skyline::SkylineSession session =
        sessionFromParams(knob_overrides);

    const auto points =
        session.sweep(knob, from, to, static_cast<int>(steps));

    StudyResult result;
    result.xLabel = knob;
    result.yLabel = "v_safe_mps";
    result.chartTitle = "Skyline sweep: " + knob;

    plot::Series curve("v_safe", plot::SeriesStyle::LineAndMarkers);
    std::size_t infeasible = 0;
    double best = 0.0;
    for (const auto &point : points) {
        if (!point.feasible) {
            ++infeasible;
            continue;
        }
        curve.add(point.knobValue, point.safeVelocity);
        best = std::max(best, point.safeVelocity);
    }
    result.series.push_back(std::move(curve));
    result
        .addMetric("feasible_points",
                   static_cast<double>(points.size() - infeasible))
        .addMetric("infeasible_points",
                   static_cast<double>(infeasible))
        .addMetric("max_safe_velocity", best, "m/s");

    // Binding-ceiling attribution across the sweep, when the
    // platform knob routed f_compute through a ceiling family: how
    // many feasible points each ceiling binds, in the family's own
    // deterministic ceiling order. Absent on legacy sweeps, so
    // their artifact bytes are untouched.
    if (const auto machine = session.rooflinePlatform()) {
        const auto count = [&](platform::CeilingKind kind,
                               std::size_t index) {
            std::size_t n = 0;
            for (const auto &point : points) {
                if (point.feasible && point.binding.attributed &&
                    point.binding.kind == kind &&
                    point.binding.index == index) {
                    ++n;
                }
            }
            return static_cast<double>(n);
        };
        for (std::size_t i = 0;
             i < machine->computeCeilings().size(); ++i) {
            result.addMetric(
                "binds_compute_" +
                    machine->computeCeilings()[i].name,
                count(platform::CeilingKind::Compute, i));
        }
        for (std::size_t i = 0;
             i < machine->memoryCeilings().size(); ++i) {
            result.addMetric(
                "binds_memory_" + machine->memoryCeilings()[i].name,
                count(platform::CeilingKind::Memory, i));
        }
        // Per-stage breakdown at the *base* configuration (the
        // swept knob at its session value). The base may itself be
        // infeasible — a sweep tolerates that per point, so the
        // breakdown must too.
        try {
            const skyline::Analysis analysis = session.analyze();
            for (const auto &row : analysis.stages) {
                result.addMetric(
                    "stage_" +
                        ScenarioRunner::sanitizeLabel(row.stage) +
                        "_latency",
                    row.latencyMs, "ms");
            }
        } catch (const ModelError &) {
            // Infeasible base: the sweep points still stand.
        }
    }
    result.summary = strFormat(
        "Swept %s from %g to %g in %zu steps: %zu feasible, "
        "%zu infeasible, best v_safe %.3f m/s\n",
        knob.c_str(), from, to, steps, points.size() - infeasible,
        infeasible, best);
    return result;
}

/**
 * Sweep one session's DVFS operating points into `result`: two
 * series (v_safe and roof vs TDP, labelled with `series_suffix`),
 * one table row per point (prefixed with `row_head` cells) and the
 * per-point metrics (prefixed with `metric_prefix`). The empty
 * prefix/suffix case is the single-platform dvfs study's exact
 * legacy shape, byte for byte.
 */
void
appendDvfsSweep(const skyline::SkylineSession &session,
                const platform::RooflinePlatform &machine,
                const std::string &series_suffix,
                const std::string &metric_prefix,
                const std::vector<std::string> &row_head,
                TextTable &table, StudyResult &result)
{
    plot::Series v_safe("v_safe" + series_suffix,
                        plot::SeriesStyle::LineAndMarkers);
    plot::Series roof("roof velocity" + series_suffix,
                      plot::SeriesStyle::LineAndMarkers);
    for (const auto &point : machine.operatingPoints()) {
        skyline::SkylineSession variant = session;
        variant.set("operating_point", point.name);
        const skyline::Analysis analysis = variant.analyze();
        const core::F1Analysis &f1 = analysis.f1;
        const double rate =
            variant.model().inputs().computeRate.value();
        const double tdp = variant.effectiveTdp().value();

        v_safe.add(tdp, f1.safeVelocity.value());
        roof.add(tdp, f1.roofVelocity.value());
        std::vector<std::string> row = row_head;
        for (const std::string &cell :
             {std::string(point.name),
              trimmedNumber(point.frequencyFraction, 3),
              trimmedNumber(tdp, 3),
              trimmedNumber(analysis.heatsinkMass.value(), 1),
              trimmedNumber(rate, 4),
              trimmedNumber(f1.safeVelocity.value(), 3),
              trimmedNumber(f1.roofVelocity.value(), 3),
              analysis.bindingCeiling.empty()
                  ? "-"
                  : analysis.bindingCeiling}) {
            row.push_back(cell);
        }
        table.addRow(row);
        result
            .addMetric(metric_prefix + point.name + "_tdp", tdp,
                       "W")
            .addMetric(metric_prefix + point.name + "_v_safe",
                       f1.safeVelocity.value(), "m/s")
            .addMetric(metric_prefix + point.name + "_roof",
                       f1.roofVelocity.value(), "m/s")
            .addMetric(metric_prefix + point.name + "_compute_rate",
                       rate, "Hz")
            .addMetric(metric_prefix + point.name + "_binding_kind",
                       f1.computeBinding.kind ==
                               platform::CeilingKind::Compute
                           ? 0.0
                           : 1.0)
            .addMetric(metric_prefix + point.name + "_binding_index",
                       static_cast<double>(f1.computeBinding.index));
    }
    result.series.push_back(std::move(v_safe));
    result.series.push_back(std::move(roof));
}

StudyResult
runDvfsStudy(const StudyContext &ctx)
{
    // The paper's recurring remedy for over-provisioned designs —
    // "trade off this excess performance for a lower TDP" —
    // quantified per ceiling: sweep one preset's DVFS operating
    // points and report v_safe against the TDP each point costs,
    // with the binding ceiling at every point. Comma-separated
    // `platforms` / `algorithms` lists overlay several sweeps on
    // one chart; without them the single-preset path runs with its
    // exact legacy artifact bytes.
    StudyParams params;
    std::vector<std::string> platform_names;
    std::vector<std::string> algorithm_names;
    for (const auto &entry : ctx.params.entries()) {
        if (entry.first == "platforms")
            platform_names = splitAndTrim(entry.second, ',');
        else if (entry.first == "algorithms")
            algorithm_names = splitAndTrim(entry.second, ',');
        else
            params.set(entry.first, entry.second);
    }
    // An absent *or empty* platform override means the default
    // preset (an empty knob value would put the session on the
    // legacy compute_runtime path, which has no operating points).
    if (trim(params.get("platform", "")).empty())
        params.set("platform", "Nvidia TX2");

    StudyResult result;
    result.xLabel = "tdp_w";
    result.yLabel = "v_safe_mps";

    if (platform_names.empty() && algorithm_names.empty()) {
        const skyline::SkylineSession session =
            sessionFromParams(params);
        const auto machine = session.rooflinePlatform();
        if (!machine) {
            throw ModelError("the dvfs study requires a roofline "
                             "platform preset");
        }
        const auto &points = machine->operatingPoints();
        result.chartTitle =
            "DVFS sweep: " + session.knobs().platform + " running " +
            session.knobs().algorithm;
        TextTable table({"Operating point", "Clock (x)", "TDP (W)",
                         "Heatsink (g)", "f_compute (Hz)",
                         "v_safe (m/s)", "Roof (m/s)",
                         "Binding ceiling"});
        appendDvfsSweep(session, *machine, "", "", {}, table,
                        result);
        result.addMetric("operating_points",
                         static_cast<double>(points.size()));
        result.summary =
            strFormat("%s running %s across %zu operating points\n",
                      session.knobs().platform.c_str(),
                      session.knobs().algorithm.c_str(),
                      points.size()) +
            table.render();
        return result;
    }

    // Overlay mode: the cartesian product of the requested
    // platforms and algorithms, every combination swept across its
    // own preset's operating points. Empty lists inherit the single
    // session's knob.
    if (platform_names.empty())
        platform_names = {params.get("platform", "Nvidia TX2")};
    if (algorithm_names.empty())
        algorithm_names = {
            sessionFromParams(params).knobs().algorithm};

    TextTable table({"Platform", "Algorithm", "Operating point",
                     "Clock (x)", "TDP (W)", "Heatsink (g)",
                     "f_compute (Hz)", "v_safe (m/s)", "Roof (m/s)",
                     "Binding ceiling"});
    std::size_t combos = 0;
    for (const std::string &platform_name : platform_names) {
        for (const std::string &algorithm_name : algorithm_names) {
            StudyParams combo = params;
            combo.set("platform", platform_name);
            combo.set("algorithm", algorithm_name);
            const skyline::SkylineSession session =
                sessionFromParams(combo);
            const auto machine = session.rooflinePlatform();
            if (!machine) {
                throw ModelError(
                    "the dvfs study requires a roofline platform "
                    "preset");
            }
            const std::string label =
                platform_name + " / " + algorithm_name;
            appendDvfsSweep(
                session, *machine, " (" + label + ")",
                ScenarioRunner::sanitizeLabel(platform_name) + "_" +
                    ScenarioRunner::sanitizeLabel(algorithm_name) +
                    "_",
                {platform_name, algorithm_name}, table, result);
            ++combos;
        }
    }
    result.chartTitle = "DVFS overlay: " +
                        std::to_string(combos) + " configurations";
    result.addMetric("combinations",
                     static_cast<double>(combos));
    result.summary =
        strFormat("DVFS overlay: %zu platforms x %zu algorithms\n",
                  platform_names.size(), algorithm_names.size()) +
        table.render();
    return result;
}

StudyResult
runFaultsStudy(const StudyContext &ctx)
{
    // Degraded-mode analysis: inject one of the standard fault
    // suites into the session's configuration and report how safe
    // velocity and mission survival degrade as fault rates sweep
    // from zero to full severity.
    const std::string suite_name =
        trim(ctx.params.get("fault", "mixed"));
    const fault::FaultSuite &suite = fault::findFaultSuite(
        suite_name.empty() ? "mixed" : suite_name);
    const double fault_scale =
        ctx.params.getNumber("fault_scale", 1.0);
    // Reject rather than clamp: a scale outside the sweep range is
    // a typo'd scenario, and silently pinning it to [0, 1] would
    // report a different severity than the spec asked for.
    if (!std::isfinite(fault_scale) || fault_scale < 0.0 ||
        fault_scale > 1.0) {
        throw ModelError(
            "fault_scale of the faults study must be in [0, 1] "
            "(got " +
            trimmedNumber(fault_scale) +
            "); the degradation curve already sweeps scale 0 to "
            "fault_scale");
    }
    const auto samples =
        ctx.params.getCount("samples", 4096, kMaxMissions);
    const auto levels = ctx.params.getCount("levels", 9, kMaxLevels);
    const std::uint64_t seed = ctx.params.getUnsigned("seed", 1);

    // Any stage-resolved fault — workload-layer latency/failure or
    // the stage-scoped platform kinds — needs the SPA pipeline
    // configured so the campaign can resolve stage names.
    bool stage_faults = false;
    for (const auto &spec : suite.faults) {
        stage_faults =
            stage_faults ||
            spec.kind == fault::FaultKind::StageFailure ||
            spec.kind == fault::FaultKind::StageLatencyInflation ||
            spec.kind == fault::FaultKind::StageCeilingDerate ||
            spec.kind == fault::FaultKind::StageTrafficInflation;
    }

    // Stage-failure suites default to DMR takeover (the paper's
    // Fig. 14 remedy); platform-only suites run a single computer.
    const std::string redundancy_name =
        toLower(trim(ctx.params.get(
            "redundancy", stage_faults ? "dual" : "none")));
    pipeline::RedundancyScheme redundancy;
    if (redundancy_name == "none")
        redundancy = pipeline::RedundancyScheme::None;
    else if (redundancy_name == "dual")
        redundancy = pipeline::RedundancyScheme::Dual;
    else if (redundancy_name == "triple")
        redundancy = pipeline::RedundancyScheme::Triple;
    else {
        const std::vector<std::string> schemes = {"none", "dual",
                                                  "triple"};
        std::string message = "unknown redundancy '" +
                              redundancy_name +
                              "'; expected none, dual or triple";
        const std::vector<std::string> hints =
            closestMatches(redundancy_name, schemes);
        if (!hints.empty())
            message += " (did you mean " + join(hints, " or ") + "?)";
        throw ModelError(message);
    }

    StudyParams knob_overrides;
    for (const auto &entry : ctx.params.entries()) {
        if (entry.first != "fault" && entry.first != "fault_scale" &&
            entry.first != "samples" && entry.first != "levels" &&
            entry.first != "seed" && entry.first != "redundancy") {
            knob_overrides.set(entry.first, entry.second);
        }
    }
    // An absent *or empty* platform override means the default
    // preset (platform faults need a ceiling family to degrade).
    if (trim(knob_overrides.get("platform", "")).empty())
        knob_overrides.set("platform", "Nvidia TX2");
    const skyline::SkylineSession session =
        sessionFromParams(knob_overrides);
    const auto machine = session.rooflinePlatform();
    if (!machine) {
        throw ModelError("the faults study requires a roofline "
                         "platform preset");
    }

    const auto algorithms = workload::annotatedAlgorithms();
    const workload::AutonomyAlgorithm &algorithm =
        algorithms.byName(session.knobs().algorithm);

    fault::CampaignSpec campaign_spec;
    campaign_spec.nominal = session.model().inputs();
    campaign_spec.platform = machine;
    campaign_spec.profile =
        workload::workloadProfile(algorithm, *machine);
    campaign_spec.workPerFrameGop = algorithm.workPerFrameGop();
    campaign_spec.opIndex =
        session.knobs().operatingPoint.empty()
            ? 0
            : machine->operatingPointIndex(
                  session.knobs().operatingPoint);
    if (stage_faults) {
        campaign_spec.pipeline =
            workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    }
    campaign_spec.redundancy = redundancy;
    campaign_spec.faults = suite.faults;
    campaign_spec.probabilityScale = fault_scale;
    const fault::FaultCampaign campaign(std::move(campaign_spec));

    const core::F1Analysis baseline = campaign.baseline();
    // The curve's top level is the full-severity run, sampled once.
    const fault::FaultCampaign::SeveritySweep sweep =
        campaign.sweepSeverity(levels, samples, seed, ctx.parallel);
    const fault::CampaignResult &worst = sweep.fullSeverity;
    const std::vector<fault::DegradationPoint> &curve = sweep.curve;

    StudyResult result;
    result.xLabel = "fault_scale";
    result.yLabel = "v_safe_mps";
    result.chartTitle = "Degraded-mode envelope: " +
                        session.knobs().platform + " under " +
                        suite.name + " faults";

    plot::Series mean("v_safe mean",
                      plot::SeriesStyle::LineAndMarkers);
    plot::Series p5("v_safe p5");
    plot::Series p95("v_safe p95");
    plot::Series abort_prob("abort probability");
    TextTable table({"Scale", "v_safe mean (m/s)", "p5", "p95",
                     "P(abort)"});
    for (const auto &point : curve) {
        mean.add(point.scale, point.meanSafeVelocity);
        p5.add(point.scale, point.p5SafeVelocity);
        p95.add(point.scale, point.p95SafeVelocity);
        abort_prob.add(point.scale, point.abortProbability);
        table.addRow({trimmedNumber(point.scale, 3),
                      trimmedNumber(point.meanSafeVelocity, 3),
                      trimmedNumber(point.p5SafeVelocity, 3),
                      trimmedNumber(point.p95SafeVelocity, 3),
                      trimmedNumber(point.abortProbability, 4)});
    }
    result.series.push_back(std::move(mean));
    result.series.push_back(std::move(p5));
    result.series.push_back(std::move(p95));
    result.series.push_back(std::move(abort_prob));

    result
        .addMetric("baseline_v_safe",
                   baseline.safeVelocity.value(), "m/s")
        .addMetric("baseline_roof",
                   baseline.roofVelocity.value(), "m/s")
        .addMetric("degraded_v_safe_mean",
                   worst.safeVelocity.mean, "m/s")
        .addMetric("degraded_v_safe_p5", worst.safeVelocity.p5,
                   "m/s")
        .addMetric("abort_probability", worst.abortProbability)
        .addMetric("samples", static_cast<double>(worst.samples));
    for (std::size_t j = 0; j < suite.faults.size(); ++j) {
        result.addMetric(
            "activation_" +
                ScenarioRunner::sanitizeLabel(suite.faults[j].name),
            worst.faultActivationRate[j]);
    }
    // Binding shift under faults, in the family's own deterministic
    // ceiling order.
    for (std::size_t i = 0;
         i < worst.probComputeCeilingBinds.size(); ++i) {
        result.addMetric(
            "binds_compute_" + machine->computeCeilings()[i].name,
            worst.probComputeCeilingBinds[i]);
    }
    for (std::size_t i = 0;
         i < worst.probMemoryCeilingBinds.size(); ++i) {
        result.addMetric(
            "binds_memory_" + machine->memoryCeilings()[i].name,
            worst.probMemoryCeilingBinds[i]);
    }
    // Per-stage binding shifts of the SPA pipeline (present only
    // on the combined platform+pipeline path, i.e. stage-fault
    // suites): how often each stage was compute-bound /
    // memory-bound / measurement-sourced over surviving missions.
    for (const auto &stats : worst.stageBindings) {
        const std::string prefix =
            "stage_" + ScenarioRunner::sanitizeLabel(stats.stage);
        result
            .addMetric(prefix + "_compute_bound",
                       stats.probComputeBound)
            .addMetric(prefix + "_memory_bound",
                       stats.probMemoryBound)
            .addMetric(prefix + "_measured", stats.probMeasured);
    }

    result.summary =
        strFormat("Fault suite '%s' (%s) on %s running %s: "
                  "baseline v_safe %.3f m/s, degraded mean %.3f "
                  "m/s, P(abort) %.4f over %zu missions\n",
                  suite.name.c_str(), suite.description.c_str(),
                  session.knobs().platform.c_str(),
                  session.knobs().algorithm.c_str(),
                  baseline.safeVelocity.value(),
                  worst.safeVelocity.mean, worst.abortProbability,
                  worst.samples) +
        table.render();
    return result;
}

} // namespace

namespace detail {

void
registerBuiltinStudies(StudyRegistry &registry)
{
    const std::vector<std::string> none;
    const std::vector<std::string> sampled = {"sweep_samples"};
    const std::vector<std::string> knobs =
        skyline::SkylineSession::knobNames();
    std::vector<std::string> sweep_params = {"knob", "from", "to",
                                             "steps"};
    sweep_params.insert(sweep_params.end(), knobs.begin(),
                        knobs.end());

    registry.add({"fig02", "Fig. 2b: SWaP taxonomy",
                  "Size, battery capacity and endurance across "
                  "nano/micro/mini UAVs",
                  none, {"csv", "svg", "json"}, runFig02Study});
    registry.add({"fig04", "Fig. 4: bound regions",
                  "Sensor-, compute- and physics-bound regions on "
                  "the Pelican configuration",
                  none, {"csv", "svg", "json"}, runFig04Study});
    registry.add({"fig05", "Fig. 5: roofline construction",
                  "Safe velocity vs action throughput; knee and "
                  "diminishing returns",
                  sampled, {"csv", "svg", "json"}, runFig05Study});
    registry.add({"fig07", "Fig. 7: model validation",
                  "Predicted vs simulated safe velocity for the "
                  "four Table-I builds",
                  none, {"csv", "svg", "json"}, runFig07Study});
    registry.add({"fig09", "Fig. 9: velocity vs payload",
                  "Non-linear safe-velocity loss with payload on "
                  "the S500 build",
                  sampled, {"csv", "svg", "json"}, runFig09Study});
    registry.add({"fig11", "Fig. 11: compute choice",
                  "Intel NCS vs Nvidia AGX on a DJI Spark running "
                  "DroNet",
                  none, {"csv", "svg", "json"}, runFig11Study});
    registry.add({"fig12", "Fig. 12: heat-sink scaling",
                  "Heat-sink mass vs compute TDP",
                  none, {"csv", "svg", "json"}, runFig12Study});
    registry.add({"fig13", "Fig. 13: algorithm choice",
                  "SPA vs TrailNet vs DroNet on the Pelican + TX2",
                  none, {"csv", "svg", "json"}, runFig13Study});
    registry.add({"fig14", "Fig. 14: compute redundancy",
                  "Single vs dual-modular-redundant TX2 on the "
                  "Pelican",
                  none, {"csv", "svg", "json"}, runFig14Study});
    registry.add({"fig15", "Fig. 15: full-system sweep",
                  "{NCS, TX2, Ras-Pi4} x {DroNet, TrailNet, VGG16, "
                  "CAD2RL} on Pelican and Spark",
                  none, {"csv", "svg", "json"}, runFig15Study});
    registry.add({"fig16", "Fig. 16: accelerator pitfalls",
                  "PULP-DroNet and Navion-in-SPA on the nano-UAV",
                  none, {"csv", "svg", "json"}, runFig16Study});
    registry.add({"table1", "Table I: validation UAV specs",
                  "Takeoff masses and predicted safe velocities of "
                  "UAV-A..D",
                  none, {"csv", "svg", "json"}, runTable1Study});
    registry.add({"table2", "Table II: Skyline session",
                  "The full knob set analyzed end-to-end; overrides "
                  "are knob assignments",
                  knobs, {"csv", "svg", "json", "html"},
                  runTable2Study});
    registry.add({"table3", "Table III: case-study overview",
                  "Headline results of the Section VI case studies "
                  "regenerated live",
                  none, {"json"}, runTable3Study});
    registry.add({"roofline", "Hierarchical machine roofline",
                  "Multi-ceiling compute/memory roofs, DVFS "
                  "operating points and per-algorithm binding "
                  "ceilings for a platform preset; "
                  "workloads=annotated adds per-workload envelopes; "
                  "pipeline=<algorithm> adds a per-stage breakdown "
                  "(stage=<name> narrows it)",
                  {"platform", "op", "ai_min", "ai_max", "samples",
                   "workloads", "pipeline", "stage"},
                  {"csv", "svg", "json"}, runRooflineStudy});
    std::vector<std::string> dvfs_params = {"platforms",
                                            "algorithms"};
    dvfs_params.insert(dvfs_params.end(), knobs.begin(),
                       knobs.end());
    registry.add({"dvfs", "DVFS operating-point sweep",
                  "v_safe vs TDP across one roofline preset's "
                  "operating points, binding ceiling at each point; "
                  "comma-separated platforms=/algorithms= lists "
                  "overlay several sweeps",
                  dvfs_params, {"csv", "svg", "json"},
                  runDvfsStudy});
    registry.add({"sweep", "Skyline knob sweep",
                  "Sweep one numeric knob; infeasible points are "
                  "marked, not fatal",
                  sweep_params, {"csv", "svg", "json"},
                  runSweepStudy});
    std::vector<std::string> fault_params = {
        "fault", "fault_scale", "samples", "levels", "seed",
        "redundancy"};
    fault_params.insert(fault_params.end(), knobs.begin(),
                        knobs.end());
    registry.add({"faults", "Fault-injection campaign",
                  "Degraded-mode envelope under a standard fault "
                  "suite: v_safe degradation curve, mission-abort "
                  "probability and binding shifts",
                  fault_params, {"csv", "svg", "json"},
                  runFaultsStudy});
}

} // namespace detail

} // namespace uavf1::scenario
