/**
 * @file
 * Tests for the scenario-runner subsystem: the study registry, the
 * spec grammar, artifact emission and the batch determinism
 * contract (bit-identical outcomes and artifact bytes at any
 * thread count).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "plot/json_writer.hh"
#include "scenario/runner.hh"
#include "scenario/spec.hh"
#include "scenario/study.hh"
#include "skyline/session.hh"
#include "support/errors.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::scenario;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(Registry, EnumeratesEveryFigAndTableStudy)
{
    const StudyRegistry &registry = StudyRegistry::global();
    for (const char *name :
         {"fig02", "fig04", "fig05", "fig07", "fig09", "fig11",
          "fig12", "fig13", "fig14", "fig15", "fig16", "table1",
          "table2", "table3", "sweep", "roofline", "dvfs",
          "faults"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
        const StudyInfo &info = registry.find(name);
        EXPECT_FALSE(info.title.empty()) << name;
        EXPECT_FALSE(info.description.empty()) << name;
        EXPECT_FALSE(info.artifacts.empty()) << name;
        EXPECT_TRUE(static_cast<bool>(info.run)) << name;
    }
    EXPECT_GE(registry.all().size(), 15u);
}

TEST(Registry, LookupIsCaseInsensitiveAndRejectsUnknown)
{
    const StudyRegistry &registry = StudyRegistry::global();
    EXPECT_EQ(registry.find(" FIG09 ").name, "fig09");
    EXPECT_THROW(registry.find("fig99"), ModelError);
}

TEST(Registry, UnknownStudySuggestsTheClosestNames)
{
    const StudyRegistry &registry = StudyRegistry::global();
    // A one-character typo earns a "did you mean" with the fix.
    try {
        registry.find("fig9");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("did you mean"), std::string::npos)
            << message;
        EXPECT_NE(message.find("fig09"), std::string::npos)
            << message;
    }
    try {
        registry.find("rofline");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("roofline"),
                  std::string::npos)
            << e.what();
    }
    // Hopeless queries still list the registered studies.
    try {
        registry.find("quaternion-study");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_EQ(message.find("did you mean"), std::string::npos)
            << message;
        EXPECT_NE(message.find("studies:"), std::string::npos)
            << message;
    }
}

TEST(Registry, RejectsDuplicateAndMalformedRegistrations)
{
    StudyRegistry registry;
    StudyInfo info;
    info.name = "demo";
    info.run = [](const StudyContext &) { return StudyResult(); };
    registry.add(info);
    EXPECT_THROW(registry.add(info), ModelError);

    StudyInfo no_run;
    no_run.name = "norun";
    EXPECT_THROW(registry.add(no_run), ModelError);
    StudyInfo no_name;
    no_name.run = info.run;
    EXPECT_THROW(registry.add(no_name), ModelError);
}

TEST(Params, NumbersCountsAndErrors)
{
    StudyParams params;
    params.set(" Sweep_Samples ", " 64 ");
    EXPECT_TRUE(params.has("sweep_samples"));
    EXPECT_EQ(params.getCount("sweep_samples", 10), 64u);
    EXPECT_EQ(params.getCount("absent", 10), 10u);
    EXPECT_DOUBLE_EQ(params.getNumber("sweep_samples", 0.0), 64.0);

    params.set("bad", "many");
    EXPECT_THROW(params.getNumber("bad", 0.0), ModelError);
    params.set("frac", "2.5");
    EXPECT_THROW(params.getCount("frac", 1), ModelError);
    params.set("neg", "-3");
    EXPECT_THROW(params.getCount("neg", 1), ModelError);

    // set() overwrites in place rather than duplicating.
    params.set("sweep_samples", "32");
    EXPECT_EQ(params.getCount("sweep_samples", 10), 32u);
    EXPECT_EQ(params.entries().front().second, "32");
}

TEST(Params, IntegersAreBoundedBeforeTheCast)
{
    // A double past 2^53 (or past the target type) must be rejected
    // by name, never cast: the cast would be undefined.
    StudyParams params;
    params.set("samples", "1e20");
    try {
        (void)params.getCount("samples", 1);
        FAIL() << "samples=1e20 accepted";
    } catch (const ModelError &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("'samples'"), std::string::npos)
            << message;
        EXPECT_NE(message.find("9007199254740992"), std::string::npos)
            << message;
    }
    params.set("samples", "9007199254740992");
    EXPECT_EQ(params.getCount("samples", 1), 9007199254740992u);
    params.set("samples", "9007199254740994");
    EXPECT_THROW(params.getCount("samples", 1), ModelError);

    EXPECT_EQ(params.getUnsigned("seed", 7), 7u);
    params.set("seed", "0");
    EXPECT_EQ(params.getUnsigned("seed", 7), 0u);
    params.set("seed", "4294967296");
    EXPECT_EQ(params.getUnsigned("seed", 7), 4294967296u);
    for (const char *bad : {"-1", "1e30", "2.5", "-0.5", "seven"}) {
        params.set("seed", bad);
        EXPECT_THROW(params.getUnsigned("seed", 7), ModelError) << bad;
    }
}

TEST(Spec, ParsesTheLoadConfigGrammar)
{
    const ScenarioSpec spec = ScenarioSpec::parse(
        "# a comment\n"
        "study = FIG09\n"
        "\n"
        "label = heavy payload\n"
        "  Sweep_Samples =  21  \n");
    EXPECT_EQ(spec.study, "fig09");
    EXPECT_EQ(spec.displayLabel(), "heavy payload");
    EXPECT_EQ(spec.overrides.getCount("sweep_samples", 0), 21u);
}

TEST(Spec, RejectsMalformedAndStudylessText)
{
    EXPECT_THROW(ScenarioSpec::parse("study = fig09\nnot a pair"),
                 ModelError);
    EXPECT_THROW(ScenarioSpec::parse("sweep_samples = 8"),
                 ModelError);
    ScenarioSpec spec;
    EXPECT_THROW(spec.set("no-equals-sign"), ModelError);
}

TEST(Runner, HostileKnobValuesFailNamingTheKnob)
{
    const ScenarioRunner runner;
    const auto run = [&](const std::string &study,
                         const std::string &knob,
                         const std::string &value) {
        ScenarioSpec spec;
        spec.study = study;
        spec.overrides.set(knob, value);
        return runner.run(spec);
    };
    // A subnormal period or range used to surface as a NaN f_action
    // or an empty roofline range, naming no knob.
    for (const char *knob : {"compute_runtime", "sensor_range"}) {
        const ScenarioOutcome outcome = run("table2", knob, "1e-320");
        EXPECT_FALSE(outcome.ok) << knob;
        EXPECT_NE(outcome.error.find(knob), std::string::npos)
            << outcome.error;
    }
    // An AI range whose ratio overflows used to fail in the platform
    // model with a ~300-digit AI, naming neither knob.
    {
        const ScenarioOutcome outcome =
            run("roofline", "ai_max", "1e308");
        EXPECT_FALSE(outcome.ok);
        for (const char *knob : {"ai_min", "ai_max"}) {
            EXPECT_NE(outcome.error.find(knob), std::string::npos)
                << outcome.error;
        }
    }
    // An unknown catalog entry used to name no knob; the error names
    // the one the user set and keeps the known entries.
    const struct
    {
        const char *study, *knob, *quoted;
    } lookups[] = {{"table2", "platform", "'platform'"},
                   {"table2", "pipeline", "'pipeline'"},
                   {"dvfs", "platforms", "'platforms'"},
                   {"dvfs", "algorithms", "'algorithms'"}};
    for (const auto &lookup : lookups) {
        const ScenarioOutcome outcome =
            run(lookup.study, lookup.knob, "abc");
        EXPECT_FALSE(outcome.ok) << lookup.knob;
        EXPECT_NE(outcome.error.find(lookup.quoted), std::string::npos)
            << outcome.error;
        EXPECT_NE(outcome.error.find("known entries: "),
                  std::string::npos)
            << outcome.error;
    }
    // A dependent knob without its enabling knob used to be ignored;
    // the error names both.
    const struct
    {
        const char *study, *knob, *value, *enabler;
    } dependents[] = {
        {"table2", "operating_point", "abc", "platform"},
        {"table2", "pipeline", "MAVBench package delivery (TX2)",
         "platform"},
        {"roofline", "stage", "abc", "pipeline"}};
    for (const auto &dependent : dependents) {
        const ScenarioOutcome outcome =
            run(dependent.study, dependent.knob, dependent.value);
        EXPECT_FALSE(outcome.ok) << dependent.knob;
        EXPECT_NE(outcome.error.find(dependent.knob),
                  std::string::npos)
            << outcome.error;
        EXPECT_NE(outcome.error.find(dependent.enabler),
                  std::string::npos)
            << outcome.error;
    }
}

TEST(Runner, RunsAStudyWithOverrides)
{
    ScenarioSpec spec;
    spec.study = "fig09";
    spec.overrides.set("sweep_samples", "21");
    const ScenarioOutcome outcome = ScenarioRunner().run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_FALSE(outcome.result.series.empty());
    EXPECT_EQ(outcome.result.series.front().size(), 21u);
    EXPECT_FALSE(outcome.result.metrics.empty());
    EXPECT_TRUE(outcome.artifacts.empty()); // No outDir configured.
}

TEST(Runner, CapturesStudyFailuresPerScenario)
{
    ScenarioSpec bad_param;
    bad_param.study = "fig02";
    bad_param.overrides.set("bogus", "1");
    ScenarioOutcome outcome = ScenarioRunner().run(bad_param);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("bogus"), std::string::npos);

    ScenarioSpec unknown;
    unknown.study = "fig99";
    outcome = ScenarioRunner().run(unknown);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("fig99"), std::string::npos);

    // A batch with one failing scenario still runs the others.
    ScenarioSpec good;
    good.study = "fig12";
    const auto outcomes =
        ScenarioRunner().runAll({bad_param, good});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;
}

TEST(Runner, SweepStudyMarksInfeasiblePointsInsteadOfAborting)
{
    // drone_weight = 0 fails the knob's own validation; the sweep
    // point (and the scenario) must survive it.
    ScenarioSpec spec;
    spec.study = "sweep";
    spec.overrides.set("knob", "drone_weight");
    spec.overrides.set("from", "0");
    spec.overrides.set("to", "1200");
    spec.overrides.set("steps", "4");
    const ScenarioOutcome outcome = ScenarioRunner().run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    double infeasible = 0.0;
    for (const auto &metric : outcome.result.metrics) {
        if (metric.name == "infeasible_points")
            infeasible = metric.value;
    }
    EXPECT_GE(infeasible, 1.0);
}

TEST(Runner, RooflineStudyRendersTheCeilingFamily)
{
    namespace fs = std::filesystem;
    const std::string dir1 = "artifacts/scenario_test/roofline1";
    const std::string dir8 = "artifacts/scenario_test/roofline8";
    fs::remove_all(dir1);
    fs::remove_all(dir8);

    ScenarioSpec spec;
    spec.study = "roofline";
    spec.overrides.set("platform", "Nvidia TX2");
    spec.overrides.set("op", "half-clock");
    spec.overrides.set("samples", "33");

    const ScenarioRunner runner;
    RunnerOptions options;
    options.outDir = dir1;
    const ScenarioOutcome outcome = runner.run(spec, options);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    // >= 2 compute + >= 2 memory ceiling lines, the attainable
    // envelope, and the algorithm markers.
    std::size_t compute_lines = 0;
    std::size_t memory_lines = 0;
    bool envelope = false;
    for (const auto &series : outcome.result.series) {
        if (series.name().rfind("compute: ", 0) == 0)
            ++compute_lines;
        if (series.name().rfind("memory: ", 0) == 0)
            ++memory_lines;
        if (series.name() == "attainable")
            envelope = true;
    }
    EXPECT_GE(compute_lines, 2u);
    EXPECT_GE(memory_lines, 2u);
    EXPECT_TRUE(envelope);
    ASSERT_EQ(outcome.artifacts.size(), 3u); // json + csv + svg.

    // Acceptance: artifact bytes are bit-identical at 1 vs 8
    // threads through the batch path.
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    RunnerOptions serial;
    serial.outDir = dir8 + "/serial";
    serial.parallel.pool = &pool1;
    RunnerOptions parallel;
    parallel.outDir = dir8 + "/parallel";
    parallel.parallel.pool = &pool8;
    const std::vector<ScenarioSpec> batch = {spec, spec, spec, spec};
    const auto a = runner.runAll(batch, serial);
    const auto b = runner.runAll(batch, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok && b[i].ok);
        ASSERT_EQ(a[i].artifacts.size(), b[i].artifacts.size());
        for (std::size_t f = 0; f < a[i].artifacts.size(); ++f) {
            EXPECT_EQ(slurp(a[i].artifacts[f]),
                      slurp(b[i].artifacts[f]))
                << a[i].artifacts[f];
        }
    }

    // Unknown presets and operating points fail per-scenario with
    // an actionable message — with the same prefix/edit-distance
    // "did you mean" treatment study names get, and the preset
    // list — never out of the batch. skyline_cli reports the
    // failed outcome and exits non-zero.
    ScenarioSpec bad = spec;
    bad.overrides.set("platform", "Nvidia TX3");
    const ScenarioOutcome failed = runner.run(bad);
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("Nvidia TX3"), std::string::npos);
    EXPECT_NE(failed.error.find("did you mean"), std::string::npos)
        << failed.error;
    EXPECT_NE(failed.error.find("Nvidia TX2"), std::string::npos)
        << failed.error;
}

TEST(Runner, RooflineStudyRendersPerWorkloadEnvelopes)
{
    ScenarioSpec spec;
    spec.study = "roofline";
    spec.overrides.set("samples", "17");
    spec.overrides.set("workloads", "annotated");

    const ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    // Annotated workloads get their own attainable envelopes, and
    // the binding diversity shows up in the metrics: the
    // scalar-only kernel binds compute ceiling 0 (not the GPU) and
    // the cache-resident kernel binds a memory ceiling.
    std::size_t envelopes = 0;
    for (const auto &series : outcome.result.series) {
        if (series.name().rfind("envelope: ", 0) == 0)
            ++envelopes;
    }
    EXPECT_GE(envelopes, 2u);

    const auto metric = [&](const std::string &name) {
        for (const auto &m : outcome.result.metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    EXPECT_EQ(metric("DroNet_binding_kind"), 0.0);
    EXPECT_EQ(metric("DroNet_binding_index"), 2.0);
    EXPECT_EQ(metric("DroNet (scalar-only)_binding_kind"), 0.0);
    EXPECT_EQ(metric("DroNet (scalar-only)_binding_index"), 0.0);
    EXPECT_EQ(
        metric("VIO frontend (cache-resident)_binding_kind"), 1.0);
    EXPECT_EQ(
        metric("VIO frontend (cache-resident)_binding_index"), 1.0);

    // The default workloads value stays the standard registry (no
    // envelopes), and junk values fail loudly.
    ScenarioSpec standard = spec;
    standard.overrides.set("workloads", "standard");
    const ScenarioOutcome plain = runner.run(standard);
    ASSERT_TRUE(plain.ok) << plain.error;
    for (const auto &series : plain.result.series)
        EXPECT_EQ(series.name().rfind("envelope: ", 0),
                  std::string::npos);
    ScenarioSpec junk = spec;
    junk.overrides.set("workloads", "bogus");
    EXPECT_FALSE(runner.run(junk).ok);
}

TEST(Runner, DvfsStudySweepsOperatingPointsWithAttribution)
{
    ScenarioSpec spec;
    spec.study = "dvfs";
    spec.overrides.set("platform", "Nvidia TX2");

    const ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto metric = [&](const std::string &name) {
        for (const auto &m : outcome.result.metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    EXPECT_EQ(metric("operating_points"), 3.0);
    // The CMOS law: each slower point costs less TDP...
    EXPECT_GT(metric("nominal_tdp"), metric("half-clock_tdp"));
    EXPECT_GT(metric("half-clock_tdp"), metric("dvfs-floor_tdp"));
    // ...and (the paper's remedy) the lighter heat sink *raises*
    // v_safe while the design stays over-provisioned.
    EXPECT_GT(metric("dvfs-floor_v_safe"), metric("nominal_v_safe"));
    // The nominal point rides DroNet's measured throughput
    // (measured-first: no binding attribution), while every scaled
    // point falls back to the modeled bound, where the GPU roof
    // (compute ceiling index 2) binds.
    EXPECT_EQ(metric("nominal_binding_kind"), 0.0);
    EXPECT_EQ(metric("nominal_binding_index"), 0.0);
    EXPECT_EQ(metric("half-clock_binding_index"), 2.0);
    EXPECT_EQ(metric("dvfs-floor_binding_index"), 2.0);

    // v_safe-vs-TDP and roof series, one point per operating point.
    ASSERT_EQ(outcome.result.series.size(), 2u);
    EXPECT_EQ(outcome.result.series[0].size(), 3u);

    // The binding ceiling is named in the summary table.
    EXPECT_NE(outcome.result.summary.find("Pascal GPU FP16"),
              std::string::npos);
}

TEST(Runner, DvfsStudyOverlaysPlatformAlgorithmGrids)
{
    ScenarioSpec spec;
    spec.study = "dvfs";
    spec.overrides.set("platforms", "Nvidia TX2, Nvidia AGX");
    spec.overrides.set("algorithms", "DroNet, TrailNet");

    const ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto metric = [&](const std::string &name) {
        for (const auto &m : outcome.result.metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    // 2 platforms x 2 algorithms, two series (v_safe + roof) each.
    EXPECT_EQ(metric("combinations"), 4.0);
    EXPECT_EQ(outcome.result.series.size(), 8u);
    bool overlay_series = false;
    for (const auto &series : outcome.result.series) {
        overlay_series =
            overlay_series ||
            series.name().find("(Nvidia AGX / TrailNet)") !=
                std::string::npos;
    }
    EXPECT_TRUE(overlay_series);
    // Per-combination metrics carry the sanitized prefix, and the
    // summary renders the overlay table.
    EXPECT_GT(metric("nvidia_agx_trailnet_nominal_v_safe"), 0.0);
    EXPECT_NE(outcome.result.summary.find("DVFS overlay"),
              std::string::npos);

    // A typo'd platform in the list fails with suggestions.
    ScenarioSpec bad = spec;
    bad.overrides.set("platforms", "Nvidia TX2, Nvidia AXG");
    const ScenarioOutcome failed = runner.run(bad);
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("did you mean"), std::string::npos)
        << failed.error;
}

TEST(Runner, RooflineStudyRendersTheStageBreakdown)
{
    ScenarioSpec spec;
    spec.study = "roofline";
    spec.overrides.set("samples", "9");
    spec.overrides.set("platform", "TX2-CPU + Navion");
    spec.overrides.set("pipeline", "SPA package delivery");

    const ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto metric = [&](const std::string &name) {
        for (const auto &m : outcome.result.metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    EXPECT_EQ(metric("pipeline_stages"), 4.0);
    // The stage-gated Navion ceiling shortens exactly the SLAM
    // stage: its roofline bound is attributed to compute ceiling 2
    // while the other stages ride their modeled host-CPU bounds
    // (the planner: 16.79 GOP on the 42 GOPS scalar roof),
    // reproducing the paper's 1.23 Hz accelerated pipeline.
    EXPECT_NEAR(metric("stage_slam_latency"), 5.814, 0.01);
    EXPECT_EQ(metric("stage_slam_binding_kind"), 0.0);
    EXPECT_EQ(metric("stage_slam_binding_index"), 2.0);
    EXPECT_NEAR(metric("stage_path_planner_latency"),
                1000.0 * 16.79 / 42.0, 1e-9);
    EXPECT_NEAR(metric("pipeline_throughput"), 1.23, 0.01);
    EXPECT_NE(outcome.result.summary.find("Navion VIO ASIC"),
              std::string::npos);

    // Unknown pipeline and stage names fail with suggestions.
    ScenarioSpec bad_pipeline = spec;
    bad_pipeline.overrides.set("pipeline", "SPA package delivry");
    const ScenarioOutcome no_pipeline = runner.run(bad_pipeline);
    EXPECT_FALSE(no_pipeline.ok);
    EXPECT_NE(no_pipeline.error.find("did you mean"),
              std::string::npos)
        << no_pipeline.error;

    ScenarioSpec bad_stage = spec;
    bad_stage.overrides.set("stage", "SLMA");
    const ScenarioOutcome no_stage = runner.run(bad_stage);
    EXPECT_FALSE(no_stage.ok);
    EXPECT_NE(no_stage.error.find("did you mean"),
              std::string::npos)
        << no_stage.error;
    EXPECT_NE(no_stage.error.find("SLAM"), std::string::npos)
        << no_stage.error;

    // stage= narrows the breakdown to the named stage.
    ScenarioSpec slam_only = spec;
    slam_only.overrides.set("stage", "SLAM");
    const ScenarioOutcome narrowed = runner.run(slam_only);
    ASSERT_TRUE(narrowed.ok) << narrowed.error;
    bool planner_metric = false;
    for (const auto &m : narrowed.result.metrics) {
        planner_metric = planner_metric ||
                         m.name == "stage_path_planner_latency";
    }
    EXPECT_FALSE(planner_metric);
}

TEST(Runner, FaultsStudyReportsPerStageBindingShifts)
{
    ScenarioSpec spec;
    spec.study = "faults";
    spec.overrides.set("fault", "stage-failure");
    spec.overrides.set("samples", "256");
    spec.overrides.set("levels", "2");

    const ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto metric = [&](const std::string &name) {
        for (const auto &m : outcome.result.metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    // The stage-failure suite has no platform faults, so on the
    // measured TX2 every surviving stage stays
    // measurement-sourced — the per-stage binding metrics make
    // that visible in the artifact.
    EXPECT_EQ(metric("stage_slam_measured"), 1.0);
    EXPECT_EQ(metric("stage_slam_compute_bound"), 0.0);
    EXPECT_EQ(metric("stage_path_planner_measured"), 1.0);
    EXPECT_EQ(metric("stage_octomap_measured"), 1.0);
    EXPECT_EQ(metric("stage_command_tracking_measured"), 1.0);
}

TEST(Runner, FaultsStudyReportsTheDegradedEnvelope)
{
    ScenarioSpec spec;
    spec.study = "faults";
    spec.overrides.set("fault", "mixed");
    spec.overrides.set("samples", "256");
    spec.overrides.set("levels", "3");

    const ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.status, ScenarioStatus::Ok);

    const auto metric = [&](const std::string &name) {
        for (const auto &m : outcome.result.metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    EXPECT_GT(metric("baseline_v_safe"), 0.0);
    EXPECT_LE(metric("degraded_v_safe_mean"),
              metric("baseline_v_safe") + 1e-12);
    const double abort_probability = metric("abort_probability");
    EXPECT_GE(abort_probability, 0.0);
    EXPECT_LE(abort_probability, 1.0);
    // One degradation-curve point per level in every series.
    ASSERT_FALSE(outcome.result.series.empty());
    EXPECT_EQ(outcome.result.series.front().size(), 3u);

    // Unknown suites fail the scenario with the suite list.
    ScenarioSpec bad = spec;
    bad.overrides.set("fault", "meteor-strike");
    const ScenarioOutcome failed = runner.run(bad);
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("meteor-strike"),
              std::string::npos);
}

TEST(Runner, StageScopedSuitesRoundTripThroughTheTextForm)
{
    // The new stage-scoped suites, written exactly as a scenario
    // file would spell them, parse and run end to end on the
    // accelerated Navion family.
    const ScenarioSpec spec = ScenarioSpec::parse(
        "# ECC fallback drill on the accelerated family\n"
        "study = faults\n"
        "label = ecc drill\n"
        "fault = ecc-fallback\n"
        "platform = TX2-CPU + Navion\n"
        "samples = 512\n"
        "levels = 2\n");
    EXPECT_EQ(spec.study, "faults");
    EXPECT_EQ(spec.displayLabel(), "ecc drill");
    EXPECT_EQ(spec.overrides.get("fault", ""), "ecc-fallback");

    const ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto metric = [&](const std::string &name) {
        for (const auto &m : outcome.result.metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    // Stage-scoped derates never strand SLAM: whether the Navion
    // runs at full peak, half peak, or drops out entirely, the
    // stage lands on *a* compute roof (worst case the NEON one).
    EXPECT_EQ(metric("stage_slam_compute_bound"), 1.0);
    EXPECT_EQ(metric("abort_probability"), 0.0);
    EXPECT_GT(
        metric("activation_slam_accelerator_ecc_half_peak"), 0.0);
    EXPECT_LE(metric("degraded_v_safe_mean"),
              metric("baseline_v_safe") + 1e-12);
    EXPECT_NE(outcome.result.summary.find("ecc-fallback"),
              std::string::npos);

    // Same grammar, the traffic-inflation suite: contention flips
    // the mapping stage memory-bound in the activated missions.
    const ScenarioSpec spill = ScenarioSpec::parse(
        "study = faults\n"
        "fault = cache-contention\n"
        "platform = TX2-CPU + Navion\n"
        "samples = 512\n"
        "levels = 2\n");
    const ScenarioOutcome spilled = runner.run(spill);
    ASSERT_TRUE(spilled.ok) << spilled.error;
    double octomap_memory_bound = -1.0;
    for (const auto &m : spilled.result.metrics) {
        if (m.name == "stage_octomap_memory_bound")
            octomap_memory_bound = m.value;
    }
    EXPECT_GT(octomap_memory_bound, 0.0);
    EXPECT_LT(octomap_memory_bound, 1.0);
}

TEST(Runner, FaultsStudyRejectsOutOfRangeParams)
{
    // Out-of-range severities and typo'd redundancy schemes are
    // rejected by name, never silently clamped.
    ScenarioSpec spec;
    spec.study = "faults";
    spec.overrides.set("fault", "ecc-fallback");
    spec.overrides.set("samples", "64");
    spec.overrides.set("levels", "2");

    const ScenarioRunner runner;
    // (Non-numeric/NaN text is already rejected one layer down by
    // StudyParams::getNumber, which names the parameter itself.)
    for (const char *scale : {"1.5", "-0.5"}) {
        ScenarioSpec bad = spec;
        bad.overrides.set("fault_scale", scale);
        const ScenarioOutcome failed = runner.run(bad);
        EXPECT_FALSE(failed.ok) << scale;
        EXPECT_NE(failed.error.find("fault_scale"),
                  std::string::npos)
            << failed.error;
        EXPECT_NE(failed.error.find("[0, 1]"), std::string::npos)
            << failed.error;
    }

    ScenarioSpec typo = spec;
    typo.overrides.set("redundancy", "dul");
    const ScenarioOutcome failed = runner.run(typo);
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("did you mean"), std::string::npos)
        << failed.error;
    EXPECT_NE(failed.error.find("dual"), std::string::npos)
        << failed.error;
}

TEST(Runner, FaultsStudyBoundsCountsAndSeedsBeforeTheCast)
{
    ScenarioSpec spec;
    spec.study = "faults";
    spec.overrides.set("fault", "ecc-fallback");
    spec.overrides.set("samples", "64");
    spec.overrides.set("levels", "2");
    const ScenarioRunner runner;
    ASSERT_TRUE(runner.run(spec).ok);

    // Counts and seeds are bounded before they are cast: a huge
    // sample count must name `samples` rather than trip the
    // campaign's "needs >= 10 samples" check after a wrapped cast,
    // and a negative or huge seed is refused rather than wrapped.
    for (const auto &[key, value] :
         {std::pair{"samples", "1e20"}, std::pair{"seed", "-1"},
          std::pair{"seed", "1e30"}}) {
        ScenarioSpec bad = spec;
        bad.overrides.set(key, value);
        const ScenarioOutcome failed = runner.run(bad);
        EXPECT_FALSE(failed.ok) << key << "=" << value;
        EXPECT_NE(failed.error.find(std::string("'") + key + "'"),
                  std::string::npos)
            << failed.error;
        EXPECT_EQ(failed.error.find(">= 10 samples"), std::string::npos)
            << failed.error;
    }
}

TEST(Runner, StudiesCapResourceCountsByName)
{
    // Every count a study loops over or allocates from is bounded
    // before the cast or the allocation, by name. Before the caps,
    // steps=4294967298 wrapped to 2 steps through the int cast and
    // ran; the later values died in a bare std::bad_alloc or
    // allocated gigabytes.
    struct Case
    {
        const char *study, *key, *value, *cap;
    };
    const Case cases[] = {
        {"sweep", "steps", "4294967298", "100000"},
        {"sweep", "steps", "1e9", "100000"},
        {"faults", "samples", "100000001", "100000000"},
        {"faults", "levels", "1001", "1000"},
        {"roofline", "samples", "1e6", "100000"},
        {"fig09", "sweep_samples", "1e6", "100000"},
    };
    const ScenarioRunner runner;
    for (const Case &c : cases) {
        ScenarioSpec spec;
        spec.study = c.study;
        spec.overrides.set(c.key, c.value);
        const ScenarioOutcome failed = runner.run(spec);
        // Fatal: an uncapped count would go on to allocate.
        ASSERT_FALSE(failed.ok) << c.key << "=" << c.value;
        EXPECT_NE(failed.error.find(std::string("'") + c.key + "'"),
                  std::string::npos)
            << failed.error;
        EXPECT_NE(failed.error.find(std::string("no larger than ") +
                                    c.cap),
                  std::string::npos)
            << failed.error;
    }

    // The caps themselves are accepted.
    ScenarioSpec sweep;
    sweep.study = "sweep";
    sweep.overrides.set("steps", "100000");
    sweep.overrides.set("knob", "payload_weight");
    EXPECT_TRUE(runner.run(sweep).ok);
}

/** A faults-study metric by name. */
double
studyMetric(const ScenarioOutcome &outcome, const std::string &name)
{
    for (const auto &m : outcome.result.metrics) {
        if (m.name == name)
            return m.value;
    }
    ADD_FAILURE() << "missing metric " << name;
    return -1.0;
}

TEST(Runner, FaultsStudySamplesTheFullSeverityOnce)
{
    // The study's degraded_*/activation_*/binds_*/stage_* metrics
    // and the curve's top point come from one sampling of the full
    // severity; both must be exactly a direct run() of the campaign
    // the study builds.
    for (const auto &[suite_name, platform_name] :
         {std::pair{"mixed", "Nvidia TX2"},
          std::pair{"ecc-fallback", "TX2-CPU + Navion"}}) {
        ScenarioSpec spec;
        spec.study = "faults";
        spec.overrides.set("fault", suite_name);
        spec.overrides.set("platform", platform_name);
        spec.overrides.set("samples", "3001");
        spec.overrides.set("levels", "4");
        spec.overrides.set("seed", "9");
        const ScenarioOutcome outcome = ScenarioRunner().run(spec);
        ASSERT_TRUE(outcome.ok) << outcome.error;

        // The campaign exactly as the study builds it at default
        // knobs.
        skyline::SkylineSession session;
        session.set("platform", platform_name);
        const auto machine = session.rooflinePlatform();
        ASSERT_TRUE(machine.has_value());
        const auto algorithms = workload::annotatedAlgorithms();
        const auto &algorithm =
            algorithms.byName(session.knobs().algorithm);
        const fault::FaultSuite &suite = fault::findFaultSuite(suite_name);
        fault::CampaignSpec campaign_spec;
        campaign_spec.nominal = session.model().inputs();
        campaign_spec.platform = machine;
        campaign_spec.profile =
            workload::workloadProfile(algorithm, *machine);
        campaign_spec.workPerFrameGop = algorithm.workPerFrameGop();
        if (std::string(suite_name) == "ecc-fallback") {
            campaign_spec.pipeline =
                workload::SpaPipeline::mavbenchPackageDeliveryTx2();
            campaign_spec.redundancy = pipeline::RedundancyScheme::Dual;
        }
        campaign_spec.faults = suite.faults;
        const fault::CampaignResult direct =
            fault::FaultCampaign(campaign_spec).run(3001, 9);

        std::vector<std::pair<std::string, double>> want = {
            {"degraded_v_safe_mean", direct.safeVelocity.mean},
            {"degraded_v_safe_p5", direct.safeVelocity.p5},
            {"abort_probability", direct.abortProbability},
            {"samples", static_cast<double>(direct.samples)}};
        for (std::size_t j = 0; j < suite.faults.size(); ++j) {
            want.emplace_back(
                "activation_" +
                    ScenarioRunner::sanitizeLabel(suite.faults[j].name),
                direct.faultActivationRate[j]);
        }
        for (std::size_t i = 0; i < direct.probComputeCeilingBinds.size();
             ++i) {
            want.emplace_back("binds_compute_" +
                                  machine->computeCeilings()[i].name,
                              direct.probComputeCeilingBinds[i]);
        }
        for (std::size_t i = 0; i < direct.probMemoryCeilingBinds.size();
             ++i) {
            want.emplace_back("binds_memory_" +
                                  machine->memoryCeilings()[i].name,
                              direct.probMemoryCeilingBinds[i]);
        }
        for (const auto &stats : direct.stageBindings) {
            const std::string prefix =
                "stage_" + ScenarioRunner::sanitizeLabel(stats.stage);
            want.emplace_back(prefix + "_compute_bound",
                              stats.probComputeBound);
            want.emplace_back(prefix + "_memory_bound",
                              stats.probMemoryBound);
            want.emplace_back(prefix + "_measured", stats.probMeasured);
        }
        for (const auto &[name, value] : want) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          studyMetric(outcome, name)),
                      std::bit_cast<std::uint64_t>(value))
                << suite_name << ": " << name;
        }

        // Series order: v_safe mean, p5, p95, abort probability; the
        // curve's last point is scale 1, the full severity.
        const auto &series = outcome.result.series;
        ASSERT_EQ(series.size(), 4u);
        const double top[4] = {
            direct.safeVelocity.mean, direct.safeVelocity.p5,
            direct.safeVelocity.p95, direct.abortProbability};
        for (std::size_t k = 0; k < 4; ++k) {
            ASSERT_EQ(series[k].size(), 4u);
            EXPECT_EQ(series[k].points().back().x, 1.0);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          series[k].points().back().y),
                      std::bit_cast<std::uint64_t>(top[k]))
                << suite_name << ": " << series[k].name();
        }
    }
}

TEST(Runner, DeadlineTimesOutAnOverrunningScenario)
{
    ScenarioSpec spec;
    spec.study = "faults";
    // Big enough that the campaign cannot finish inside the
    // deadline; the cooperative checkpoint fires at the first
    // sample-block boundary past it.
    spec.overrides.set("samples", "2000000");
    spec.overrides.set("levels", "9");

    RunnerOptions options;
    options.deadlineMs = 1;
    const ScenarioOutcome outcome =
        ScenarioRunner().run(spec, options);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.status, ScenarioStatus::Timeout);
    EXPECT_TRUE(outcome.artifacts.empty());

    const std::string summary =
        ScenarioRunner::renderSummary({outcome});
    EXPECT_NE(summary.find("FAILED (timeout)"), std::string::npos)
        << summary;
}

TEST(Runner, Fig07HonoursItsDeadline)
{
    // fig07's flight trials run on the study's parallel options, so
    // the deadline fires at a trial boundary and the scenario leaves
    // no artifact behind.
    namespace fs = std::filesystem;
    const std::string dir = "artifacts/scenario_test/fig07_deadline";
    fs::remove_all(dir);

    ScenarioSpec spec;
    spec.study = "fig07";
    RunnerOptions options;
    options.outDir = dir;
    options.deadlineMs = 1;
    const ScenarioOutcome outcome = ScenarioRunner().run(spec, options);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.status, ScenarioStatus::Timeout) << outcome.error;
    EXPECT_TRUE(outcome.artifacts.empty());
    EXPECT_TRUE(fs::is_empty(dir));
}

TEST(Runner, Fig07RunsUnderAnUnboundedDeadline)
{
    // Budgets past the clock's range mean "no limit": SIZE_MAX is
    // above the signed range of milliseconds, INT64_MAX ms overflows
    // now() + budget. Neither may time out at the first checkpoint.
    for (const std::size_t budget :
         {std::size_t{SIZE_MAX}, std::size_t{INT64_MAX}}) {
        ScenarioSpec spec;
        spec.study = "fig07";
        RunnerOptions options;
        options.deadlineMs = budget;
        const ScenarioOutcome outcome =
            ScenarioRunner().run(spec, options);
        EXPECT_TRUE(outcome.ok) << budget << ": " << outcome.error;
        EXPECT_EQ(outcome.status, ScenarioStatus::Ok);
    }
}

TEST(Runner, FailFastCancelsTheRestOfTheBatch)
{
    ScenarioSpec bad;
    bad.study = "fig02";
    bad.overrides.set("bogus", "1");
    ScenarioSpec good;
    good.study = "fig12";

    // A serial pool makes the schedule deterministic: the failure
    // trips the shared flag before the second scenario starts.
    exec::ThreadPool pool1(1);
    RunnerOptions options;
    options.failFast = true;
    options.parallel.pool = &pool1;
    const auto outcomes =
        ScenarioRunner().runAll({bad, good}, options);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].status, ScenarioStatus::Error);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].status, ScenarioStatus::Cancelled);

    // Without fail-fast the same batch still runs everything
    // (CapturesStudyFailuresPerScenario), and the summary names
    // the cancellation.
    const std::string summary =
        ScenarioRunner::renderSummary(outcomes);
    EXPECT_NE(summary.find("FAILED (cancelled)"),
              std::string::npos)
        << summary;
}

TEST(Runner, UniqueArtifactBasenamesForRepeatedStudies)
{
    namespace fs = std::filesystem;
    const std::string dir = "artifacts/scenario_test/repeat";
    fs::remove_all(dir);

    ScenarioSpec a;
    a.study = "fig12";
    ScenarioSpec b;
    b.study = "fig12";
    RunnerOptions options;
    options.outDir = dir;
    const auto outcomes = ScenarioRunner().runAll({a, b}, options);
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].ok && outcomes[1].ok);
    EXPECT_TRUE(fs::exists(dir + "/fig12.json"));
    EXPECT_TRUE(fs::exists(dir + "/fig12_2.json"));
}

TEST(Runner, RunAllEmitsArtifactsForEveryStudy)
{
    namespace fs = std::filesystem;
    const std::string dir = "artifacts/scenario_test/all";
    fs::remove_all(dir);

    const ScenarioRunner runner;
    RunnerOptions options;
    options.outDir = dir;
    const auto outcomes =
        runner.runAll(runner.allSpecs(), options);
    ASSERT_EQ(outcomes.size(), runner.registry().all().size());
    for (const auto &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok)
            << outcome.study << ": " << outcome.error;
        ASSERT_FALSE(outcome.artifacts.empty()) << outcome.study;
        // Every study at least produces the JSON metrics artifact.
        EXPECT_NE(outcome.artifacts.front().find(".json"),
                  std::string::npos);
        for (const auto &path : outcome.artifacts)
            EXPECT_TRUE(fs::exists(path)) << path;
    }
    const std::string summary =
        ScenarioRunner::renderSummary(outcomes);
    EXPECT_NE(summary.find("0 failed"), std::string::npos);
}

TEST(Runner, BatchIsBitIdenticalAtAnyThreadCount)
{
    namespace fs = std::filesystem;
    const std::string dir1 = "artifacts/scenario_test/t1";
    const std::string dir8 = "artifacts/scenario_test/t8";
    fs::remove_all(dir1);
    fs::remove_all(dir8);

    const ScenarioRunner runner;
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);

    RunnerOptions serial;
    serial.outDir = dir1;
    serial.parallel.pool = &pool1;
    RunnerOptions parallel;
    parallel.outDir = dir8;
    parallel.parallel.pool = &pool8;

    const auto specs = runner.allSpecs();
    const auto a = runner.runAll(specs, serial);
    const auto b = runner.runAll(specs, parallel);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ok, b[i].ok) << a[i].study;
        EXPECT_EQ(a[i].result.summary, b[i].result.summary)
            << a[i].study;
        ASSERT_EQ(a[i].result.metrics.size(),
                  b[i].result.metrics.size());
        for (std::size_t m = 0; m < a[i].result.metrics.size();
             ++m) {
            EXPECT_EQ(a[i].result.metrics[m].value,
                      b[i].result.metrics[m].value)
                << a[i].study << " "
                << a[i].result.metrics[m].name;
        }
        // Artifact bytes, not just parsed values, must match.
        ASSERT_EQ(a[i].artifacts.size(), b[i].artifacts.size());
        for (std::size_t f = 0; f < a[i].artifacts.size(); ++f) {
            EXPECT_EQ(slurp(a[i].artifacts[f]),
                      slurp(b[i].artifacts[f]))
                << a[i].artifacts[f];
        }
    }
    EXPECT_EQ(ScenarioRunner::renderSummary(a),
              ScenarioRunner::renderSummary(b));
}

TEST(JsonWriter, EscapesAndFormats)
{
    EXPECT_EQ(plot::Json::str("a\"b\\c\nd"),
              "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(plot::Json::num(2.5), "2.5");
    EXPECT_EQ(plot::Json::num(
                  std::numeric_limits<double>::infinity()),
              "null");
    const std::string json = plot::JsonObject()
                                 .add("name", "knee")
                                 .add("value", 43.0)
                                 .add("flag", true)
                                 .render();
    EXPECT_EQ(json,
              "{\"name\": \"knee\", \"value\": 43, "
              "\"flag\": true}");
}

} // namespace
