/**
 * @file
 * Tests for the fault-injection subsystem: the fault taxonomy and
 * suite catalog, the FaultCampaign determinism contract (no-fault
 * campaigns reproduce the baseline; faulted campaigns are
 * bit-identical at any thread count), graceful degradation through
 * redundancy, and the crash-safety of the atomic artifact writers
 * (a SIGKILL mid-write never leaves a truncated file at a final
 * path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "components/catalog.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "pipeline/redundancy.hh"
#include "plot/chart.hh"
#include "plot/csv_writer.hh"
#include "plot/json_writer.hh"
#include "plot/svg_writer.hh"
#include "skyline/report.hh"
#include "studies/presets.hh"
#include "support/atomic_file.hh"
#include "support/errors.hh"
#include "support/exact_sum.hh"
#include "support/rng.hh"
#include "workload/spa_pipeline.hh"
#include "workload/stage_eval.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::fault;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// Defined first so it runs before any test spins up worker threads:
// the child process forks from a single-threaded parent.
TEST(AtomicWrite, SigkillMidBatchLeavesNoTruncatedArtifact)
{
    namespace fs = std::filesystem;
    const std::string dir = "artifacts/fault_test/kill";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // A payload big enough that a write takes real time, so the
    // SIGKILL lands mid-write with high probability.
    std::vector<plot::Series> series;
    series.emplace_back("degraded");
    for (int i = 0; i < 20000; ++i)
        series.back().add(i, i * 0.5);
    plot::Chart chart("kill test", plot::Axis("x"),
                      plot::Axis("y"));
    chart.add(series.front());
    const std::string json =
        plot::JsonObject().add("study", "kill").render();
    std::string html = "<html><body>";
    for (int i = 0; i < 5000; ++i)
        html += "<p>row</p>";
    html += "</body></html>\n";

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Overwrite the same final paths forever (the parent kills
        // us); every publish is a write-temp-then-rename.
        for (;;) {
            plot::CsvWriter::writeFile(series, dir + "/a.csv", "x",
                                       "y");
            plot::writeJsonFile(json, dir + "/a.json");
            plot::SvgWriter().writeFile(chart, dir + "/a.svg");
            skyline::ReportWriter::writeFile(html, dir + "/a.html");
        }
        _exit(0); // Unreachable.
    }

    // Wait until every artifact has been published at least once,
    // then kill the writer mid-batch.
    const auto all_exist = [&] {
        return fs::exists(dir + "/a.csv") &&
               fs::exists(dir + "/a.json") &&
               fs::exists(dir + "/a.svg") &&
               fs::exists(dir + "/a.html");
    };
    for (int spins = 0; spins < 20000 && !all_exist(); ++spins)
        usleep(500);
    ASSERT_TRUE(all_exist()) << "writer child never published";
    usleep(20000); // Land inside a later write, not the first.
    kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

    // The child only ever writes one content per path, so any
    // complete published file must match it byte-for-byte; a
    // truncated or interleaved file at a final path is a
    // crash-safety failure. Leftover *.tmp files are permitted.
    EXPECT_EQ(slurp(dir + "/a.csv"),
              plot::CsvWriter::render(series, "x", "y"));
    EXPECT_EQ(slurp(dir + "/a.json"), json + "\n");
    EXPECT_EQ(slurp(dir + "/a.svg"),
              plot::SvgWriter().render(chart));
    EXPECT_EQ(slurp(dir + "/a.html"), html);
}

TEST(AtomicWrite, FailurePathsNameTheFile)
{
    EXPECT_THROW(
        writeFileAtomic("artifacts/no/such/dir/file.txt", "x"),
        ModelError);
    try {
        writeFileAtomic("artifacts/no/such/dir/file.txt", "x");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "artifacts/no/such/dir/file.txt"),
                  std::string::npos);
    }
}

TEST(FaultSpec, ValidationNamesTheOffendingField)
{
    FaultSpec spec;
    spec.kind = FaultKind::CeilingDerate;
    EXPECT_THROW(validateFaultSpec(spec), ModelError); // No name.

    spec.name = "demo";
    spec.probability = 1.5;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.probability = -0.1;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.probability = 0.5;

    spec.derate = 0.0;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.derate = 1.5;
    try {
        validateFaultSpec(spec);
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("derate"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("demo"),
                  std::string::npos);
    }
    spec.derate = 0.5;
    EXPECT_NO_THROW(validateFaultSpec(spec));

    spec.kind = FaultKind::ThermalThrottle;
    spec.dvfs.minFrequencyFraction = 0.0;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.dvfs.minFrequencyFraction = 0.2;
    EXPECT_NO_THROW(validateFaultSpec(spec));

    spec.kind = FaultKind::StageLatencyInflation;
    EXPECT_THROW(validateFaultSpec(spec), ModelError); // No stage.
    spec.stage = "SLAM";
    spec.latencyFactor = 0.5;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.latencyFactor = 3.0;
    EXPECT_NO_THROW(validateFaultSpec(spec));

    spec.kind = FaultKind::StageFailure;
    spec.stage.clear();
    EXPECT_THROW(validateFaultSpec(spec), ModelError);

    spec.kind = FaultKind::SensorDropout;
    spec.sensorDerate = 1.5;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.sensorDerate = 1.0;
    EXPECT_NO_THROW(validateFaultSpec(spec));

    // Stage-scoped ceiling derate: needs a stage, a derate in
    // [0, 1] (0 removes the class), and a non-General class.
    spec.kind = FaultKind::StageCeilingDerate;
    spec.stage.clear();
    spec.derate = 0.5;
    EXPECT_THROW(validateFaultSpec(spec), ModelError); // No stage.
    spec.stage = "SLAM";
    spec.derate = -0.1;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.derate = 1.5;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.derate = 0.0; // Legal: the class is removed outright.
    EXPECT_NO_THROW(validateFaultSpec(spec));
    spec.targetClass = platform::ComputeTarget::General;
    try {
        validateFaultSpec(spec);
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("targetClass"),
                  std::string::npos)
            << e.what();
    }
    spec.targetClass = platform::ComputeTarget::Accelerator;

    // Stage-scoped traffic inflation: needs a stage and a factor
    // in [1, 1e6].
    spec.kind = FaultKind::StageTrafficInflation;
    spec.stage.clear();
    EXPECT_THROW(validateFaultSpec(spec), ModelError); // No stage.
    spec.stage = "OctoMap";
    spec.trafficFactor = 0.5;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.trafficFactor = 2e6;
    EXPECT_THROW(validateFaultSpec(spec), ModelError);
    spec.trafficFactor = 2.0;
    EXPECT_NO_THROW(validateFaultSpec(spec));
}

TEST(FaultSuite, CatalogCoversEveryLayerAndRejectsUnknownNames)
{
    for (const char *name :
         {"none", "ceiling-derate", "thermal-throttle",
          "stage-failure", "sensor-dropout", "ecc-fallback",
          "cache-contention", "mixed"}) {
        const FaultSuite &suite = findFaultSuite(name);
        EXPECT_EQ(suite.name, name);
        EXPECT_FALSE(suite.description.empty());
    }
    EXPECT_TRUE(findFaultSuite("none").faults.empty());

    try {
        findFaultSuite("mixd");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("did you mean"), std::string::npos)
            << message;
        EXPECT_NE(message.find("mixed"), std::string::npos)
            << message;
    }

    EXPECT_STREQ(toString(FaultKind::CeilingDerate),
                 "ceiling-derate");
    EXPECT_STREQ(toString(FaultKind::SensorDropout),
                 "sensor-dropout");
    EXPECT_STREQ(toString(FaultKind::StageCeilingDerate),
                 "stage-ceiling-derate");
    EXPECT_STREQ(toString(FaultKind::StageTrafficInflation),
                 "stage-traffic-inflation");
}

/** A TX2 + DroNet campaign spec loaded with one standard suite. */
CampaignSpec
tx2Campaign(const std::string &suite)
{
    const auto &catalog = components::Catalog::standard();
    const platform::RooflinePlatform &tx2 =
        catalog.rooflines().byName("Nvidia TX2");
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &dronet = algorithms.byName("DroNet");

    CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = tx2;
    spec.profile = workload::workloadProfile(dronet, tx2);
    spec.workPerFrameGop = dronet.workPerFrameGop();
    spec.faults = findFaultSuite(suite).faults;
    return spec;
}

TEST(FaultCampaign, NoFaultCampaignReproducesTheBaseline)
{
    const FaultCampaign campaign(tx2Campaign("none"));
    const core::F1Analysis baseline = campaign.baseline();
    ASSERT_GT(baseline.safeVelocity.value(), 0.0);

    const CampaignResult result = campaign.run(1000, 7);
    EXPECT_EQ(result.samples, 1000u);
    EXPECT_EQ(result.abortProbability, 0.0);
    // Every sample is the baseline analysis, exactly.
    EXPECT_EQ(result.safeVelocity.p5, baseline.safeVelocity.value());
    EXPECT_EQ(result.safeVelocity.p50,
              baseline.safeVelocity.value());
    EXPECT_EQ(result.safeVelocity.p95,
              baseline.safeVelocity.value());
    // Each sample is byte-identical to the baseline (exact order
    // statistics above); the mean's running sum accumulates a few
    // ulps of rounding over the batch, so it only gets a tolerance.
    EXPECT_NEAR(result.safeVelocity.mean,
                baseline.safeVelocity.value(), 1e-11);
    EXPECT_NEAR(result.safeVelocity.stddev, 0.0, 1e-9);
    // The fault-free binding tally pins the baseline's ceiling.
    ASSERT_FALSE(result.probComputeCeilingBinds.empty());
    double bound_mass = 0.0;
    for (const double p : result.probComputeCeilingBinds)
        bound_mass += p;
    for (const double p : result.probMemoryCeilingBinds)
        bound_mass += p;
    EXPECT_DOUBLE_EQ(bound_mass, 1.0);
}

/** Exact equality across every field of a CampaignResult. */
void
expectBitIdentical(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.safeVelocity.mean, b.safeVelocity.mean);
    EXPECT_EQ(a.safeVelocity.stddev, b.safeVelocity.stddev);
    EXPECT_EQ(a.safeVelocity.p5, b.safeVelocity.p5);
    EXPECT_EQ(a.safeVelocity.p50, b.safeVelocity.p50);
    EXPECT_EQ(a.safeVelocity.p95, b.safeVelocity.p95);
    EXPECT_EQ(a.abortProbability, b.abortProbability);
    ASSERT_EQ(a.faultActivationRate.size(),
              b.faultActivationRate.size());
    for (std::size_t j = 0; j < a.faultActivationRate.size(); ++j)
        EXPECT_EQ(a.faultActivationRate[j],
                  b.faultActivationRate[j]);
    ASSERT_EQ(a.probComputeCeilingBinds.size(),
              b.probComputeCeilingBinds.size());
    for (std::size_t k = 0; k < a.probComputeCeilingBinds.size();
         ++k)
        EXPECT_EQ(a.probComputeCeilingBinds[k],
                  b.probComputeCeilingBinds[k]);
    ASSERT_EQ(a.probMemoryCeilingBinds.size(),
              b.probMemoryCeilingBinds.size());
    for (std::size_t k = 0; k < a.probMemoryCeilingBinds.size();
         ++k)
        EXPECT_EQ(a.probMemoryCeilingBinds[k],
                  b.probMemoryCeilingBinds[k]);
    ASSERT_EQ(a.stageBindings.size(), b.stageBindings.size());
    for (std::size_t s = 0; s < a.stageBindings.size(); ++s) {
        EXPECT_EQ(a.stageBindings[s].stage, b.stageBindings[s].stage);
        EXPECT_EQ(a.stageBindings[s].probComputeBound,
                  b.stageBindings[s].probComputeBound);
        EXPECT_EQ(a.stageBindings[s].probMemoryBound,
                  b.stageBindings[s].probMemoryBound);
        EXPECT_EQ(a.stageBindings[s].probMeasured,
                  b.stageBindings[s].probMeasured);
    }
    EXPECT_EQ(a.samples, b.samples);
}

TEST(FaultCampaign, FaultedCampaignIsBitIdenticalAcrossThreads)
{
    const FaultCampaign campaign(tx2Campaign("mixed"));

    // Spans many sample blocks so the chunk decomposition is
    // genuinely exercised.
    const std::size_t count = 100000;
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool2(2);
    exec::ThreadPool pool8(8);
    exec::ParallelOptions on1;
    on1.pool = &pool1;
    exec::ParallelOptions on2;
    on2.pool = &pool2;
    exec::ParallelOptions on8;
    on8.pool = &pool8;
    const auto serial = campaign.run(count, 42, on1);
    const auto twoway = campaign.run(count, 42, on2);
    const auto eightway = campaign.run(count, 42, on8);
    expectBitIdentical(serial, twoway);
    expectBitIdentical(serial, eightway);

    // The faults actually fire at their scaled rates...
    ASSERT_EQ(serial.faultActivationRate.size(), 3u);
    EXPECT_NEAR(serial.faultActivationRate[0], 0.2, 0.02);
    EXPECT_NEAR(serial.faultActivationRate[1], 0.15, 0.02);
    // ...and degrade the envelope below the baseline.
    const double baseline =
        campaign.baseline().safeVelocity.value();
    EXPECT_LT(serial.safeVelocity.mean, baseline);
    EXPECT_EQ(serial.safeVelocity.p95, baseline);

    // A different seed must actually change the stream.
    const auto reseeded = campaign.run(count, 43, on8);
    EXPECT_NE(serial.safeVelocity.mean,
              reseeded.safeVelocity.mean);
}

TEST(FaultCampaign, SurvivorsAreSummarizedInSampleOrder)
{
    // Two sensor faults: a full dropout aborts the mission, a half
    // dropout lowers v_safe. Replaying the campaign's documented
    // draws (one forked Rng per sampleBlock block, one uniform per
    // fault per sample) predicts every survivor's v_safe, so the
    // survivor summary has an independent oracle: exactly rounded
    // sums, one survivor at a time, and a full sort. This pins the
    // block-offset compaction and the order statistics, not just
    // run() == runReference().
    CampaignSpec spec = tx2Campaign("none");
    FaultSpec dropout;
    dropout.name = "dropout";
    dropout.kind = FaultKind::SensorDropout;
    dropout.probability = 0.3;
    dropout.sensorDerate = 1.0;
    FaultSpec halved = dropout;
    halved.name = "halved";
    halved.probability = 0.5;
    halved.sensorDerate = 0.5;
    spec.faults = {dropout, halved};
    const FaultCampaign campaign(spec);

    CampaignSpec always_halved = spec;
    always_halved.faults = {halved};
    always_halved.faults[0].probability = 1.0;
    const double v_full = campaign.baseline().safeVelocity.value();
    const double v_half =
        FaultCampaign(always_halved).run(100, 1).safeVelocity.p50;
    ASSERT_LT(v_half, v_full);

    const std::size_t count = 100003; // A partial last block.
    const std::uint64_t seed = 11;
    std::vector<double> survivors;
    Rng root(seed);
    for (std::size_t lo = 0; lo < count;
         lo += FaultCampaign::sampleBlock) {
        Rng rng = root.fork();
        const std::size_t hi =
            std::min(count, lo + FaultCampaign::sampleBlock);
        for (std::size_t i = lo; i < hi; ++i) {
            const bool aborts = rng.uniform() < dropout.probability;
            const bool halves = rng.uniform() < halved.probability;
            if (!aborts)
                survivors.push_back(halves ? v_half : v_full);
        }
    }
    ExactSum sum;
    for (const double v : survivors)
        sum.add(v);
    const double mean =
        sum.round() / static_cast<double>(survivors.size());
    ExactSum var;
    for (const double v : survivors)
        var.add((v - mean) * (v - mean));
    const double stddev = std::sqrt(
        var.round() / static_cast<double>(survivors.size() - 1));
    std::sort(survivors.begin(), survivors.end());
    const auto percentile = [&](double p) {
        const double rank =
            p / 100.0 * static_cast<double>(survivors.size() - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, survivors.size() - 1);
        return survivors[lo] + (rank - static_cast<double>(lo)) *
                                   (survivors[hi] - survivors[lo]);
    };

    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    for (exec::ThreadPool *pool : {&pool1, &pool8}) {
        exec::ParallelOptions options;
        options.pool = pool;
        for (const CampaignResult &result :
             {campaign.run(count, seed, options),
              campaign.runReference(count, seed, options)}) {
            EXPECT_EQ(result.abortProbability,
                      1.0 - static_cast<double>(survivors.size()) /
                                static_cast<double>(count));
            EXPECT_EQ(result.safeVelocity.mean, mean);
            EXPECT_EQ(result.safeVelocity.stddev, stddev);
            EXPECT_EQ(result.safeVelocity.p5, percentile(5.0));
            EXPECT_EQ(result.safeVelocity.p50, percentile(50.0));
            EXPECT_EQ(result.safeVelocity.p95, percentile(95.0));
        }
    }
}

TEST(FaultCampaign, DegradationCurveStartsAtTheBaseline)
{
    const FaultCampaign campaign(tx2Campaign("mixed"));
    const double baseline =
        campaign.baseline().safeVelocity.value();

    exec::ThreadPool pool(4);
    exec::ParallelOptions on_pool;
    on_pool.pool = &pool;
    const auto curve =
        campaign.degradationCurve(5, 2000, 1, on_pool);
    ASSERT_EQ(curve.size(), 5u);
    // Scale 0 disables every fault: the first point is the
    // baseline, exactly.
    EXPECT_EQ(curve.front().scale, 0.0);
    EXPECT_EQ(curve.front().abortProbability, 0.0);
    EXPECT_EQ(curve.front().p5SafeVelocity, baseline);
    EXPECT_EQ(curve.front().p95SafeVelocity, baseline);
    EXPECT_NEAR(curve.front().meanSafeVelocity, baseline, 1e-11);
    // The same seed at every level makes severity the only mover:
    // each sample's active-fault set only grows with scale, so the
    // degraded mean falls monotonically.
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_EQ(curve[i].scale,
                  static_cast<double>(i) /
                      static_cast<double>(curve.size() - 1));
        EXPECT_LE(curve[i].meanSafeVelocity,
                  curve[i - 1].meanSafeVelocity + 1e-12);
    }
    EXPECT_LT(curve.back().meanSafeVelocity, baseline);
}

TEST(FaultCampaign, RedundancyAbsorbsAStageFailure)
{
    CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.pipeline = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.redundancy = pipeline::RedundancyScheme::Dual;
    FaultSpec slam;
    slam.name = "SLAM dies";
    slam.kind = FaultKind::StageFailure;
    slam.stage = "SLAM";
    slam.probability = 1.0;
    spec.faults = {slam};

    // Dual redundancy: the replica takes over on every sample.
    const FaultCampaign dual(spec);
    const CampaignResult survived = dual.run(100, 3);
    EXPECT_EQ(survived.abortProbability, 0.0);
    EXPECT_GT(survived.safeVelocity.mean, 0.0);

    // No redundancy: the same failure aborts every mission, and
    // the all-aborted distribution stays zeroed.
    spec.redundancy = pipeline::RedundancyScheme::None;
    const FaultCampaign simplex(spec);
    const CampaignResult aborted = simplex.run(100, 3);
    EXPECT_EQ(aborted.abortProbability, 1.0);
    EXPECT_EQ(aborted.safeVelocity.mean, 0.0);
    EXPECT_EQ(aborted.safeVelocity.p95, 0.0);

    // A certain 3x planning slowdown costs throughput but never
    // the mission.
    FaultSpec slow;
    slow.name = "planning slowdown";
    slow.kind = FaultKind::StageLatencyInflation;
    slow.stage = "Path planner";
    slow.latencyFactor = 3.0;
    slow.probability = 1.0;
    spec.faults = {slow};
    const FaultCampaign slowed(spec);
    EXPECT_EQ(slowed.run(100, 3).abortProbability, 0.0);
    EXPECT_LT(slowed.run(100, 3).safeVelocity.mean,
              slowed.baseline().safeVelocity.value());
}

TEST(FaultCampaign, ConstructorRejectsMisconfiguredCampaigns)
{
    // A platform fault without a platform names the fault.
    CampaignSpec no_platform;
    no_platform.nominal = studies::pelicanInputs(units::Hertz(20.0));
    no_platform.faults = findFaultSuite("ceiling-derate").faults;
    try {
        FaultCampaign campaign(no_platform);
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("accelerator half peak"),
                  std::string::npos)
            << e.what();
    }

    // A pipeline fault without a pipeline likewise.
    CampaignSpec no_pipeline;
    no_pipeline.nominal = studies::pelicanInputs(units::Hertz(20.0));
    no_pipeline.faults = findFaultSuite("stage-failure").faults;
    EXPECT_THROW(FaultCampaign{no_pipeline}, ModelError);

    // Out-of-range ceiling index.
    CampaignSpec bad_index = tx2Campaign("none");
    FaultSpec derate;
    derate.name = "phantom ceiling";
    derate.kind = FaultKind::CeilingDerate;
    derate.ceilingIndex = 99;
    derate.derate = 0.5;
    derate.probability = 0.1;
    bad_index.faults = {derate};
    EXPECT_THROW(FaultCampaign{bad_index}, ModelError);

    // Unknown stage names surface the pipeline's diagnostic.
    CampaignSpec bad_stage;
    bad_stage.nominal = studies::pelicanInputs(units::Hertz(20.0));
    bad_stage.pipeline = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    FaultSpec ghost;
    ghost.name = "ghost stage";
    ghost.kind = FaultKind::StageFailure;
    ghost.stage = "Warp";
    ghost.probability = 0.1;
    bad_stage.faults = {ghost};
    EXPECT_THROW(FaultCampaign{bad_stage}, ModelError);

    // Layer cap: nine platform faults overflow the variant table.
    CampaignSpec overflow = tx2Campaign("none");
    for (int i = 0; i < 9; ++i) {
        FaultSpec f;
        f.name = "derate " + std::to_string(i);
        f.kind = FaultKind::CeilingDerate;
        f.ceilingIndex = 0;
        f.derate = 0.9;
        f.probability = 0.1;
        overflow.faults.push_back(f);
    }
    EXPECT_THROW(FaultCampaign{overflow}, ModelError);

    // Negative severity scale.
    CampaignSpec negative = tx2Campaign("none");
    negative.probabilityScale = -1.0;
    EXPECT_THROW(FaultCampaign{negative}, ModelError);

    // run() and degradationCurve() validate their shapes.
    const FaultCampaign campaign(tx2Campaign("mixed"));
    EXPECT_THROW(campaign.run(5), ModelError);
    EXPECT_THROW(campaign.degradationCurve(1, 100), ModelError);
}

TEST(FaultCampaign, FaultCountsAreCappedByName)
{
    // Each layer holds at most 8 faults — the sensor layer included —
    // and a campaign at most 16, which bounds the outcome table at
    // 2^16 entries. The error names the limit and the layer.
    const auto expect_rejected = [](const CampaignSpec &spec,
                                    const std::string &needle) {
        try {
            const FaultCampaign campaign(spec);
            ADD_FAILURE() << "accepted " << spec.faults.size()
                          << " faults";
        } catch (const ModelError &error) {
            const std::string message = error.what();
            EXPECT_NE(message.find(needle), std::string::npos)
                << message;
        }
    };
    const auto sensor = [](int i) {
        FaultSpec f;
        f.name = "sensor " + std::to_string(i);
        f.kind = FaultKind::SensorDropout;
        f.probability = 0.1;
        f.sensorDerate = 0.5;
        return f;
    };
    const auto derate = [](int i) {
        FaultSpec f;
        f.name = "derate " + std::to_string(i);
        f.kind = FaultKind::CeilingDerate;
        f.ceilingIndex = 0;
        f.derate = 0.9;
        f.probability = 0.1;
        return f;
    };

    CampaignSpec sensors = tx2Campaign("none");
    for (int i = 0; i < 9; ++i)
        sensors.faults.push_back(sensor(i));
    expect_rejected(sensors, "at most 8 faults per layer, but the "
                             "sensor layer has 9");

    // 8 platform + 8 sensor faults fit; one more fault of a third
    // layer overflows the 16-fault table even within its layer cap.
    CampaignSpec full = tx2Campaign("none");
    for (int i = 0; i < 8; ++i) {
        full.faults.push_back(derate(i));
        full.faults.push_back(sensor(i));
    }
    EXPECT_NO_THROW(FaultCampaign{full});
    full.pipeline = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    FaultSpec slow;
    slow.name = "planner slowdown";
    slow.kind = FaultKind::StageLatencyInflation;
    slow.stage = "Path planner";
    slow.latencyFactor = 2.0;
    slow.probability = 0.1;
    full.faults.push_back(slow);
    expect_rejected(full, "at most 16 faults in all, but the spec "
                          "has 17");
}

/** A TX2-CPU + Navion campaign with the mavbench pipeline: the
 * configuration where the stage-gated accelerator ceiling is in
 * play, so stage-scoped platform faults have a roof to demote. */
CampaignSpec
navionStageCampaign(std::vector<FaultSpec> faults)
{
    const auto &catalog = components::Catalog::standard();
    const platform::RooflinePlatform &navion =
        catalog.rooflines().byName("TX2-CPU + Navion");
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &dronet = algorithms.byName("DroNet");

    CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = navion;
    spec.profile = workload::workloadProfile(dronet, navion);
    spec.workPerFrameGop = dronet.workPerFrameGop();
    spec.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.faults = std::move(faults);
    return spec;
}

/** Index of the first compute ceiling of `target` class. */
std::size_t
ceilingOfClass(const platform::RooflinePlatform &machine,
               platform::ComputeTarget target)
{
    const auto &ceilings = machine.computeCeilings();
    for (std::size_t i = 0; i < ceilings.size(); ++i) {
        if (ceilings[i].target == target)
            return i;
    }
    ADD_FAILURE() << "no ceiling of that class on "
                  << machine.name();
    return 0;
}

TEST(StageScopedFaults, EccFallbackRebindsSlamToTheCpuRoof)
{
    // Evaluator-level: removing the Accelerator class from SLAM's
    // profile demotes the stage from the stage-gated Navion VIO
    // ceiling to the NEON CPU roof, with the latency growing by
    // exactly the roof ratio.
    const auto &catalog = components::Catalog::standard();
    const platform::RooflinePlatform &navion =
        catalog.rooflines().byName("TX2-CPU + Navion");
    const std::size_t accel_index = ceilingOfClass(
        navion, platform::ComputeTarget::Accelerator);
    const std::size_t simd_index =
        ceilingOfClass(navion, platform::ComputeTarget::Simd);

    workload::StagePipelineEvaluator evaluator(
        workload::SpaPipeline::mavbenchPackageDeliveryTx2(), navion);
    std::size_t slam = evaluator.stageCount();
    for (std::size_t s = 0; s < evaluator.stageCount(); ++s) {
        if (evaluator.stageName(s) == "SLAM")
            slam = s;
    }
    ASSERT_LT(slam, evaluator.stageCount());

    workload::StageEvalOptions options;
    options.measuredFirst = false;
    const workload::PipelineBound before = evaluator.evaluate(options);
    ASSERT_TRUE(before.stages[slam].binding.attributed);
    EXPECT_EQ(before.stages[slam].binding.kind,
              platform::CeilingKind::Compute);
    EXPECT_EQ(before.stages[slam].binding.index, accel_index);

    platform::WorkloadProfile profile = evaluator.stageProfile(slam);
    profile.targetDerate[static_cast<unsigned>(
        platform::ComputeTarget::Accelerator)] = 0.0;
    evaluator.overrideStageProfile(slam, profile);
    const workload::PipelineBound after = evaluator.evaluate(options);
    ASSERT_TRUE(after.stages[slam].binding.attributed);
    EXPECT_EQ(after.stages[slam].binding.kind,
              platform::CeilingKind::Compute);
    EXPECT_EQ(after.stages[slam].binding.index, simd_index);
    EXPECT_GT(after.stages[slam].latencySeconds,
              before.stages[slam].latencySeconds);
    // Other stages never see the override.
    for (std::size_t s = 0; s < before.stageCount; ++s) {
        if (s == slam)
            continue;
        EXPECT_EQ(after.stages[s].latencySeconds,
                  before.stages[s].latencySeconds);
    }

    // Campaign-level: the certain ECC fallback degrades the
    // envelope, the SLAM stage stays compute-bound (on the lower
    // roof), and the batched path stays bit-identical to the
    // scalar reference at 1/2/8 threads.
    FaultSpec ecc;
    ecc.name = "SLAM accelerator offline";
    ecc.kind = FaultKind::StageCeilingDerate;
    ecc.probability = 1.0;
    ecc.stage = "SLAM";
    ecc.targetClass = platform::ComputeTarget::Accelerator;
    ecc.derate = 0.0;
    const FaultCampaign faulted(navionStageCampaign({ecc}));
    const FaultCampaign clean(navionStageCampaign({}));

    const std::size_t count = 20011; // Partial kernel + RNG blocks.
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool2(2);
    exec::ThreadPool pool8(8);
    exec::ParallelOptions on1;
    on1.pool = &pool1;
    exec::ParallelOptions on2;
    on2.pool = &pool2;
    exec::ParallelOptions on8;
    on8.pool = &pool8;
    const CampaignResult run1 = faulted.run(count, 42, on1);
    expectBitIdentical(run1, faulted.run(count, 42, on2));
    expectBitIdentical(run1, faulted.run(count, 42, on8));
    expectBitIdentical(run1, faulted.runReference(count, 42, on1));
    expectBitIdentical(run1, faulted.runReference(count, 42, on8));

    EXPECT_EQ(run1.abortProbability, 0.0);
    EXPECT_LT(run1.safeVelocity.mean,
              clean.run(count, 42, on8).safeVelocity.mean);
    ASSERT_EQ(run1.stageBindings.size(), 4u);
    for (const auto &stats : run1.stageBindings) {
        if (stats.stage == "SLAM") {
            EXPECT_EQ(stats.probComputeBound, 1.0);
            EXPECT_EQ(stats.probMeasured, 0.0);
        }
    }
}

TEST(StageScopedFaults, TrafficInflationFlipsAStageToMemoryBound)
{
    // OctoMap on the Navion family is NEON compute-bound at its
    // annotated 0.5 DRAM traffic; a 4x contention spill pushes the
    // DRAM roof below NEON, flipping the stage to memory-bound.
    FaultSpec spill;
    spill.name = "OctoMap voxel spill";
    spill.kind = FaultKind::StageTrafficInflation;
    spill.probability = 1.0;
    spill.stage = "OctoMap";
    spill.ceilingIndex = 0;
    spill.trafficFactor = 4.0;
    const FaultCampaign faulted(navionStageCampaign({spill}));
    const FaultCampaign clean(navionStageCampaign({}));

    const CampaignResult result = faulted.run(4096, 9);
    expectBitIdentical(result, faulted.runReference(4096, 9));
    EXPECT_EQ(result.abortProbability, 0.0);
    bool octomap_checked = false;
    for (const auto &stats : result.stageBindings) {
        if (stats.stage != "OctoMap")
            continue;
        octomap_checked = true;
        EXPECT_EQ(stats.probMemoryBound, 1.0);
        EXPECT_EQ(stats.probComputeBound, 0.0);
    }
    EXPECT_TRUE(octomap_checked);
    EXPECT_LT(result.safeVelocity.mean,
              clean.run(4096, 9).safeVelocity.mean);
}

TEST(StageScopedFaults, AllSamplesAbortWhenTheOnlyRoofIsRemoved)
{
    // The path planner is scalar-only: derating the Scalar class to
    // 0 leaves the stage without any admitted roof, so every sample
    // with the fault active aborts — at probability 1, all of them,
    // through the batched path and the scalar reference alike.
    FaultSpec dead;
    dead.name = "planner scalar unit offline";
    dead.kind = FaultKind::StageCeilingDerate;
    dead.probability = 1.0;
    dead.stage = "Path planner";
    dead.targetClass = platform::ComputeTarget::Scalar;
    dead.derate = 0.0;
    const FaultCampaign campaign(navionStageCampaign({dead}));

    const std::size_t count = 2148; // 2048 + a 100-sample block.
    const CampaignResult result = campaign.run(count, 5);
    expectBitIdentical(result, campaign.runReference(count, 5));
    EXPECT_EQ(result.abortProbability, 1.0);
    EXPECT_EQ(result.safeVelocity.mean, 0.0);
    EXPECT_EQ(result.safeVelocity.p95, 0.0);
    // The campaign itself stays well-formed: the baseline (fault
    // free) is untouched by the removable roof.
    EXPECT_GT(campaign.baseline().safeVelocity.value(), 0.0);
}

TEST(StageScopedFaults, MisconfigurationsAreNamed)
{
    // Stage-scoped platform faults need a pipeline to resolve the
    // stage name against.
    FaultSpec ecc;
    ecc.name = "SLAM accelerator offline";
    ecc.kind = FaultKind::StageCeilingDerate;
    ecc.probability = 0.5;
    ecc.stage = "SLAM";
    ecc.derate = 0.0;
    CampaignSpec no_pipeline = tx2Campaign("none");
    no_pipeline.faults = {ecc};
    try {
        FaultCampaign campaign(no_pipeline);
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("SLAM accelerator offline"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("pipeline"), std::string::npos)
            << message;
    }

    // Unknown stage names surface the pipeline's own diagnostic.
    FaultSpec ghost = ecc;
    ghost.stage = "Warp";
    EXPECT_THROW(FaultCampaign{navionStageCampaign({ghost})},
                 ModelError);

    // A stage without a roofline annotation has no profile to
    // derate.
    CampaignSpec bare = navionStageCampaign({});
    workload::SpaStage plain{"Plain", units::Seconds(0.1)};
    bare.pipeline = workload::SpaPipeline("bare", {plain});
    FaultSpec unreachable = ecc;
    unreachable.stage = "Plain";
    bare.faults = {unreachable};
    try {
        FaultCampaign campaign(bare);
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("annotation"),
                  std::string::npos)
            << e.what();
    }

    // Traffic inflation must name a real memory level.
    FaultSpec deep;
    deep.name = "phantom level";
    deep.kind = FaultKind::StageTrafficInflation;
    deep.probability = 0.5;
    deep.stage = "OctoMap";
    deep.ceilingIndex = 7;
    deep.trafficFactor = 2.0;
    try {
        FaultCampaign campaign(navionStageCampaign({deep}));
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("phantom level"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StageScopedFaults, DegradationCurveAtScaleZeroAndOne)
{
    FaultSpec ecc;
    ecc.name = "SLAM accelerator ECC half peak";
    ecc.kind = FaultKind::StageCeilingDerate;
    ecc.probability = 0.4;
    ecc.stage = "SLAM";
    ecc.targetClass = platform::ComputeTarget::Accelerator;
    ecc.derate = 0.5;

    // probabilityScale exactly 0: every fault is off at every curve
    // level, so the whole curve is the flat baseline.
    CampaignSpec zeroed = navionStageCampaign({ecc});
    zeroed.probabilityScale = 0.0;
    const FaultCampaign at_zero(zeroed);
    const double baseline =
        at_zero.baseline().safeVelocity.value();
    const auto flat = at_zero.degradationCurve(3, 500, 11);
    ASSERT_EQ(flat.size(), 3u);
    for (const auto &point : flat) {
        EXPECT_EQ(point.abortProbability, 0.0);
        EXPECT_EQ(point.p5SafeVelocity, baseline);
        EXPECT_EQ(point.p95SafeVelocity, baseline);
    }

    // probabilityScale exactly 1: the top curve level reproduces
    // run() at full severity, bit for bit (same seed, same scale).
    CampaignSpec full = navionStageCampaign({ecc});
    full.probabilityScale = 1.0;
    const FaultCampaign at_one(full);
    const auto curve = at_one.degradationCurve(3, 500, 11);
    const CampaignResult top = at_one.run(500, 11);
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_EQ(curve.front().p95SafeVelocity, baseline);
    EXPECT_EQ(curve.back().scale, 1.0);
    EXPECT_EQ(curve.back().meanSafeVelocity, top.safeVelocity.mean);
    EXPECT_EQ(curve.back().p5SafeVelocity, top.safeVelocity.p5);
    EXPECT_EQ(curve.back().p95SafeVelocity, top.safeVelocity.p95);
    EXPECT_EQ(curve.back().abortProbability, top.abortProbability);
}

TEST(StageScopedFaults, StandardSuitesRunBitIdenticalAcrossThreads)
{
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool2(2);
    exec::ThreadPool pool8(8);
    exec::ParallelOptions on1;
    on1.pool = &pool1;
    exec::ParallelOptions on2;
    on2.pool = &pool2;
    exec::ParallelOptions on8;
    on8.pool = &pool8;
    for (const char *suite : {"ecc-fallback", "cache-contention"}) {
        const FaultCampaign campaign(
            navionStageCampaign(findFaultSuite(suite).faults));
        // Spans two full RNG blocks plus a >64-sample partial block
        // (2148 = 2048 + 100 = 2048 + 64 + 36), so partial kernel
        // sub-blocks run through the batch path at every thread
        // count.
        const std::size_t count = 4196;
        const CampaignResult serial = campaign.run(count, 17, on1);
        expectBitIdentical(serial, campaign.run(count, 17, on2));
        expectBitIdentical(serial, campaign.run(count, 17, on8));
        expectBitIdentical(serial,
                           campaign.runReference(count, 17, on1));
        expectBitIdentical(serial,
                           campaign.runReference(count, 17, on8));
        EXPECT_LT(serial.safeVelocity.mean,
                  campaign.baseline().safeVelocity.value());
    }
}

/** A standard suite on one platform with the MAVBench pipeline under
 * dual redundancy, so every fault kind has its layer configured. */
CampaignSpec
suiteCampaign(const char *platform_name, const FaultSuite &suite)
{
    const auto &catalog = components::Catalog::standard();
    const platform::RooflinePlatform &machine =
        catalog.rooflines().byName(platform_name);
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &dronet = algorithms.byName("DroNet");

    CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = machine;
    spec.profile = workload::workloadProfile(dronet, machine);
    spec.workPerFrameGop = dronet.workPerFrameGop();
    spec.pipeline = workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.redundancy = pipeline::RedundancyScheme::Dual;
    spec.faults = suite.faults;
    return spec;
}

TEST(FaultSpecMutation, EveryMutantRunsFiniteOrIsRejectedByName)
{
    // Each fault of each standard suite gets one numeric field set to
    // a hostile value. The campaign must then either construct, run
    // and sweep with finite summaries, or throw a ModelError naming
    // that field; never crash, hang or report a NaN. ceilingIndex is
    // an index, so the values land on it as a saturating conversion:
    // NaN, the infinities, -1 and 1e308 become SIZE_MAX, the
    // subnormal 0.
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                             inf,
                             -inf,
                             -1.0,
                             0.0,
                             1e308,
                             std::numeric_limits<double>::denorm_min()};
    using Setter = void (*)(FaultSpec &, double);
    const std::pair<const char *, Setter> fields[] = {
        {"probability", [](FaultSpec &f, double v) { f.probability = v; }},
        {"derate", [](FaultSpec &f, double v) { f.derate = v; }},
        {"latencyFactor",
         [](FaultSpec &f, double v) { f.latencyFactor = v; }},
        {"trafficFactor",
         [](FaultSpec &f, double v) { f.trafficFactor = v; }},
        {"sensorDerate",
         [](FaultSpec &f, double v) { f.sensorDerate = v; }},
        {"ceilingIndex",
         [](FaultSpec &f, double v) {
             f.ceilingIndex = v >= 0.0 && v < 0x1p64
                                  ? static_cast<std::size_t>(v)
                                  : SIZE_MAX;
         }},
        {"exponent", [](FaultSpec &f, double v) { f.dvfs.exponent = v; }},
        {"leakageFraction",
         [](FaultSpec &f, double v) { f.dvfs.leakageFraction = v; }},
        {"minFrequencyFraction",
         [](FaultSpec &f, double v) { f.dvfs.minFrequencyFraction = v; }},
    };
    const auto finite = [](double mean, double p5, double p95) {
        return std::isfinite(mean) && std::isfinite(p5) &&
               std::isfinite(p95);
    };
    // One mutant: it runs and sweeps with finite summaries (the
    // curve's top level is the full-severity run), or is refused by
    // name. Returns whether it was refused.
    const auto refused = [&](const CampaignSpec &spec, const char *field,
                             const std::string &where) {
        try {
            const FaultCampaign campaign(spec);
            const sim::Distribution run = campaign.run(1000).safeVelocity;
            EXPECT_TRUE(finite(run.mean, run.p5, run.p95)) << where;
            for (const DegradationPoint &point :
                 campaign.sweepSeverity(3, 1000).curve) {
                EXPECT_TRUE(finite(point.meanSafeVelocity,
                                   point.p5SafeVelocity,
                                   point.p95SafeVelocity))
                    << where;
            }
            return false;
        } catch (const ModelError &error) {
            EXPECT_NE(std::string(error.what()).find(field),
                      std::string::npos)
                << where << ": " << error.what();
            return true;
        }
    };

    std::size_t mutants = 0;
    std::size_t rejected = 0;
    for (const FaultSuite &suite : standardFaultSuites()) {
        std::size_t platforms = 0;
        for (const char *platform_name :
             {"Nvidia TX2", "TX2-CPU + Navion"}) {
            const CampaignSpec base = suiteCampaign(platform_name, suite);
            try {
                (void)FaultCampaign(base).run(100);
            } catch (const ModelError &) {
                continue; // The suite targets the other platform.
            }
            ++platforms;
            for (std::size_t j = 0; j < base.faults.size(); ++j) {
                for (const auto &[field, set] : fields) {
                    for (const double value : values) {
                        CampaignSpec spec = base;
                        set(spec.faults[j], value);
                        ++mutants;
                        rejected += refused(
                            spec, field,
                            suite.name + " on " + platform_name +
                                ", fault " + std::to_string(j) + ", " +
                                field + " = " + std::to_string(value));
                    }
                }
            }
        }
        EXPECT_GT(platforms, 0u) << suite.name << " never constructs";
    }
    // Most mutants hit a field their fault's kind ignores, but every
    // kind's own fields are probed, so some must be refused.
    EXPECT_GT(mutants, 1000u);
    EXPECT_GT(rejected, 200u);
}

} // namespace
