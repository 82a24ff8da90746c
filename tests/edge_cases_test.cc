/**
 * @file
 * Edge-case and failure-injection tests across modules: renderer
 * options, file round trips, fuzz-ish knob input, describe()
 * formats, and numeric corner cases not covered by the per-module
 * suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "components/catalog.hh"
#include "core/uav_config.hh"
#include "exec/thread_pool.hh"
#include "plot/ascii_renderer.hh"
#include "plot/csv_writer.hh"
#include "plot/roofline_chart.hh"
#include "plot/svg_writer.hh"
#include "sim/monte_carlo.hh"
#include "skyline/session.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "support/exact_sum.hh"
#include "support/rng.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::units::literals;

TEST(Svg, DrawsGridAndLegend)
{
    plot::Chart chart("opts", plot::Axis("x"), plot::Axis("y"));
    plot::Series series("s");
    series.add(0.0, 0.0).add(1.0, 1.0);
    chart.add(series);

    // Light-gray gridlines and the legend box.
    const std::string svg = plot::SvgWriter().render(chart);
    EXPECT_NE(svg.find("#dddddd"), std::string::npos);
    EXPECT_NE(svg.find("fill-opacity=\"0.85\""), std::string::npos);
}

TEST(AsciiRenderer, MarkersOnlySeriesUsesGlyph)
{
    plot::Chart chart("markers", plot::Axis("x"), plot::Axis("y"));
    plot::Series markers("points", plot::SeriesStyle::Markers);
    markers.add(1.0, 1.0).add(2.0, 2.0).add(3.0, 1.5);
    chart.add(markers);
    const std::string out = plot::AsciiRenderer().render(chart);
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find("points"), std::string::npos);
}

TEST(AsciiRenderer, AnnotationGlyphAndLabel)
{
    plot::Chart chart("annot", plot::Axis("x"), plot::Axis("y"));
    plot::Series series("s");
    series.add(0.0, 0.0).add(10.0, 10.0);
    chart.add(series);
    chart.annotate(5.0, 5.0, "knee");
    const std::string out = plot::AsciiRenderer().render(chart);
    EXPECT_NE(out.find('K'), std::string::npos);
    EXPECT_NE(out.find("knee"), std::string::npos);
}

TEST(CsvWriter, FileRoundTrip)
{
    plot::Series series("trip");
    series.add(1.5, 2.5).add(3.0, 4.0);
    const std::string path = "edge_csv_roundtrip.csv";
    plot::CsvWriter::writeFile({series}, path, "a", "b");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    std::remove(path.c_str());
    EXPECT_NE(content.find("series,a,b"), std::string::npos);
    EXPECT_NE(content.find("trip,1.5,2.5"), std::string::npos);
    EXPECT_THROW(plot::CsvWriter::writeFile(
                     {series}, "/no-such-dir/x.csv"),
                 ModelError);
}

TEST(RooflineChart, MultipleRooflinesShareAxes)
{
    const core::F1Model pelican(
        studies::pelicanInputs(Hertz(178.0)));
    const core::F1Model spark(studies::sparkInputs(Hertz(178.0)));
    plot::Chart chart = plot::makeRooflineChart(
        "both", {{"Pelican", pelican.curve(), true, true},
                 {"Spark", spark.curve(), true, true}});
    // 2 lines + 2 operating markers.
    EXPECT_EQ(chart.series().size(), 4u);
    EXPECT_EQ(chart.annotations().size(), 2u);
    chart.fitAxes();
    // The shared y range covers both roofs.
    EXPECT_GE(chart.yAxis().hi(),
              spark.analyze().roofVelocity.value());
}

TEST(SkylineFuzz, GarbageInputNeverCrashes)
{
    // Any garbage must produce ModelError, never UB or a crash.
    skyline::SkylineSession session;
    const char *garbage[] = {
        "", " ", "=", "knee_fraction", "1e999", "NaN(ind)",
        "--3", "0x1p3q", "12,5", "12 34",
    };
    for (const char *value : garbage) {
        EXPECT_THROW(session.set("compute_tdp", value), ModelError)
            << "value: '" << value << "'";
    }
    for (const char *knob : {"", " ", "tdp;drop table", "SET"}) {
        EXPECT_THROW(session.set(knob, "1"), ModelError)
            << "knob: '" << knob << "'";
    }
    // The session must remain usable after rejected inputs.
    EXPECT_NO_THROW(session.analyze());
}

TEST(SkylineFuzz, RandomNumericKnobsStayConsistent)
{
    // Random (valid) knob settings: analyze() either succeeds with
    // self-consistent output or raises InfeasibleError.
    Rng rng(2024);
    for (int i = 0; i < 200; ++i) {
        skyline::SkylineSession session;
        auto &knobs = session.knobs();
        knobs.sensorFramerate = Hertz(rng.uniform(1.0, 240.0));
        knobs.computeTdp = Watts(rng.uniform(0.1, 60.0));
        knobs.computeRuntime =
            Seconds(rng.uniform(0.001, 2.0));
        knobs.sensorRange = Meters(rng.uniform(0.5, 30.0));
        knobs.droneWeight = Grams(rng.uniform(100.0, 2000.0));
        knobs.rotorPull = Grams(rng.uniform(200.0, 4000.0));
        knobs.payloadWeight = Grams(rng.uniform(0.0, 1500.0));
        try {
            const auto analysis = session.analyze();
            EXPECT_GT(analysis.f1.safeVelocity.value(), 0.0);
            EXPECT_LE(analysis.f1.safeVelocity.value(),
                      analysis.f1.roofVelocity.value() + 1e-9);
            EXPECT_FALSE(analysis.tips.empty());
        } catch (const InfeasibleError &) {
            // Acceptable: the random build cannot hover.
        }
    }
}

TEST(UavConfigDescribe, RedundantOverriddenConfig)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    const auto config =
        core::UavConfig::Builder("described")
            .airframe(catalog.airframes().byName("AscTec Pelican"))
            .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"))
            .compute(catalog.computes().byName("Nvidia TX2"))
            .algorithm(algorithms.byName("DroNet"))
            .redundancy(pipeline::ModularRedundancy(
                pipeline::RedundancyScheme::Dual))
            .build();
    const std::string text = config.describe();
    EXPECT_NE(text.find("x2"), std::string::npos);
}

TEST(Distribution, SingleSampleAndTwoSamples)
{
    const auto one = sim::Distribution::fromSamples({5.0});
    EXPECT_DOUBLE_EQ(one.mean, 5.0);
    EXPECT_DOUBLE_EQ(one.stddev, 0.0);
    EXPECT_DOUBLE_EQ(one.p50, 5.0);

    const auto two = sim::Distribution::fromSamples({1.0, 3.0});
    EXPECT_DOUBLE_EQ(two.mean, 2.0);
    EXPECT_DOUBLE_EQ(two.p50, 2.0);
    EXPECT_NEAR(two.stddev, std::sqrt(2.0), 1e-12);
}

/** Bit pattern of a double: EXPECT_EQ on it tells apart what `==`
 * cannot and lets a NaN result equal itself. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** The summary by definition: exactly rounded sums, one term at a
 * time, then order statistics read off a fully sorted copy. */
sim::Distribution
fullSortReference(std::vector<double> samples)
{
    const std::size_t n = samples.size();
    sim::Distribution out;
    ExactSum sum;
    for (double s : samples)
        sum.add(s);
    out.mean = sum.round() / static_cast<double>(n);
    ExactSum var;
    for (double s : samples)
        var.add((s - out.mean) * (s - out.mean));
    out.stddev = n > 1 ? std::sqrt(var.round() / static_cast<double>(n - 1))
                       : 0.0;
    std::sort(samples.begin(), samples.end());
    const auto percentile = [&](double p) {
        const double rank = p / 100.0 * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, n - 1);
        return samples[lo] + (rank - static_cast<double>(lo)) *
                                 (samples[hi] - samples[lo]);
    };
    out.p5 = percentile(5.0);
    out.p50 = percentile(50.0);
    out.p95 = percentile(95.0);
    return out;
}

TEST(Distribution, PercentilesMatchFullSortReference)
{
    // The bucket selection must return exactly the order statistics
    // a full sort would, on every input shape it treats differently:
    // tied data (all equal, a 95/5 split, the few distinct v_safe
    // levels of a fault campaign) short-cuts through single-valued
    // ranges, continuous data narrows by histogram then gathers, and
    // wide key ranges (negatives reaching into subnormals, +-inf)
    // take several refinement passes. Sizes straddle the 64-sample
    // and 2^16 boundaries; each result must be the same bits at 1, 2
    // and 8 threads.
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double levels[8] = {9.81, 9.5, 8.75, 8.0, 7.2, 6.1, 4.4, 2.0};
    const std::pair<const char *, std::function<double(Rng &)>>
        families[] = {
            {"all equal", [](Rng &) { return 7.25; }},
            {"95/5 split",
             [](Rng &rng) { return rng.uniform() < 0.95 ? 9.5 : 3.0; }},
            {"8 campaign levels",
             [&](Rng &rng) {
                 // Geometric weights: most missions see no fault.
                 std::size_t k = 0;
                 while (k < 7 && rng.uniform() < 0.3)
                     ++k;
                 return levels[k];
             }},
            {"continuous",
             [](Rng &rng) { return 6.0 * std::exp(0.2 * rng.normal()); }},
            {"negative and subnormal",
             [](Rng &rng) {
                 const double u = rng.uniform();
                 if (u < 0.3)
                     return -1e3 * rng.uniform();
                 if (u < 0.6)
                     return 4e-310 * rng.uniform(); // Subnormal.
                 return -4e-310 * rng.uniform();
             }},
            {"+-inf tails",
             [](Rng &rng) {
                 // Wide enough that p5 and p95 land on the infinities.
                 const double u = rng.uniform();
                 if (u < 0.06)
                     return -inf;
                 if (u > 0.94)
                     return inf;
                 return 1e3 * (rng.uniform() - 0.5);
             }},
        };
    exec::ThreadPool one(1);
    exec::ThreadPool two(2);
    exec::ThreadPool eight(8);
    for (const auto &[family, draw] : families) {
        for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 65535u,
                                    65537u, 2000000u}) {
            Rng rng(77 + n);
            std::vector<double> samples(n);
            for (double &s : samples)
                s = draw(rng);
            const sim::Distribution want = fullSortReference(samples);
            for (exec::ThreadPool *pool : {&one, &two, &eight}) {
                exec::ParallelOptions options;
                options.pool = pool;
                const sim::Distribution got =
                    sim::Distribution::fromSamples(samples, options);
                const std::string where =
                    std::string(family) + ", n=" + std::to_string(n) +
                    ", threads=" + std::to_string(pool->threadCount());
                EXPECT_EQ(bits(got.mean), bits(want.mean)) << where;
                EXPECT_EQ(bits(got.stddev), bits(want.stddev)) << where;
                EXPECT_EQ(bits(got.p5), bits(want.p5)) << where;
                EXPECT_EQ(bits(got.p50), bits(want.p50)) << where;
                EXPECT_EQ(bits(got.p95), bits(want.p95)) << where;
            }
        }
    }
}

TEST(Distribution, NaNSampleIsRejectedByName)
{
    // A NaN has no rank: it must fail with a ModelError naming the
    // sample, before any value is used to pick a bucket or an index.
    for (const std::size_t n : {1u, 65u, 100000u}) {
        std::vector<double> samples(n, 1.0);
        samples[n / 2] = std::numeric_limits<double>::quiet_NaN();
        try {
            (void)sim::Distribution::fromSamples(samples);
            FAIL() << "NaN sample accepted at n=" << n;
        } catch (const ModelError &error) {
            const std::string message = error.what();
            EXPECT_NE(message.find("NaN"), std::string::npos) << message;
            EXPECT_NE(message.find("sample " + std::to_string(n / 2)),
                      std::string::npos)
                << message;
        }
    }
}

TEST(Distribution, HistogramMatchesFromSamplesOnTheExpandedSamples)
{
    // A histogram summary must be the same bits as fromSamples() on
    // the samples it counts: ties, both signed zeros (-0 ranks below
    // +0), a value with a zero count, and sizes at the edges of the
    // rank arithmetic.
    const std::vector<double> values = {2.5, -0.0, 0.0, 9.75, -3.0,
                                        2.5, 1e-310, 6.0};
    for (const std::size_t n : {1u, 2u, 65u}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            Rng rng(seed * 1000 + n);
            // Value 7 never counts: it stands for an aborted mission.
            std::vector<std::uint64_t> counts(values.size(), 0);
            std::vector<double> samples;
            while (samples.size() < n) {
                const auto k =
                    static_cast<std::size_t>(rng.uniform() * 7.0);
                ++counts[k];
                samples.push_back(values[k]);
            }
            ASSERT_EQ(samples.size(), n);
            const sim::Distribution want =
                sim::Distribution::fromSamples(samples);
            const sim::Distribution got =
                sim::Distribution::fromHistogram(values, counts);
            const std::string where = "n=" + std::to_string(n) +
                                      " seed=" + std::to_string(seed);
            EXPECT_EQ(bits(got.mean), bits(want.mean)) << where;
            EXPECT_EQ(bits(got.stddev), bits(want.stddev)) << where;
            EXPECT_EQ(bits(got.p5), bits(want.p5)) << where;
            EXPECT_EQ(bits(got.p50), bits(want.p50)) << where;
            EXPECT_EQ(bits(got.p95), bits(want.p95)) << where;
        }
    }

    // All-zero counts are no samples at all.
    EXPECT_THROW(sim::Distribution::fromHistogram({1.0}, {0}), ModelError);
}

TEST(SafetyNumerics, ExtremeParameterRegimes)
{
    // Tiny acceleration + long range (a blimp with a lidar).
    const core::SafetyModel slow(MetersPerSecondSquared(0.01),
                                 Meters(100.0));
    EXPECT_NEAR(slow.physicsRoof().value(), std::sqrt(2.0), 1e-9);
    EXPECT_GT(slow.safeVelocity(Seconds(100.0)).value(), 0.0);

    // Huge acceleration + tiny range (racing quad in a corridor).
    const core::SafetyModel fast(MetersPerSecondSquared(100.0),
                                 Meters(0.5));
    EXPECT_NEAR(fast.physicsRoof().value(), 10.0, 1e-9);
    // Even at 10 kHz the velocity stays below the roof.
    EXPECT_LT(fast.safeVelocityAtRate(Hertz(10000.0)).value(),
              10.0);
}

TEST(PipelineNumerics, VeryManyStages)
{
    std::vector<pipeline::PipelineStage> stages;
    for (int i = 1; i <= 64; ++i) {
        stages.push_back({"stage" + std::to_string(i),
                          Hertz(10.0 + i)});
    }
    const pipeline::ActionPipeline pipeline(stages);
    EXPECT_DOUBLE_EQ(pipeline.actionThroughput().value(), 11.0);
    EXPECT_EQ(pipeline.bottleneck().name, "stage1");
    EXPECT_EQ(pipeline.stageSlack().size(), 64u);
}

} // namespace
