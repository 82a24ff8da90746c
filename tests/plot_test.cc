/**
 * @file
 * Unit tests for the plot library: axes, charts, SVG/ASCII/CSV
 * rendering and the roofline chart builder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/f1_model.hh"
#include "plot/ascii_renderer.hh"
#include "plot/axis.hh"
#include "plot/chart.hh"
#include "plot/csv_writer.hh"
#include "plot/roofline_chart.hh"
#include "plot/svg_writer.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::plot;

TEST(Axis, LinearNormalization)
{
    Axis axis("x");
    axis.accommodate(2.0);
    axis.accommodate(8.0);
    axis.finalize();
    EXPECT_DOUBLE_EQ(axis.normalized(axis.lo()), 0.0);
    EXPECT_DOUBLE_EQ(axis.normalized(5.0), 0.5);
    EXPECT_DOUBLE_EQ(axis.normalized(axis.hi()), 1.0);
    // Clamping.
    EXPECT_DOUBLE_EQ(axis.normalized(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(axis.normalized(50.0), 1.0);
}

TEST(Axis, LogNormalization)
{
    Axis axis("f", Scale::Log10);
    axis.accommodate(1.0);
    axis.accommodate(1000.0);
    axis.finalize();
    EXPECT_DOUBLE_EQ(axis.normalized(1.0), 0.0);
    EXPECT_NEAR(axis.normalized(31.6227766), 0.5, 1e-6);
    EXPECT_DOUBLE_EQ(axis.normalized(1000.0), 1.0);
}

TEST(Axis, AutoFitAndFinalize)
{
    Axis axis("x");
    axis.accommodate(2.0);
    axis.accommodate(8.0);
    axis.finalize();
    EXPECT_LE(axis.lo(), 2.0);
    EXPECT_GE(axis.hi(), 8.0);
}

TEST(Axis, LogFinalizeSnapsToDecades)
{
    Axis axis("f", Scale::Log10);
    axis.accommodate(3.0);
    axis.accommodate(300.0);
    axis.finalize();
    EXPECT_DOUBLE_EQ(axis.lo(), 1.0);
    EXPECT_DOUBLE_EQ(axis.hi(), 1000.0);
}

TEST(Axis, LogIgnoresNonPositive)
{
    Axis axis("f", Scale::Log10);
    axis.accommodate(-5.0);
    axis.accommodate(0.0);
    axis.accommodate(10.0);
    axis.finalize();
    EXPECT_GT(axis.lo(), 0.0);
}

TEST(Axis, LinearTicksAreNiceNumbers)
{
    // Fitted to [0.6, 9.4]: ticks every 2 from 2.
    Axis axis("x");
    axis.accommodate(1.0);
    axis.accommodate(9.0);
    axis.finalize();
    const auto ticks = axis.ticks(5);
    ASSERT_GE(ticks.size(), 3u);
    for (std::size_t i = 1; i < ticks.size(); ++i)
        EXPECT_GT(ticks[i].value, ticks[i - 1].value);
    EXPECT_EQ(ticks.front().label, "2");
}

TEST(Axis, LogTicksAreDecades)
{
    Axis axis("f", Scale::Log10);
    axis.accommodate(1.0);
    axis.accommodate(1000.0);
    axis.finalize();
    const auto ticks = axis.ticks();
    ASSERT_EQ(ticks.size(), 4u);
    EXPECT_DOUBLE_EQ(ticks[0].value, 1.0);
    EXPECT_DOUBLE_EQ(ticks[3].value, 1000.0);
    EXPECT_EQ(ticks[3].label, "1k");
}

TEST(Chart, FitAxesCoversSeriesAndAnnotations)
{
    Chart chart("t", Axis("x"), Axis("y"));
    Series s("s");
    s.add(1.0, 2.0).add(5.0, 10.0);
    chart.add(s);
    chart.annotate(8.0, 12.0, "note");
    chart.fitAxes();
    EXPECT_GE(chart.xAxis().hi(), 8.0);
    EXPECT_GE(chart.yAxis().hi(), 12.0);
}

TEST(Svg, ContainsStructureAndData)
{
    Chart chart("My Roofline", Axis("Throughput (Hz)", Scale::Log10),
                Axis("Velocity (m/s)"));
    Series s("UAV", SeriesStyle::LineAndMarkers);
    for (double f = 1.0; f <= 100.0; f *= 2.0)
        s.add(f, f / 10.0);
    chart.add(s);
    chart.annotate(50.0, 5.0, "knee");

    const std::string svg = SvgWriter().render(chart);
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("My Roofline"), std::string::npos);
    EXPECT_NE(svg.find("<path"), std::string::npos);
    EXPECT_NE(svg.find("<circle"), std::string::npos);
    EXPECT_NE(svg.find("knee"), std::string::npos);
    EXPECT_NE(svg.find("Throughput (Hz)"), std::string::npos);
}

TEST(Svg, EscapesXmlSpecials)
{
    Chart chart("a < b & c", Axis("x"), Axis("y"));
    Series s("s<>&");
    s.add(1.0, 1.0);
    s.add(2.0, 2.0);
    chart.add(s);
    const std::string svg = SvgWriter().render(chart);
    EXPECT_EQ(svg.find("a < b &amp;"), std::string::npos);
    EXPECT_NE(svg.find("a &lt; b &amp; c"), std::string::npos);
}

TEST(Svg, WriteFileRoundTrip)
{
    Chart chart("file test", Axis("x"), Axis("y"));
    Series s("s");
    s.add(0.0, 0.0).add(1.0, 1.0);
    chart.add(s);
    const std::string path = "plot_test_out.svg";
    SvgWriter().writeFile(chart, path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("<svg"), std::string::npos);
    in.close();
    std::remove(path.c_str());

    EXPECT_THROW(
        SvgWriter().writeFile(chart, "/nonexistent-dir/x.svg"),
        ModelError);
}

TEST(Ascii, RendersGridAxesAndLegend)
{
    Chart chart("ascii test", Axis("f (Hz)", Scale::Log10),
                Axis("v (m/s)"));
    Series s("roofline");
    for (double f = 1.0; f <= 1000.0; f *= 1.5)
        s.add(f, std::min(10.0, f / 20.0));
    chart.add(s);
    const std::string out = AsciiRenderer().render(chart);
    EXPECT_NE(out.find("ascii test"), std::string::npos);
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find("roofline"), std::string::npos);
    EXPECT_NE(out.find("x: f (Hz)"), std::string::npos);
    // Frame bottom present.
    EXPECT_NE(out.find("+-"), std::string::npos);
}

TEST(Csv, LongFormRendering)
{
    Series a("alpha");
    a.add(1.0, 2.0);
    Series b("beta,with comma");
    b.add(3.0, 4.5);
    const std::string csv =
        CsvWriter::render({a, b}, "f_hz", "v_mps");
    EXPECT_NE(csv.find("series,f_hz,v_mps\n"), std::string::npos);
    EXPECT_NE(csv.find("alpha,1,2\n"), std::string::npos);
    EXPECT_NE(csv.find("\"beta,with comma\",3,4.5\n"),
              std::string::npos);
}

TEST(Csv, QuoteRules)
{
    EXPECT_EQ(CsvWriter::quote("plain"), "plain");
    EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    // Bare '\r' (from CRLF-bearing names) must trigger quoting just
    // like '\n', or the row structure breaks.
    EXPECT_EQ(CsvWriter::quote("a\rb"), "\"a\rb\"");
    EXPECT_EQ(CsvWriter::quote("a\r\nb"), "\"a\r\nb\"");
}

TEST(RooflineChart, BuildsFromF1Curves)
{
    core::F1Inputs inputs;
    inputs.aMax = units::MetersPerSecondSquared(4.12);
    inputs.sensingRange = units::Meters(2.73);
    inputs.sensorRate = units::Hertz(60.0);
    inputs.computeRate = units::Hertz(178.0);
    const core::F1Model model(inputs);

    Chart chart = makeRooflineChart(
        "F-1", {{"Pelican", model.curve(), true, true}});
    EXPECT_EQ(chart.series().size(), 2u); // Line + operating marker.
    EXPECT_EQ(chart.annotations().size(), 1u);
    EXPECT_NE(chart.annotations()[0].text.find("knee"),
              std::string::npos);
    // Render both ways without throwing.
    EXPECT_NO_THROW(SvgWriter().render(chart));
    EXPECT_NO_THROW(AsciiRenderer().render(chart));
}

} // namespace
