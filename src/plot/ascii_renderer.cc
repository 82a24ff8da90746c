/**
 * @file
 * AsciiRenderer implementation.
 */

#include "plot/ascii_renderer.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/strings.hh"

namespace uavf1::plot {

namespace {

/** Marker glyph per series index. */
const char seriesGlyphs[] = {'*', '+', 'o', 'x', '#', '@', '%', '&'};

constexpr int glyphCount = 8;

/** Plot area in characters. */
constexpr int width = 72;
constexpr int height = 20;

} // namespace

std::string
AsciiRenderer::render(Chart &chart) const
{
    chart.fitAxes();

    std::vector<std::string> grid(height, std::string(width, ' '));

    auto col = [&](double x) {
        return std::clamp(
            static_cast<int>(std::lround(
                chart.xAxis().normalized(x) * (width - 1))),
            0, width - 1);
    };
    auto row = [&](double y) {
        return std::clamp(
            static_cast<int>(std::lround(
                (1.0 - chart.yAxis().normalized(y)) * (height - 1))),
            0, height - 1);
    };

    // Series: lines are rasterized by sampling segments.
    int glyph_idx = 0;
    for (const auto &series : chart.series()) {
        const char glyph = seriesGlyphs[glyph_idx % glyphCount];
        ++glyph_idx;
        const auto &pts = series.points();
        if (series.style() != SeriesStyle::Markers) {
            for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
                const int c0 = col(pts[i].x);
                const int r0 = row(pts[i].y);
                const int c1 = col(pts[i + 1].x);
                const int r1 = row(pts[i + 1].y);
                const int steps =
                    std::max({std::abs(c1 - c0), std::abs(r1 - r0),
                              1});
                for (int s = 0; s <= steps; ++s) {
                    const double t =
                        static_cast<double>(s) / steps;
                    const int c = static_cast<int>(
                        std::lround(c0 + t * (c1 - c0)));
                    const int r = static_cast<int>(
                        std::lround(r0 + t * (r1 - r0)));
                    grid[r][c] = glyph;
                }
            }
        }
        if (series.style() != SeriesStyle::Line) {
            for (const auto &point : pts)
                grid[row(point.y)][col(point.x)] = glyph;
        }
    }

    // Annotations (marker plus label to the right when it fits).
    for (const auto &annotation : chart.annotations()) {
        const int c = col(annotation.x);
        const int r = row(annotation.y);
        grid[r][c] = 'K';
        const std::string &text = annotation.text;
        for (std::size_t i = 0; i < text.size(); ++i) {
            const std::size_t cc = c + 2 + i;
            if (cc >= static_cast<std::size_t>(width))
                break;
            grid[r][cc] = text[i];
        }
    }

    // Compose with a y-axis gutter and x-axis footer.
    std::string out;
    if (!chart.title().empty())
        out += chart.title() + "\n";
    const std::string y_hi = Axis::tickLabel(chart.yAxis().hi());
    const std::string y_lo = Axis::tickLabel(chart.yAxis().lo());
    const std::size_t gutter = std::max(y_hi.size(), y_lo.size()) + 1;

    for (int r = 0; r < height; ++r) {
        std::string label;
        if (r == 0) {
            label = y_hi;
        } else if (r == height - 1) {
            label = y_lo;
        }
        out += padLeft(label, gutter) + "|" + grid[r] + "\n";
    }
    out += std::string(gutter, ' ') + "+" + std::string(width, '-') +
           "\n";
    const std::string x_lo = Axis::tickLabel(chart.xAxis().lo());
    const std::string x_hi = Axis::tickLabel(chart.xAxis().hi());
    std::string footer = std::string(gutter + 1, ' ') + x_lo;
    const std::size_t target = gutter + 1 + width - x_hi.size();
    if (footer.size() < target)
        footer += std::string(target - footer.size(), ' ');
    footer += x_hi;
    out += footer + "\n";
    out += std::string(gutter + 1, ' ') + "x: " +
           chart.xAxis().label() + "   y: " + chart.yAxis().label() +
           "\n";

    // Legend.
    glyph_idx = 0;
    for (const auto &series : chart.series()) {
        const char glyph = seriesGlyphs[glyph_idx % glyphCount];
        ++glyph_idx;
        out += std::string(gutter + 1, ' ') + glyph + " " +
               series.name() + "\n";
    }
    return out;
}

} // namespace uavf1::plot
