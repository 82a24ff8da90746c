/**
 * @file
 * SvgWriter implementation.
 */

#include "plot/svg_writer.hh"

#include "support/atomic_file.hh"
#include "support/strings.hh"

namespace uavf1::plot {

namespace {

/** The qualitative palette used for series strokes. */
const char *const palette[] = {
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
};

constexpr int paletteSize = 10;

/** Canvas geometry, px: the margins leave room for the title (top)
 * and the axis labels (left, bottom). */
constexpr int width = 820;
constexpr int height = 520;
constexpr int marginLeft = 70;
constexpr int marginRight = 30;
constexpr int marginTop = 46;
constexpr int marginBottom = 58;

} // namespace

std::string
SvgWriter::render(Chart &chart) const
{
    chart.fitAxes();

    const double plot_x0 = marginLeft;
    const double plot_y0 = marginTop;
    const double plot_w = width - marginLeft - marginRight;
    const double plot_h = height - marginTop - marginBottom;

    auto px = [&](double x) {
        return plot_x0 + chart.xAxis().normalized(x) * plot_w;
    };
    auto py = [&](double y) {
        // SVG y grows downward.
        return plot_y0 + (1.0 - chart.yAxis().normalized(y)) * plot_h;
    };

    std::string svg;
    svg += strFormat(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" "
        "height=\"%d\" viewBox=\"0 0 %d %d\">\n",
        width, height, width, height);
    svg += "<style>text{font-family:Helvetica,Arial,sans-serif;}"
           "</style>\n";
    svg += strFormat(
        "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" "
        "fill=\"white\"/>\n",
        width, height);

    // Title.
    svg += strFormat(
        "<text x=\"%.1f\" y=\"%.1f\" font-size=\"16\" "
        "text-anchor=\"middle\" font-weight=\"bold\">%s</text>\n",
        plot_x0 + plot_w / 2.0, plot_y0 - 18.0,
        escapeXml(chart.title()).c_str());

    // Grid + ticks.
    for (const auto &tick : chart.xAxis().ticks()) {
        const double x = px(tick.value);
        svg += strFormat(
            "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" "
            "y2=\"%.1f\" stroke=\"#dddddd\" "
            "stroke-width=\"1\"/>\n",
            x, plot_y0, x, plot_y0 + plot_h);
        svg += strFormat(
            "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" "
            "stroke=\"black\" stroke-width=\"1\"/>\n",
            x, plot_y0 + plot_h, x, plot_y0 + plot_h + 5.0);
        svg += strFormat(
            "<text x=\"%.1f\" y=\"%.1f\" font-size=\"12\" "
            "text-anchor=\"middle\">%s</text>\n",
            x, plot_y0 + plot_h + 20.0,
            escapeXml(tick.label).c_str());
    }
    for (const auto &tick : chart.yAxis().ticks()) {
        const double y = py(tick.value);
        svg += strFormat(
            "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" "
            "y2=\"%.1f\" stroke=\"#dddddd\" "
            "stroke-width=\"1\"/>\n",
            plot_x0, y, plot_x0 + plot_w, y);
        svg += strFormat(
            "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" "
            "stroke=\"black\" stroke-width=\"1\"/>\n",
            plot_x0 - 5.0, y, plot_x0, y);
        svg += strFormat(
            "<text x=\"%.1f\" y=\"%.1f\" font-size=\"12\" "
            "text-anchor=\"end\">%s</text>\n",
            plot_x0 - 9.0, y + 4.0, escapeXml(tick.label).c_str());
    }

    // Axis frame.
    svg += strFormat(
        "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" "
        "fill=\"none\" stroke=\"black\" stroke-width=\"1.5\"/>\n",
        plot_x0, plot_y0, plot_w, plot_h);

    // Axis labels.
    svg += strFormat(
        "<text x=\"%.1f\" y=\"%.1f\" font-size=\"13\" "
        "text-anchor=\"middle\">%s</text>\n",
        plot_x0 + plot_w / 2.0, plot_y0 + plot_h + 42.0,
        escapeXml(chart.xAxis().label()).c_str());
    svg += strFormat(
        "<text x=\"%.1f\" y=\"%.1f\" font-size=\"13\" "
        "text-anchor=\"middle\" "
        "transform=\"rotate(-90 %.1f %.1f)\">%s</text>\n",
        plot_x0 - 50.0, plot_y0 + plot_h / 2.0, plot_x0 - 50.0,
        plot_y0 + plot_h / 2.0,
        escapeXml(chart.yAxis().label()).c_str());

    // Series.
    int color_idx = 0;
    for (const auto &series : chart.series()) {
        const char *color = palette[color_idx % paletteSize];
        ++color_idx;
        const auto &pts = series.points();
        if (series.style() != SeriesStyle::Markers && pts.size() > 1) {
            std::string path = "M";
            for (std::size_t i = 0; i < pts.size(); ++i) {
                path += strFormat(" %.2f %.2f", px(pts[i].x),
                                  py(pts[i].y));
                if (i == 0)
                    path += " L";
            }
            svg += strFormat(
                "<path d=\"%s\" fill=\"none\" stroke=\"%s\" "
                "stroke-width=\"2\"/>\n",
                path.c_str(), color);
        }
        if (series.style() != SeriesStyle::Line) {
            for (const auto &point : pts) {
                svg += strFormat(
                    "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"4\" "
                    "fill=\"%s\" stroke=\"white\" "
                    "stroke-width=\"1\"/>\n",
                    px(point.x), py(point.y), color);
            }
        }
    }

    // Point annotations.
    for (const auto &annotation : chart.annotations()) {
        const double x = px(annotation.x);
        const double y = py(annotation.y);
        svg += strFormat(
            "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"3.5\" "
            "fill=\"black\"/>\n",
            x, y);
        svg += strFormat(
            "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\">%s"
            "</text>\n",
            x + 7.0, y - 6.0, escapeXml(annotation.text).c_str());
    }

    // Legend.
    if (!chart.series().empty()) {
        const double lx = plot_x0 + plot_w - 190.0;
        double ly = plot_y0 + 12.0;
        const double entry_h = 18.0;
        svg += strFormat(
            "<rect x=\"%.1f\" y=\"%.1f\" width=\"182\" "
            "height=\"%.1f\" fill=\"white\" fill-opacity=\"0.85\" "
            "stroke=\"#aaaaaa\"/>\n",
            lx - 6.0, ly - 12.0,
            chart.series().size() * entry_h + 10.0);
        color_idx = 0;
        for (const auto &series : chart.series()) {
            const char *color = palette[color_idx % paletteSize];
            ++color_idx;
            svg += strFormat(
                "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" "
                "y2=\"%.1f\" stroke=\"%s\" stroke-width=\"3\"/>\n",
                lx, ly, lx + 22.0, ly, color);
            svg += strFormat(
                "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\">%s"
                "</text>\n",
                lx + 28.0, ly + 4.0,
                escapeXml(series.name()).c_str());
            ly += entry_h;
        }
    }

    svg += "</svg>\n";
    return svg;
}

void
SvgWriter::writeFile(Chart &chart, const std::string &path) const
{
    writeFileAtomic(path, render(chart));
}

} // namespace uavf1::plot
