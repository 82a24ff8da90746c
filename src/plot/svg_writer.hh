/**
 * @file
 * SVG chart renderer.
 *
 * Self-contained (no external plotting dependency): produces a
 * standalone 820x520 px .svg with axes, grid, ticks, series, legend
 * and annotations. This is the library's substitute for the paper's
 * web-based Skyline visualization area.
 */

#ifndef UAVF1_PLOT_SVG_WRITER_HH
#define UAVF1_PLOT_SVG_WRITER_HH

#include <string>

#include "plot/chart.hh"

namespace uavf1::plot {

/**
 * Renders Chart objects to SVG.
 */
class SvgWriter
{
  public:
    /** Render a chart to an SVG document string. */
    std::string render(Chart &chart) const;

    /**
     * Render and write to a file (parent directory must exist).
     *
     * @throws ModelError if the file cannot be written
     */
    void writeFile(Chart &chart, const std::string &path) const;
};

} // namespace uavf1::plot

#endif // UAVF1_PLOT_SVG_WRITER_HH
