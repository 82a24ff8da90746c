/**
 * @file
 * Terminal (ASCII) chart renderer.
 *
 * Used by the examples and bench harnesses so the roofline is
 * visible directly in a terminal, without opening the SVG.
 */

#ifndef UAVF1_PLOT_ASCII_RENDERER_HH
#define UAVF1_PLOT_ASCII_RENDERER_HH

#include <string>

#include "plot/chart.hh"

namespace uavf1::plot {

/**
 * Renders Chart objects to fixed-width text.
 */
class AsciiRenderer
{
  public:
    /** Render a chart to a multi-line string (a 72 x 20 character
     * plot area plus axis labels and legend). */
    std::string render(Chart &chart) const;
};

} // namespace uavf1::plot

#endif // UAVF1_PLOT_ASCII_RENDERER_HH
