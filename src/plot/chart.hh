/**
 * @file
 * Chart: a titled collection of series, axes and annotations that
 * the SVG writer and ASCII renderer consume.
 */

#ifndef UAVF1_PLOT_CHART_HH
#define UAVF1_PLOT_CHART_HH

#include <string>
#include <vector>

#include "plot/axis.hh"
#include "plot/series.hh"

namespace uavf1::plot {

/** A point annotation with a text label (e.g. "knee-point"). */
struct Annotation
{
    double x = 0.0;
    double y = 0.0;
    std::string text;
};

/**
 * A 2-D chart.
 */
class Chart
{
  public:
    /** Construct with a title and axes. */
    Chart(std::string title, Axis x_axis, Axis y_axis);

    /** Add a data series. */
    Chart &add(Series series);

    /** Add a labelled point annotation. */
    Chart &annotate(double x, double y, const std::string &text);

    /** Chart title. */
    const std::string &title() const { return _title; }

    /** X axis (finalized against the data). */
    const Axis &xAxis() const { return _xAxis; }

    /** Y axis (finalized against the data). */
    const Axis &yAxis() const { return _yAxis; }

    /** All series. */
    const std::vector<Series> &series() const { return _series; }

    /** All point annotations. */
    const std::vector<Annotation> &annotations() const
    {
        return _annotations;
    }

    /**
     * Fit the axes to the data (no-op for fixed ranges). Called by
     * renderers before projecting; idempotent.
     */
    void fitAxes();

  private:
    std::string _title;
    Axis _xAxis;
    Axis _yAxis;
    std::vector<Series> _series;
    std::vector<Annotation> _annotations;
    bool _fitted = false;
};

} // namespace uavf1::plot

#endif // UAVF1_PLOT_CHART_HH
