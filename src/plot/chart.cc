/**
 * @file
 * Chart implementation.
 */

#include "plot/chart.hh"

namespace uavf1::plot {

Chart::Chart(std::string title, Axis x_axis, Axis y_axis)
    : _title(std::move(title)), _xAxis(std::move(x_axis)),
      _yAxis(std::move(y_axis))
{
}

Chart &
Chart::add(Series series)
{
    _series.push_back(std::move(series));
    _fitted = false;
    return *this;
}

Chart &
Chart::annotate(double x, double y, const std::string &text)
{
    _annotations.push_back({x, y, text});
    _fitted = false;
    return *this;
}

void
Chart::fitAxes()
{
    if (_fitted)
        return;
    for (const auto &series : _series) {
        for (const auto &point : series.points()) {
            _xAxis.accommodate(point.x);
            _yAxis.accommodate(point.y);
        }
    }
    for (const auto &annotation : _annotations) {
        _xAxis.accommodate(annotation.x);
        _yAxis.accommodate(annotation.y);
    }
    _xAxis.finalize();
    _yAxis.finalize();
    _fitted = true;
}

} // namespace uavf1::plot
