/**
 * @file
 * Axis implementation.
 */

#include "plot/axis.hh"

#include <algorithm>
#include <cmath>

#include "support/strings.hh"

namespace uavf1::plot {

Axis::Axis(std::string label, Scale scale)
    : _label(std::move(label)), _scale(scale)
{
}

void
Axis::accommodate(double value)
{
    if (_scale == Scale::Log10 && value <= 0.0)
        return; // Non-positive values cannot appear on a log axis.
    if (!_fitted) {
        _lo = _hi = value;
        _fitted = true;
        return;
    }
    _lo = std::min(_lo, value);
    _hi = std::max(_hi, value);
}

void
Axis::finalize()
{
    if (!_fitted) {
        // No data at all: pick an inoffensive default.
        _lo = _scale == Scale::Log10 ? 1.0 : 0.0;
        _hi = 10.0;
        return;
    }
    if (_scale == Scale::Log10) {
        _lo = std::pow(10.0, std::floor(std::log10(_lo)));
        _hi = std::pow(10.0, std::ceil(std::log10(_hi)));
        if (_lo == _hi)
            _hi = _lo * 10.0;
    } else {
        if (_lo == _hi) {
            // Degenerate: widen symmetrically.
            const double pad = std::max(1.0, std::fabs(_lo) * 0.5);
            _lo -= pad;
            _hi += pad;
        } else {
            const double pad = (_hi - _lo) * 0.05;
            _hi += pad;
            // Keep zero-anchored axes anchored.
            if (_lo > 0.0 && _lo - pad < 0.0) {
                _lo = 0.0;
            } else {
                _lo -= pad;
            }
        }
    }
}

double
Axis::normalized(double value) const
{
    double lo = _lo;
    double hi = _hi;
    double v = value;
    if (_scale == Scale::Log10) {
        lo = std::log10(lo);
        hi = std::log10(hi);
        v = value > 0.0 ? std::log10(value) : lo;
    }
    if (hi == lo)
        return 0.5;
    const double t = (v - lo) / (hi - lo);
    return std::clamp(t, 0.0, 1.0);
}

std::string
Axis::tickLabel(double value)
{
    const double mag = std::fabs(value);
    if (mag >= 1000.0)
        return trimmedNumber(value / 1000.0, 2) + "k";
    if (mag > 0.0 && mag < 0.01)
        return strFormat("%.0e", value);
    return trimmedNumber(value, 3);
}

std::vector<Tick>
Axis::ticks(int approx_count) const
{
    std::vector<Tick> out;
    if (approx_count < 2)
        approx_count = 2;

    if (_scale == Scale::Log10) {
        const int lo_exp =
            static_cast<int>(std::floor(std::log10(_lo) + 1e-9));
        const int hi_exp =
            static_cast<int>(std::ceil(std::log10(_hi) - 1e-9));
        int step = 1;
        while ((hi_exp - lo_exp) / step + 1 > approx_count + 2)
            ++step;
        for (int e = lo_exp; e <= hi_exp; e += step) {
            const double v = std::pow(10.0, e);
            if (v >= _lo * (1.0 - 1e-9) && v <= _hi * (1.0 + 1e-9))
                out.push_back({v, tickLabel(v)});
        }
        return out;
    }

    // Linear: classic nice-number tick spacing (1, 2, 5) x 10^k.
    const double span = _hi - _lo;
    const double raw_step = span / approx_count;
    const double mag = std::pow(10.0, std::floor(std::log10(raw_step)));
    const double residual = raw_step / mag;
    double step;
    if (residual < 1.5) {
        step = 1.0 * mag;
    } else if (residual < 3.5) {
        step = 2.0 * mag;
    } else if (residual < 7.5) {
        step = 5.0 * mag;
    } else {
        step = 10.0 * mag;
    }
    const double first = std::ceil(_lo / step) * step;
    for (double v = first; v <= _hi + step * 1e-9; v += step) {
        // Snap values like 1.0000000000002 back to clean numbers.
        const double snapped = std::round(v / step) * step;
        out.push_back({snapped, tickLabel(snapped)});
    }
    return out;
}

} // namespace uavf1::plot
