/**
 * @file
 * Chart axes with linear/log scales and nice tick generation.
 *
 * The F-1 roofline is conventionally drawn with a log-scaled
 * throughput axis (like the classic roofline model), so log-decade
 * ticks are first-class.
 */

#ifndef UAVF1_PLOT_AXIS_HH
#define UAVF1_PLOT_AXIS_HH

#include <string>
#include <vector>

namespace uavf1::plot {

/** Axis scale. */
enum class Scale
{
    Linear,
    Log10,
};

/** A tick with its position in data space and its label. */
struct Tick
{
    double value;
    std::string label;
};

/**
 * One chart axis.
 */
class Axis
{
  public:
    /** Construct with a label and scale. */
    explicit Axis(std::string label, Scale scale = Scale::Linear);

    /** Axis label. */
    const std::string &label() const { return _label; }

    /** Scale type. */
    Scale scale() const { return _scale; }

    /** Lower bound of the fitted range. */
    double lo() const { return _lo; }

    /** Upper bound of the fitted range. */
    double hi() const { return _hi; }

    /**
     * Grow the range to include a value. Charts call this while
     * scanning their series.
     */
    void accommodate(double value);

    /**
     * Pad/round the fitted range to pleasant bounds; called once
     * after all accommodate() calls.
     */
    void finalize();

    /**
     * Map a data value to [0, 1] within the range (log-aware).
     * Values outside the range clamp to the nearest edge.
     */
    double normalized(double value) const;

    /** Generate ticks for the current range. */
    std::vector<Tick> ticks(int approx_count = 6) const;

    /** Compact tick label ("0.5", "10", "1k"). */
    static std::string tickLabel(double value);

  private:
    std::string _label;
    Scale _scale;
    bool _fitted = false;
    double _lo = 0.0;
    double _hi = 1.0;
};

} // namespace uavf1::plot

#endif // UAVF1_PLOT_AXIS_HH
