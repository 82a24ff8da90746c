/**
 * @file
 * The F-1 roofline model (paper Section III).
 *
 * Couples the Eq. 4 safety model with the Eq. 3 action throughput
 * (the minimum of the sensor, compute and control rates) to produce
 * the roofline: safe velocity vs. action throughput, with
 * sensor / compute / control ceilings, the knee point, and the
 * bound-and-bottleneck classification of Fig. 4.
 */

#ifndef UAVF1_CORE_F1_MODEL_HH
#define UAVF1_CORE_F1_MODEL_HH

#include <vector>

#include "core/safety_model.hh"
#include "platform/ceiling.hh"
#include "units/units.hh"

namespace uavf1::core {

/** Everything the F-1 model needs, already reduced to scalars. */
struct F1Inputs
{
    /** Maximum braking/maneuvering acceleration. */
    units::MetersPerSecondSquared aMax;
    /** Sensor range d. */
    units::Meters sensingRange;
    /** Sensor framerate f_sensor. */
    units::Hertz sensorRate;
    /** Autonomy-algorithm throughput f_compute. */
    units::Hertz computeRate;
    /** Flight-controller rate f_control (typically 1 kHz). */
    units::Hertz controlRate{1000.0};
    /** Knee criterion (fraction of the roof). */
    double kneeFraction = SafetyModel::defaultKneeFraction;
    /**
     * Provenance of computeRate when it came from a ceiling-set
     * roofline bound: which machine ceiling bound it. Pass-through
     * — the model copies it verbatim into F1Analysis so sweeps can
     * attribute compute-bound designs to a specific ceiling. The
     * default is unattributed (attributed == false: measured
     * throughput, direct override). Trivially copyable by design
     * (see platform::CeilingRef); resolve against the platform's
     * ceiling family for a name.
     */
    platform::CeilingRef computeBinding{};
};

/** Which subsystem limits safe velocity (paper Fig. 4a). */
enum class BoundType
{
    ComputeBound,
    SensorBound,
    ControlBound,
    PhysicsBound,
};

/** Printable bound name. */
const char *toString(BoundType bound);

/** Design classification relative to the knee (paper Fig. 4b). */
enum class DesignVerdict
{
    Optimal,       ///< Action throughput ~ knee throughput.
    OverOptimized, ///< Past the knee: wasted effort/cost.
    SubOptimal,    ///< Short of the knee: velocity on the table.
};

/** Printable verdict. */
const char *toString(DesignVerdict verdict);

/**
 * The pipeline stage limiting action throughput (Eq. 3 argmin).
 * A plain enum — not the stage's string name — so that F1Analysis
 * stays trivially copyable and the per-sample analysis path never
 * touches the heap.
 */
enum class BottleneckStage
{
    Sensor,
    Compute,
    Control,
};

/** Printable stage name ("sensor", "compute", "control"). */
const char *toString(BottleneckStage stage);

/** Result of F1Model::analyze(). */
struct F1Analysis
{
    units::Hertz actionThroughput;  ///< Eq. 3 pipeline rate.
    units::MetersPerSecond safeVelocity; ///< v at actionThroughput.
    units::Hertz kneeThroughput;    ///< f_k.
    units::MetersPerSecond roofVelocity; ///< Physics roof.
    units::MetersPerSecond kneeVelocity; ///< v at the knee.
    BoundType bound;                ///< Limiting subsystem.
    BottleneckStage bottleneckStage ///< The limiting stage.
        = BottleneckStage::Compute;
    /** f_action / f_knee when past the knee, else 1. */
    double overProvisionFactor = 1.0;
    /** f_knee / f_action when short of the knee, else 1. */
    double requiredSpeedup = 1.0;
    DesignVerdict verdict;          ///< Classification vs the knee.
    /** Velocity ceiling set by the sensor alone. */
    units::MetersPerSecond sensorCeiling;
    /** Velocity ceiling set by the compute alone. */
    units::MetersPerSecond computeCeiling;
    /** Machine-ceiling attribution of computeRate, copied verbatim
     * from F1Inputs::computeBinding (enum + index, no heap);
     * unattributed unless a ceiling-set bound produced the rate. */
    platform::CeilingRef computeBinding{};
};

/** One sample of the roofline curve. */
struct CurvePoint
{
    units::Hertz actionThroughput;
    units::MetersPerSecond safeVelocity;
};

/**
 * A sampled F-1 roofline with its annotations, ready for plotting.
 */
struct RooflineCurve
{
    std::vector<CurvePoint> points; ///< Log-spaced samples.
    CurvePoint knee;                ///< Knee-point annotation.
    CurvePoint operating;           ///< This design's operating point.
    units::MetersPerSecond roof;    ///< Physics roof.
};

/**
 * The F-1 model for one UAV configuration.
 */
class F1Model
{
  public:
    /** Construct from reduced inputs; all rates must be positive. */
    explicit F1Model(const F1Inputs &inputs);

    /** The reduced inputs. */
    const F1Inputs &inputs() const { return _inputs; }

    /** The underlying Eq. 4 safety model. */
    const SafetyModel &safety() const { return _safety; }

    /** Full bound-and-bottleneck analysis. */
    F1Analysis analyze() const;

    /**
     * Allocation-free analysis for hot loops: validates `inputs`
     * (throws ModelError on bad values) and writes the full
     * bound-and-bottleneck analysis into `out` without constructing
     * an F1Model and with no heap traffic on the happy path.
     * Produces bit-identical results to F1Model(inputs).analyze().
     */
    static void analyzeInto(const F1Inputs &inputs, F1Analysis &out);

    /**
     * Sample the roofline curve over [f_min, f_max] (log-spaced).
     *
     * @param samples number of samples (>= 2)
     * @param f_min lowest throughput; default knee/100
     * @param f_max highest throughput; default 10x the largest of
     *              the sensor, compute and control rates
     */
    RooflineCurve curve(std::size_t samples = 256,
                        units::Hertz f_min = units::Hertz(0.0),
                        units::Hertz f_max = units::Hertz(0.0)) const;

  private:
    F1Inputs _inputs;
    SafetyModel _safety;
};

} // namespace uavf1::core

#endif // UAVF1_CORE_F1_MODEL_HH
