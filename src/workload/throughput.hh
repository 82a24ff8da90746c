/**
 * @file
 * Algorithm-on-platform throughput oracle.
 *
 * The F-1 model consumes f_compute as an exogenous input. This
 * oracle provides it from two sources:
 *
 * 1. A measured table seeded with every (algorithm, platform) number
 *    the paper reports (Sections VI and VII).
 * 2. A roofline *upper bound* for unmeasured pairs — a bound, not a
 *    prediction, exactly as the roofline model [24] defines
 *    attainable performance. The bound is evaluated over the
 *    platform's full ceiling set (platform::RooflinePlatform), and
 *    the *binding ceiling* travels with the estimate as provenance;
 *    the legacy two-scalar ComputePlatform path is the degenerate
 *    single-ceiling family and keeps its numbers bit-for-bit.
 */

#ifndef UAVF1_WORKLOAD_THROUGHPUT_HH
#define UAVF1_WORKLOAD_THROUGHPUT_HH

#include <map>
#include <string>
#include <utility>

#include "components/compute_platform.hh"
#include "platform/roofline_platform.hh"
#include "units/units.hh"
#include "workload/algorithm.hh"

namespace uavf1::workload {

/** Where a throughput figure came from. */
enum class ThroughputSource
{
    Measured,       ///< From the paper's characterization.
    RooflineBound,  ///< Classic-roofline attainable upper bound.
};

/** Printable source name. */
const char *toString(ThroughputSource source);

/** A throughput figure with its provenance. */
struct ThroughputEstimate
{
    units::Hertz value;       ///< Decisions per second.
    ThroughputSource source;  ///< Provenance.
    /** The ceiling binding the bound. Unattributed
     * (binding.attributed == false) for measured entries; for
     * roofline bounds, resolve the name against the platform's
     * ceiling family. */
    platform::CeilingRef binding{};
};

/**
 * Map an algorithm's ceiling annotations (WorkloadTraits) onto a
 * concrete platform's ceiling family: targets become the
 * applicability mask (empty = every target), the stage name becomes
 * a stage tag, and levelTraffic entries are matched against the
 * platform's memory ceiling *names* — names the platform does not
 * have are ignored, so one annotation set travels across platforms.
 * An unannotated algorithm yields the default profile, which
 * reproduces the classic evaluation bit-for-bit.
 *
 * @throws ModelError when an annotated memory level is beyond
 *         WorkloadProfile::maxMemoryLevels on this platform
 */
platform::WorkloadProfile
workloadProfile(const AutonomyAlgorithm &algorithm,
                const platform::RooflinePlatform &platform);

/**
 * The same lowering from bare traits + arithmetic intensity, for
 * workloads that are not whole algorithms (e.g. one SpaStage's
 * kernel). `context` names the construction site for error messages.
 *
 * @throws ModelError as workloadProfile(algorithm, platform)
 */
platform::WorkloadProfile
workloadProfile(const WorkloadTraits &traits, units::OpsPerByte ai,
                const platform::RooflinePlatform &platform,
                const std::string &context);

/**
 * Workload-aware roofline bound: attainable(profile) over the
 * ceilings the profile admits, divided by the work per frame, with
 * the binding ceiling as provenance.
 *
 * @param work_per_frame_gop compute work per decision; must be
 *        positive
 * @param op_index DVFS operating-point index (default nominal)
 * @throws ModelError on a non-positive work-per-frame, a degenerate
 *         profile, when no compute ceiling is applicable, or when
 *         the bound would be non-finite (e.g. a vanishing
 *         work-per-frame against a large attainable roof)
 */
ThroughputEstimate
rooflineBound(double work_per_frame_gop,
              const platform::WorkloadProfile &profile,
              const platform::RooflinePlatform &platform,
              std::size_t op_index = 0);

/**
 * Ceiling-set roofline bound for an algorithm on a multi-ceiling
 * platform, evaluated through the algorithm's workloadProfile() —
 * annotated algorithms can bind non-top compute ceilings and
 * on-chip memory ceilings; unannotated ones keep the classic
 * numbers bit-for-bit.
 */
ThroughputEstimate
rooflineBound(const AutonomyAlgorithm &algorithm,
              const platform::RooflinePlatform &platform,
              std::size_t op_index = 0);

/**
 * Measured table + roofline-bound fallback.
 */
class ThroughputOracle
{
  public:
    /** Empty oracle (roofline bound only). */
    ThroughputOracle() = default;

    /**
     * Oracle seeded with the paper's measurements:
     *
     * | Algorithm | Platform | Hz | Paper anchor |
     * |---|---|---|---|
     * | DroNet | Nvidia TX2 | 178 | Section VI-B/C |
     * | DroNet | Nvidia AGX | 230 | Section VI-A |
     * | DroNet | Intel NCS | 150 | Section VI-A |
     * | DroNet | Ras-Pi4 | 13.03 | 43 Hz knee / 3.3x gap |
     * | DroNet | PULP-GAP8 | 6 | Section VII |
     * | TrailNet | Nvidia TX2 | 55 | Section VI-B |
     * | TrailNet | Ras-Pi4 | 0.391 | 43 Hz knee / 110x gap |
     * | CAD2RL | Ras-Pi4 | 0.0652 | 43 Hz knee / 660x gap |
     * | VGG16 | Nvidia TX2 | 16 | Fig. 15 |
     * | SPA package delivery | Nvidia TX2 | 1.1 | Section VI-B |
     */
    static ThroughputOracle standard();

    /** Record a measurement (overwrites an existing entry). */
    void addMeasurement(const std::string &algorithm,
                        const std::string &platform,
                        units::Hertz throughput);

    /** True if a measured entry exists for the pair. */
    bool hasMeasurement(const std::string &algorithm,
                        const std::string &platform) const;

    /**
     * Throughput for an algorithm on a platform: the measured value
     * when available, otherwise the classic-roofline bound. This is
     * the degenerate caller of the ceiling-family overload below,
     * through the platform's single-ceiling adapter family (the
     * family carries the platform's name, so measured entries still
     * hit), bit-for-bit on every legacy number.
     */
    ThroughputEstimate
    throughput(const AutonomyAlgorithm &algorithm,
               const components::ComputePlatform &platform) const;

    /**
     * Measured-throughput-first evaluation over a ceiling family:
     * at the *nominal* operating point (op_index 0) a measured table
     * entry for (algorithm, family name) wins and carries no ceiling
     * attribution; away from nominal — where no measurement exists —
     * and for unmeasured pairs, the workload-aware roofline bound
     * with binding-ceiling provenance is the answer.
     *
     * @throws ModelError as rooflineBound(algorithm, platform)
     */
    ThroughputEstimate
    throughput(const AutonomyAlgorithm &algorithm,
               const platform::RooflinePlatform &platform,
               std::size_t op_index = 0) const;

    /**
     * Measured throughput for the pair.
     *
     * @throws ModelError if the pair was never measured
     */
    units::Hertz measured(const std::string &algorithm,
                          const std::string &platform) const;

  private:
    std::map<std::pair<std::string, std::string>, units::Hertz> _table;
};

} // namespace uavf1::workload

#endif // UAVF1_WORKLOAD_THROUGHPUT_HH
