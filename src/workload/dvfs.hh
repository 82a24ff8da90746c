/**
 * @file
 * DVFS-style performance/power scaling (paper Sections VI-A, VI-C,
 * VI-D).
 *
 * The paper repeatedly prescribes the same remedy for
 * over-provisioned, physics-bound designs: "trade off this excess
 * performance for a lower TDP (e.g., at a lower clock frequency)".
 * This model makes the trade quantitative with the classic CMOS
 * scaling relations:
 *
 *   throughput  ~ f
 *   dynamic power ~ C f V^2, with V ~ f in the DVFS regime
 *   => power ~ f^alpha, alpha in [1, 3] (3 = ideal
 *      voltage-frequency scaling; 1 = frequency-only scaling)
 *
 * plus a leakage floor that does not scale with frequency.
 */

#ifndef UAVF1_WORKLOAD_DVFS_HH
#define UAVF1_WORKLOAD_DVFS_HH

#include <utility>
#include <vector>

#include "platform/roofline_platform.hh"
#include "units/units.hh"

namespace uavf1::workload {

/**
 * A voltage-frequency scaling model for a compute platform.
 */
class DvfsModel
{
  public:
    /** Scaling parameters. */
    struct Params
    {
        /** Power-vs-frequency exponent alpha; 3 = full DVFS. */
        double exponent = 3.0;
        /** Fraction of TDP that is static leakage (not scaled). */
        double leakageFraction = 0.1;
        /** Lowest usable frequency fraction (DVFS floor). */
        double minFrequencyFraction = 0.2;
    };

    /** Model with default (full-DVFS) parameters. */
    DvfsModel() : DvfsModel(Params{}) {}

    /** Model with explicit parameters. */
    explicit DvfsModel(const Params &params);

    /** Active parameters. */
    const Params &params() const { return _params; }

    /**
     * TDP after slowing the part to `frequency_fraction` of its
     * nominal clock: leakage + dynamic * fraction^alpha.
     *
     * @param nominal_tdp TDP at full frequency
     * @param frequency_fraction target clock as a fraction in
     *        [minFrequencyFraction, 1]
     * @throws ModelError if the fraction is out of range
     */
    units::Watts scaledTdp(units::Watts nominal_tdp,
                           double frequency_fraction) const;

    /**
     * Build DVFS operating points for a ceiling family: one
     * platform::OperatingPoint per (name, frequency fraction) pair,
     * each carrying the TDP scaledTdp() predicts at that clock.
     * Every ceiling of the family scales linearly with the fraction;
     * the power follows the CMOS law.
     *
     * @param nominal_tdp TDP at full frequency
     * @param points (name, fraction) pairs; fractions must be in
     *        [minFrequencyFraction, 1]
     * @throws ModelError if a fraction is out of the DVFS range
     */
    std::vector<platform::OperatingPoint>
    operatingPoints(units::Watts nominal_tdp,
                    const std::vector<std::pair<std::string, double>>
                        &points) const;

  private:
    Params _params;
};

} // namespace uavf1::workload

#endif // UAVF1_WORKLOAD_DVFS_HH
