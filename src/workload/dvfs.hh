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

namespace uavf1::workload {

/**
 * The parameters of the CMOS voltage-frequency scaling law
 * (platform::dvfsScaledTdp), range-checked at construction.
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

  private:
    Params _params;
};

} // namespace uavf1::workload

#endif // UAVF1_WORKLOAD_DVFS_HH
