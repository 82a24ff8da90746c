/**
 * @file
 * Heat-sink sizing model (paper Fig. 12, Section VI-A).
 *
 * The paper sizes heat sinks with an online natural-convection
 * calculator [54] and quotes three operating points: 162 g @ 30 W,
 * 81 g @ 15 W and ~10 g @ ~1.5 W ("~20x in TDP -> ~16.2x in heatsink
 * weight"). We reproduce the calculator with a power-law mass model
 *
 *     mass(P) = c * P^gamma + b        [grams, P in watts]
 *
 * whose three parameters are solved exactly through those points
 * (c = 4.9141, gamma = 1.023, b = 2.552). The nearly linear exponent
 * matches natural-convection sizing, where required fin area scales
 * ~linearly with dissipated power at a fixed temperature rise; the
 * small positive base mass is the baseplate.
 *
 * Devices below a configurable TDP threshold need no heat sink at all
 * (they are board-cooled): the paper treats the sub-1 W Intel NCS,
 * the 64 mW PULP-DroNet and the 2 mW Navion as zero-heatsink parts.
 */

#ifndef UAVF1_THERMAL_HEATSINK_HH
#define UAVF1_THERMAL_HEATSINK_HH

#include "units/units.hh"

namespace uavf1::thermal {

/**
 * Natural-convection heat-sink mass vs. TDP.
 */
class HeatsinkModel
{
  public:
    /** Calibration constants; defaults reproduce the paper's
     * calculator points. */
    struct Params
    {
        double massCoefficient = 4.9141; ///< c, grams per W^gamma.
        double exponent = 1.023;         ///< gamma.
        double baseMass = 2.552;         ///< b, baseplate grams.
        /** Below this TDP no heat sink is fitted. */
        units::Watts noHeatsinkBelow{1.0};
    };

    /** Model with default (paper-calibrated) parameters. */
    HeatsinkModel() : HeatsinkModel(Params{}) {}

    /** Model with explicit parameters. */
    explicit HeatsinkModel(const Params &params);

    /**
     * Heat-sink mass required to dissipate a TDP.
     *
     * @param tdp thermal design power; must be non-negative
     * @return 0 g below the no-heatsink threshold, else the power-law
     *         mass
     */
    units::Grams mass(units::Watts tdp) const;

    /** Active parameters. */
    const Params &params() const { return _params; }

  private:
    Params _params;
};

} // namespace uavf1::thermal

#endif // UAVF1_THERMAL_HEATSINK_HH
