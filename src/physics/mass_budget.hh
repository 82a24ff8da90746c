/**
 * @file
 * Itemized mass roll-up for a UAV build.
 *
 * The F-1 model's physics bound is driven entirely by total takeoff
 * mass vs. rotor thrust, and the paper's case studies all reason about
 * *which component* added the grams (compute module, heatsink,
 * dedicated battery, calibration weight). MassBudget keeps the
 * itemization so reports can attribute weight to components.
 */

#ifndef UAVF1_PHYSICS_MASS_BUDGET_HH
#define UAVF1_PHYSICS_MASS_BUDGET_HH

#include <string>
#include <vector>

#include "units/units.hh"

namespace uavf1::physics {

/** One labelled mass contribution. */
struct MassItem
{
    std::string label;   ///< e.g. "Nvidia AGX module", "heatsink".
    units::Grams mass;   ///< Contribution in grams.
};

/**
 * An itemized, append-only mass budget.
 */
class MassBudget
{
  public:
    /** Empty budget. */
    MassBudget() = default;

    /**
     * Add a labelled contribution.
     *
     * @param label component name for attribution
     * @param mass contribution; must be non-negative
     * @return *this for chaining
     */
    MassBudget &add(const std::string &label, units::Grams mass);

    /** Total mass in grams. */
    units::Grams total() const;

    /** Total mass in kilograms (convenience for dynamics). */
    units::Kilograms totalKg() const;

    /** All items in insertion order. */
    const std::vector<MassItem> &items() const { return _items; }

    /** Mass of all items whose label matches exactly; zero if none. */
    units::Grams massOf(const std::string &label) const;

    /** Multi-line "label: grams" summary ending in the total. */
    std::string summary() const;

  private:
    std::vector<MassItem> _items;
};

} // namespace uavf1::physics

#endif // UAVF1_PHYSICS_MASS_BUDGET_HH
