/**
 * @file
 * MassBudget implementation.
 */

#include "physics/mass_budget.hh"

#include "support/validate.hh"

namespace uavf1::physics {

MassBudget &
MassBudget::add(const std::string &label, units::Grams mass)
{
    requireNonNegative(mass.value(), "mass of '" + label + "'");
    _items.push_back({label, mass});
    return *this;
}

units::Grams
MassBudget::total() const
{
    units::Grams sum;
    for (const auto &item : _items)
        sum += item.mass;
    return sum;
}

units::Kilograms
MassBudget::totalKg() const
{
    return units::toKilograms(total());
}

} // namespace uavf1::physics
