/**
 * @file
 * MassBudget implementation.
 */

#include "physics/mass_budget.hh"

#include "support/strings.hh"
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

units::Grams
MassBudget::massOf(const std::string &label) const
{
    units::Grams sum;
    for (const auto &item : _items) {
        if (item.label == label)
            sum += item.mass;
    }
    return sum;
}

std::string
MassBudget::summary() const
{
    std::string out;
    for (const auto &item : _items) {
        out += strFormat("%-32s %8.1f g\n", item.label.c_str(),
                         item.mass.value());
    }
    out += strFormat("%-32s %8.1f g\n", "TOTAL", total().value());
    return out;
}

} // namespace uavf1::physics
