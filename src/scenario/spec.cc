/**
 * @file
 * ScenarioSpec implementation.
 */

#include "scenario/spec.hh"

#include "support/strings.hh"

namespace uavf1::scenario {

void
ScenarioSpec::apply(const Assignment &assignment)
{
    const auto &[key, value] = assignment;
    if (key == "study") {
        study = toLower(value);
    } else if (key == "label") {
        label = value;
    } else {
        overrides.set(key, value);
    }
}

} // namespace uavf1::scenario
