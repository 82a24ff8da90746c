/**
 * @file
 * ScenarioSpec implementation.
 */

#include "scenario/spec.hh"

#include "support/errors.hh"
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

void
ScenarioSpec::set(const std::string &assignments)
{
    for (const auto &assignment : parseAssignments(assignments))
        apply(assignment);
}

ScenarioSpec
ScenarioSpec::parse(const std::string &text)
{
    ScenarioSpec spec;
    spec.set(text);
    if (spec.study.empty()) {
        throw ModelError(
            "scenario spec does not name a study "
            "(expected a 'study = <name>' line)");
    }
    return spec;
}

} // namespace uavf1::scenario
