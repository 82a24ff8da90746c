/**
 * @file
 * Declarative scenario specification.
 *
 * A ScenarioSpec names a registered study plus parameter overrides.
 * The text form uses the `key = value` grammar of parseAssignments
 * (support/strings.hh), which SkylineSession::loadConfig and the
 * CLI's --set share — one assignment per line, '#' lines are
 * comments — with two reserved keys:
 *
 *     study = fig09          # which registered study to run
 *     label = heavy-payload  # optional artifact/display label
 *     sweep_samples = 64     # everything else: study parameters
 */

#ifndef UAVF1_SCENARIO_SPEC_HH
#define UAVF1_SCENARIO_SPEC_HH

#include <string>

#include "scenario/study.hh"
#include "support/strings.hh"

namespace uavf1::scenario {

/** One scenario to run: a study name plus overrides. */
struct ScenarioSpec
{
    std::string study;    ///< Registered study name.
    std::string label;    ///< Display/artifact label; empty: study.
    StudyParams overrides; ///< Parameter overrides.

    /** The label, defaulting to the study name. */
    std::string displayLabel() const
    {
        return label.empty() ? study : label;
    }

    /** Apply one parsed assignment: `study`, `label`, or else an
     * override. */
    void apply(const Assignment &assignment);

    /**
     * Apply `key = value` assignments, one per line (see
     * parseAssignments).
     *
     * @throws ModelError on a line without '='
     */
    void set(const std::string &assignments);

    /**
     * Parse the `key = value` text form.
     *
     * @throws ModelError on malformed lines or a missing study key
     */
    static ScenarioSpec parse(const std::string &text);
};

} // namespace uavf1::scenario

#endif // UAVF1_SCENARIO_SPEC_HH
