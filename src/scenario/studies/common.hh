/**
 * @file
 * What the built-in studies share: resource caps, paper-reference
 * helpers and the one function per study that builtin_studies.cc
 * registers. Internal to src/scenario/.
 */

#ifndef UAVF1_SCENARIO_STUDIES_COMMON_HH
#define UAVF1_SCENARIO_STUDIES_COMMON_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/f1_model.hh"
#include "scenario/study.hh"
#include "skyline/session.hh"

namespace uavf1::scenario::detail {

// Resource caps: the largest counts a study accepts, checked before
// any cast or allocation, so an oversized scenario fails naming its
// parameter instead of wrapping or exhausting memory. A series holds
// at most skyline::kMaxSweepPoints points, the sweep's own cap.
using skyline::kMaxSweepPoints;
inline constexpr std::size_t kMaxMissions = 100000000; ///< faults samples.

// Paper references (arXiv 2204.10898). A tolerance is the precision
// of the quote:
//  - a number quoted to some digit matches to one unit of that digit
//    (the paper rounds some values and truncates others: TrailNet's
//    55/43 Hz = 1.279 appears as 1.27x);
//  - a round "~" number with one significant figure ("~10 m/s",
//    "~3x") matches to 10%;
//  - a value our simulated flights measure matches to the
//    simulation's resolution, stated in the note.
// A value outside its tolerance is declared a gap whose note names
// the cause; tests/fidelity_test.cc asserts both kinds.

/** A paper value the metric matches within `tolerance`. */
inline PaperReference
paper(double value, double tolerance, std::string note)
{
    return {value, tolerance, std::move(note)};
}

/** A paper value the metric misses; `cause` says why. */
inline PaperReference
gap(double value, double tolerance, std::string cause)
{
    return {value, tolerance, std::move(cause), true};
}

/** Why the Table I builds fly at other speeds than the paper's. */
inline constexpr const char *kThrustCalibration =
    "usable thrust is calibrated to 1870 g-f, as Table I's 4 x 435 g "
    "cannot hover UAV-B (1830 g), so each build's a_max differs";

/** The paper's "factor vs knee": over-provisioning past the knee,
 * the speedup still needed before it. */
inline double
factorVsKnee(const core::F1Analysis &analysis)
{
    return analysis.bound == core::BoundType::PhysicsBound
               ? analysis.overProvisionFactor
               : analysis.requiredSpeedup;
}

/** A session with every override applied as a knob assignment. */
skyline::SkylineSession sessionFromParams(const StudyParams &params);

/** `params` followed by every session knob name. */
std::vector<std::string> withSessionKnobs(std::vector<std::string> params);

StudyInfo fig02Study();
StudyInfo fig04Study();
StudyInfo fig05Study();
StudyInfo fig07Study();
StudyInfo fig09Study();
StudyInfo fig11Study();
StudyInfo fig12Study();
StudyInfo fig13Study();
StudyInfo fig14Study();
StudyInfo fig15Study();
StudyInfo fig16Study();
StudyInfo table1Study();
StudyInfo table2Study();
StudyInfo table3Study();
StudyInfo rooflineStudy();
StudyInfo dvfsStudy();
StudyInfo sweepStudy();
StudyInfo faultsStudy();

} // namespace uavf1::scenario::detail

#endif // UAVF1_SCENARIO_STUDIES_COMMON_HH
