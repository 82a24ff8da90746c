/**
 * @file
 * The list of built-in studies, in `run-all` order.
 *
 * Each study lives in one file under scenario/studies/: its
 * computation, its paper references and its StudyInfo. The list is
 * explicit because uavf1 is a static library: a study file that
 * registered itself from a static object would be dropped by the
 * linker, since nothing else references it.
 */

#include "scenario/studies/common.hh"
#include "skyline/session.hh"

namespace uavf1::scenario::detail {

skyline::SkylineSession
sessionFromParams(const StudyParams &params)
{
    skyline::SkylineSession session;
    for (const auto &entry : params.entries())
        session.set(entry.first, entry.second);
    return session;
}

std::vector<std::string>
withSessionKnobs(std::vector<std::string> params)
{
    for (std::string &knob : skyline::SkylineSession::knobNames())
        params.push_back(std::move(knob));
    return params;
}

void
registerBuiltinStudies(StudyRegistry &registry)
{
    for (StudyInfo (*study)() :
         {fig02Study, fig04Study, fig05Study, fig07Study, fig09Study,
          fig11Study, fig12Study, fig13Study, fig14Study, fig15Study,
          fig16Study, table1Study, table2Study, table3Study,
          rooflineStudy, dvfsStudy, sweepStudy, faultsStudy}) {
        registry.add(study());
    }
}

} // namespace uavf1::scenario::detail
