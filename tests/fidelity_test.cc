/**
 * @file
 * Paper fidelity: every value the paper quotes is declared once, on
 * the study metric it checks (scenario::PaperReference), and
 * asserted here. A reference must hold within its tolerance; a
 * declared gap must stay outside it, so closing a gap forces it to
 * be reclassified.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "scenario/runner.hh"

namespace {

using namespace uavf1;
using namespace uavf1::scenario;

TEST(Fidelity, EveryPaperReferenceHoldsOrIsADeclaredGap)
{
    const ScenarioRunner runner;
    const auto outcomes = runner.runAll(runner.allSpecs());

    std::map<std::string, int> references;
    for (const auto &outcome : outcomes) {
        ASSERT_TRUE(outcome.ok) << outcome.study << ": " << outcome.error;
        for (const auto &metric : outcome.result.metrics) {
            if (!metric.paper)
                continue;
            const PaperReference &ref = *metric.paper;
            ++references[outcome.study];
            const std::string what = outcome.study + "/" + metric.name +
                                     " (" + ref.note + ")";
            EXPECT_FALSE(ref.note.empty()) << what;
            EXPECT_GE(ref.tolerance, 0.0) << what;
            const double delta = std::fabs(metric.value - ref.value);
            if (ref.gap) {
                EXPECT_GT(delta, ref.tolerance)
                    << what << ": the gap closed; declare it a match";
            } else {
                EXPECT_LE(delta, ref.tolerance)
                    << what << ": ours " << metric.value << ", paper "
                    << ref.value;
            }
        }
    }

    // The paper's quoted numbers, per study: 44 paper-vs-ours
    // comparisons, fig07's four per-UAV errors and fig11's verdict.
    const std::map<std::string, int> expected = {
        {"fig02", 5}, {"fig05", 5}, {"fig07", 4}, {"fig09", 3},
        {"fig11", 6}, {"fig12", 4}, {"fig13", 5}, {"fig14", 1},
        {"fig15", 6}, {"fig16", 6}, {"table1", 4},
    };
    EXPECT_EQ(references, expected);
}

TEST(Fidelity, TableClassifiesEachReference)
{
    ScenarioOutcome outcome;
    outcome.study = "demo";
    outcome.ok = true;
    outcome.result.addMetric("match", 10.4, "Hz", {{10.0, 0.5, "m"}})
        .addMetric("miss", 11.0, "Hz", {{10.0, 0.5, "x"}})
        .addMetric("open_gap", 12.0, "", {{10.0, 0.5, "cause", true}})
        .addMetric("closed_gap", 10.0, "", {{10.0, 0.5, "c", true}})
        .addMetric("unreferenced", 1.0);

    const std::string table = ScenarioRunner::renderFidelity({outcome});
    const auto row = [&](const std::string &name) {
        const auto begin = table.find("| " + name + " ");
        if (begin == std::string::npos)
            return std::string();
        return table.substr(begin, table.find('\n', begin) - begin);
    };
    EXPECT_NE(row("match").find("| ok "), std::string::npos);
    EXPECT_NE(row("miss").find("| FAIL "), std::string::npos);
    EXPECT_NE(row("open_gap").find("| GAP "), std::string::npos);
    EXPECT_NE(row("closed_gap").find("| FAIL "), std::string::npos);
    EXPECT_EQ(table.find("unreferenced"), std::string::npos);
    EXPECT_NE(table.find("4 paper reference(s): 1 ok, 1 gap, 2 FAIL"),
              std::string::npos)
        << table;

    outcome.result.metrics.clear();
    outcome.result.addMetric("unreferenced", 1.0);
    EXPECT_EQ(ScenarioRunner::renderFidelity({outcome}), "");
}

} // namespace
