/**
 * @file
 * Paper fidelity: every value the paper quotes is declared once, on
 * the study metric it checks (scenario::PaperReference), and
 * asserted here. A reference must hold within its tolerance; a
 * declared gap must stay outside it, so closing a gap forces it to
 * be reclassified.
 *
 * The same run-all batch pins every output byte: each artifact and
 * each study's summary is hashed (64-bit FNV-1a) and compared with
 * tests/golden/run_all.digest, one "name bytes hash" line each.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "scenario/runner.hh"

namespace {

using namespace uavf1;
using namespace uavf1::scenario;

/** One run-all batch with artifacts, shared by the tests below. */
const std::vector<ScenarioOutcome> &
runAllOutcomes()
{
    static const std::vector<ScenarioOutcome> outcomes = [] {
        const ScenarioRunner runner;
        RunnerOptions options;
        options.outDir = "artifacts/fidelity_test";
        return runner.runAll(runner.allSpecs(), options);
    }();
    return outcomes;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** 64-bit FNV-1a. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
digestLine(const std::string &name, const std::string &bytes)
{
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, fnv1a(bytes));
    return name + " " + std::to_string(bytes.size()) + " " + hash;
}

TEST(Fidelity, EveryPaperReferenceHoldsOrIsADeclaredGap)
{
    const auto &outcomes = runAllOutcomes();

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

TEST(Fidelity, RunAllBytesMatchTheGoldenDigest)
{
    std::vector<std::string> lines;
    for (const auto &outcome : runAllOutcomes()) {
        ASSERT_TRUE(outcome.ok) << outcome.study << ": " << outcome.error;
        for (const auto &path : outcome.artifacts) {
            lines.push_back(digestLine(
                std::filesystem::path(path).filename().string(),
                slurp(path)));
        }
        lines.push_back(
            digestLine(outcome.label + ".summary", outcome.result.summary));
    }

    // name -> line; an entry is named in every failure message.
    const auto nameOf = [](const std::string &line) {
        return line.substr(0, line.find(' '));
    };
    std::map<std::string, std::string> golden;
    std::ifstream in(UAVF1_GOLDEN_DIGEST);
    for (std::string line; std::getline(in, line);)
        golden[nameOf(line)] = line;
    std::string regenerated;
    bool same = true;
    for (const auto &line : lines) {
        regenerated += line + "\n";
        const auto it = golden.find(nameOf(line));
        if (it == golden.end() || it->second != line) {
            ADD_FAILURE() << "differs: " << line << " (digest: "
                          << (it == golden.end() ? "none" : it->second)
                          << ")";
            same = false;
        }
        if (it != golden.end())
            golden.erase(it);
    }
    for (const auto &[name, line] : golden) {
        ADD_FAILURE() << "no longer written: " << line;
        same = false;
    }
    EXPECT_TRUE(same) << "regenerated " << UAVF1_GOLDEN_DIGEST << ":\n"
                      << regenerated;
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
