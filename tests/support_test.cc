/**
 * @file
 * Unit tests for the support library: errors, validation, RNG,
 * strings and text tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "support/errors.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/validate.hh"

namespace {

using namespace uavf1;

TEST(Validate, PositiveAcceptsAndRejects)
{
    EXPECT_DOUBLE_EQ(requirePositive(2.0, "x"), 2.0);
    EXPECT_THROW(requirePositive(0.0, "x"), ModelError);
    EXPECT_THROW(requirePositive(-1.0, "x"), ModelError);
}

TEST(Validate, ErrorMessageNamesParameter)
{
    const auto message = [](const auto &check) {
        try {
            check();
        } catch (const ModelError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    // Values print in their shortest round-trip form, so a subnormal
    // does not read as "-0.000000".
    EXPECT_EQ(message([] { requirePositive(-1e-320, "rotor_pull"); }),
              "rotor_pull must be positive, got -1e-320");
    EXPECT_EQ(message([] { requireNonNegative(-0.1, "x"); }),
              "x must be non-negative, got -0.1");
    EXPECT_EQ(message([] { requireInRange(1e308, 1e-6, 0.5, "x"); }),
              "x must be in [1e-06, 0.5], got 1e+308");
}

TEST(Validate, NonNegativeAndRange)
{
    EXPECT_DOUBLE_EQ(requireNonNegative(0.0, "x"), 0.0);
    EXPECT_THROW(requireNonNegative(-0.1, "x"), ModelError);
    EXPECT_DOUBLE_EQ(requireInRange(0.5, 0.0, 1.0, "x"), 0.5);
    EXPECT_THROW(requireInRange(1.5, 0.0, 1.0, "x"), ModelError);
    EXPECT_THROW(requireInRange(-0.5, 0.0, 1.0, "x"), ModelError);
    EXPECT_THROW(requireInRange(std::nan(""), 0.0, 1.0, "x"), ModelError);
}

TEST(Validate, FiniteRejectsNanAndInf)
{
    EXPECT_THROW(requireFinite(std::nan(""), "x"), ModelError);
    EXPECT_THROW(requireFinite(1e301, "x"), ModelError);
    EXPECT_DOUBLE_EQ(requireFinite(42.0, "x"), 42.0);
}

TEST(Errors, InfeasibleIsAModelError)
{
    EXPECT_THROW(throw InfeasibleError("t/w too low"), ModelError);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.nextU64() == b.nextU64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInHalfOpenUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeAndMean)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform(2.0, 4.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 4.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(99);
    Rng child = parent.fork();
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 32; ++i) {
        seen.insert(parent.nextU64());
        seen.insert(child.nextU64());
    }
    EXPECT_EQ(seen.size(), 64u);
}

TEST(Strings, StrFormat)
{
    EXPECT_EQ(strFormat("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strFormat("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strFormat("empty"), "empty");
}

TEST(Strings, TrimmedNumber)
{
    EXPECT_EQ(trimmedNumber(3.0), "3");
    EXPECT_EQ(trimmedNumber(2.130, 3), "2.13");
    EXPECT_EQ(trimmedNumber(0.5), "0.5");
    EXPECT_EQ(trimmedNumber(-1.250, 3), "-1.25");
}

TEST(Strings, ShortestNumberRoundTrips)
{
    EXPECT_EQ(shortestNumber(0.1), "0.1");
    EXPECT_EQ(shortestNumber(-1e-320), "-1e-320");
    EXPECT_EQ(shortestNumber(1000.0), "1000");
    EXPECT_EQ(shortestNumber(1e308), "1e+308");
    for (const double value : {0.1, 1.0 / 3.0, 5e-324, 1.7e308})
        EXPECT_EQ(std::strtod(shortestNumber(value).c_str(), nullptr),
                  value);
}

TEST(Strings, JoinPadTrim)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("xyz", 2), "xyz");
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(toLower("DroNet"), "dronet");
}

TEST(Strings, SplitAndTrim)
{
    const auto parts = splitAndTrim(" a , b ,c ", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, ParseAssignmentsSkipsCommentsAndTrims)
{
    const auto parsed = parseAssignments(
        "# comment\n\n  Sweep_Samples =  21  \nlabel = a = b\n=x\n");
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0].key, "sweep_samples");
    EXPECT_EQ(parsed[0].value, "21");
    // Split at the first '='; the value keeps its case.
    EXPECT_EQ(parsed[1].key, "label");
    EXPECT_EQ(parsed[1].value, "a = b");
    EXPECT_EQ(parsed[2].key, "");
    EXPECT_EQ(parsed[2].value, "x");
    EXPECT_TRUE(parseAssignments(" \n# only a comment").empty());

    try {
        parseAssignments("a = 1\n no equals ");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("'no equals'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Strings, EditDistance)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("", "abc"), 3u);
    EXPECT_EQ(editDistance("fig09", "fig09"), 0u);
    EXPECT_EQ(editDistance("fig9", "fig09"), 1u);   // insertion
    EXPECT_EQ(editDistance("fig09", "fig05"), 1u);  // substitution
    EXPECT_EQ(editDistance("roofline", "rofline"), 1u); // deletion
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
}

TEST(Strings, ClosestMatches)
{
    const std::vector<std::string> studies = {
        "fig02", "fig04", "fig05", "roofline", "sweep", "table2"};

    // Prefix matches come first, in candidate order.
    const auto prefixed = closestMatches("fig", studies);
    ASSERT_EQ(prefixed.size(), 3u);
    EXPECT_EQ(prefixed[0], "fig02");
    EXPECT_EQ(prefixed[2], "fig05");

    // Near misses rank by edit distance.
    const auto typo = closestMatches("rofline", studies);
    ASSERT_FALSE(typo.empty());
    EXPECT_EQ(typo[0], "roofline");

    const auto sweeps = closestMatches("sweeep", studies);
    ASSERT_FALSE(sweeps.empty());
    EXPECT_EQ(sweeps[0], "sweep");

    // Nothing plausibly close: empty, not noise.
    EXPECT_TRUE(closestMatches("quaternion", studies).empty());
}

TEST(TextTable, RendersAlignedRows)
{
    TextTable table({"UAV", "v (m/s)"});
    table.addRow({"UAV-A", "2.13"});
    table.addRow({"UAV-B", "1.5"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| UAV-A | 2.13    |"), std::string::npos);
    EXPECT_NE(out.find("|-------|---------|"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTable, RejectsArityMismatchAndEmptyHeader)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), ModelError);
    EXPECT_THROW(TextTable({}), ModelError);
}

} // namespace
