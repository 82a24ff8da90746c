/**
 * @file
 * Small string helpers shared by reports, tables and chart labels.
 */

#ifndef UAVF1_SUPPORT_STRINGS_HH
#define UAVF1_SUPPORT_STRINGS_HH

#include <string>
#include <vector>

namespace uavf1 {

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Format a double with the given precision, trimming trailing
 * zeros ("2.130" -> "2.13", "3.000" -> "3"). */
std::string trimmedNumber(double value, int precision = 3);

/** The shortest text that reads back as exactly `value` ("0.1",
 * "-1e-320", "1e+308", "nan"). */
std::string shortestNumber(double value);

/** Escape the five XML/HTML special characters. */
std::string escapeXml(const std::string &text);

/** Join pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &sep);

/** Left-pad / right-pad a string to a width with spaces. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad a string to a width with spaces. */
std::string padRight(const std::string &s, std::size_t width);

/** Lower-case ASCII copy. */
std::string toLower(std::string s);

/** Split on a delimiter, trimming surrounding whitespace. */
std::vector<std::string> splitAndTrim(const std::string &s, char delim);

/** Strip leading/trailing whitespace. */
std::string trim(const std::string &s);

/** One `key = value` assignment. */
struct Assignment
{
    std::string key;   ///< Trimmed and lower-cased.
    std::string value; ///< Trimmed.
};

/**
 * Parse the `key = value` grammar that scenario specs, session
 * configs and the CLI's --set share: one assignment per line, split
 * at the line's first '='. Blank lines and lines starting with '#'
 * are skipped.
 *
 * @throws ModelError quoting the first line that has no '='
 */
std::vector<Assignment> parseAssignments(const std::string &text);

/** Levenshtein edit distance between two strings. */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The candidates closest to a query, for "did you mean" hints on
 * unknown names: prefix matches first (in candidate order), then
 * near misses by ascending edit distance, cut off at a distance of
 * max(2, query length / 3). Empty when nothing is plausibly close.
 */
std::vector<std::string>
closestMatches(const std::string &query,
               const std::vector<std::string> &candidates,
               std::size_t max_results = 3);

} // namespace uavf1

#endif // UAVF1_SUPPORT_STRINGS_HH
