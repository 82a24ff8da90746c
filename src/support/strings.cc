/**
 * @file
 * String helper implementations.
 */

#include "support/strings.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <numeric>
#include <utility>

#include "support/errors.hh"

namespace uavf1 {

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args_copy);
        out.resize(static_cast<std::size_t>(needed));
    }
    va_end(args_copy);
    return out;
}

std::string
trimmedNumber(double value, int precision)
{
    std::string s = strFormat("%.*f", precision, value);
    if (s.find('.') == std::string::npos)
        return s;
    while (!s.empty() && s.back() == '0')
        s.pop_back();
    if (!s.empty() && s.back() == '.')
        s.pop_back();
    return s;
}

std::string
shortestNumber(double value)
{
    char buffer[32];
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, result.ptr);
}

std::string
escapeXml(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          case '\'':
            out += "&apos;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
join(const std::vector<std::string> &pieces, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
toLower(std::string s)
{
    for (auto &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1]))) {
        --end;
    }
    return s.substr(begin, end - begin);
}

std::vector<std::string>
splitAndTrim(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : s) {
        if (c == delim) {
            out.push_back(trim(current));
            current.clear();
        } else {
            current += c;
        }
    }
    out.push_back(trim(current));
    return out;
}

std::vector<Assignment>
parseAssignments(const std::string &text)
{
    std::vector<Assignment> out;
    for (const auto &line : splitAndTrim(text, '\n')) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            throw ModelError("malformed assignment '" + line +
                             "' (expected 'key = value')");
        }
        out.push_back({toLower(trim(line.substr(0, eq))),
                       trim(line.substr(eq + 1))});
    }
    return out;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Classic two-row Levenshtein DP.
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> curr(b.size() + 1);
    std::iota(prev.begin(), prev.end(), std::size_t{0});
    for (std::size_t i = 1; i <= a.size(); ++i) {
        curr[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t substitute =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1,
                                substitute});
        }
        std::swap(prev, curr);
    }
    return prev[b.size()];
}

std::vector<std::string>
closestMatches(const std::string &query,
               const std::vector<std::string> &candidates,
               std::size_t max_results)
{
    std::vector<std::string> out;
    // Prefix matches are the strongest signal ("fig" -> fig02...).
    for (const auto &candidate : candidates) {
        if (out.size() >= max_results)
            return out;
        if (!query.empty() &&
            candidate.compare(0, query.size(), query) == 0) {
            out.push_back(candidate);
        }
    }
    // Then near misses by ascending edit distance, stably so equal
    // distances keep candidate order.
    const std::size_t cutoff =
        std::max<std::size_t>(2, query.size() / 3);
    std::vector<std::pair<std::size_t, std::string>> near;
    for (const auto &candidate : candidates) {
        if (std::find(out.begin(), out.end(), candidate) !=
            out.end()) {
            continue;
        }
        const std::size_t distance = editDistance(query, candidate);
        if (distance <= cutoff)
            near.emplace_back(distance, candidate);
    }
    std::stable_sort(near.begin(), near.end(),
                     [](const auto &x, const auto &y) {
                         return x.first < y.first;
                     });
    for (auto &entry : near) {
        if (out.size() >= max_results)
            break;
        out.push_back(std::move(entry.second));
    }
    return out;
}

} // namespace uavf1
