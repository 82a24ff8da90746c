/**
 * @file
 * StudyParams / StudyRegistry implementation.
 */

#include "scenario/study.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1::scenario {

namespace {

std::string
canonicalKey(const std::string &name)
{
    return toLower(trim(name));
}

} // namespace

void
StudyParams::set(const std::string &name, const std::string &value)
{
    const std::string key = canonicalKey(name);
    if (key.empty())
        throw ModelError("parameter name must not be empty");
    for (auto &entry : _entries) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    _entries.emplace_back(key, value);
}

bool
StudyParams::has(const std::string &name) const
{
    const std::string key = canonicalKey(name);
    for (const auto &entry : _entries) {
        if (entry.first == key)
            return true;
    }
    return false;
}

std::string
StudyParams::get(const std::string &name,
                 const std::string &fallback) const
{
    const std::string key = canonicalKey(name);
    for (const auto &entry : _entries) {
        if (entry.first == key)
            return entry.second;
    }
    return fallback;
}

double
StudyParams::getNumber(const std::string &name, double fallback) const
{
    if (!has(name))
        return fallback;
    const std::string value = trim(get(name));
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || (end && *end != '\0') ||
        !std::isfinite(parsed)) {
        throw ModelError("parameter '" + canonicalKey(name) +
                         "' expects a finite number, got '" + value +
                         "'");
    }
    return parsed;
}

double
StudyParams::getInteger(const std::string &name, double min,
                        double max, const char *expects) const
{
    // Bound before any cast: beyond 2^53 a double no longer holds
    // every integer, and beyond the target type's range the cast is
    // undefined.
    constexpr double max_exact = 9007199254740992.0; // 2^53
    max = std::min(max, max_exact);
    const double parsed = getNumber(name, 0.0);
    if (parsed < min || parsed > max || parsed != std::floor(parsed)) {
        throw ModelError("parameter '" + canonicalKey(name) +
                         "' expects " + expects + " no larger than " +
                         std::to_string(static_cast<std::uint64_t>(max)) +
                         ", got '" + get(name) + "'");
    }
    return parsed;
}

std::size_t
StudyParams::getCount(const std::string &name, std::size_t fallback,
                      std::size_t max) const
{
    if (!has(name))
        return fallback;
    return static_cast<std::size_t>(getInteger(
        name, 1.0, static_cast<double>(max), "a positive integer"));
}

std::uint64_t
StudyParams::getUnsigned(const std::string &name,
                         std::uint64_t fallback) const
{
    if (!has(name))
        return fallback;
    return static_cast<std::uint64_t>(getInteger(
        name, 0.0,
        static_cast<double>(std::numeric_limits<std::uint64_t>::max()),
        "a non-negative integer"));
}

StudyResult &
StudyResult::addMetric(const std::string &name, double value,
                       const std::string &unit,
                       std::optional<PaperReference> paper)
{
    metrics.push_back({name, value, unit, std::move(paper)});
    return *this;
}

double
StudyResult::metric(const std::string &name) const
{
    for (const auto &entry : metrics) {
        if (entry.name == name)
            return entry.value;
    }
    throw ModelError("no metric '" + name + "'");
}

void
StudyRegistry::add(StudyInfo info)
{
    info.name = canonicalKey(info.name);
    if (info.name.empty())
        throw ModelError("study name must not be empty");
    if (!info.run)
        throw ModelError("study '" + info.name +
                         "' has no run function");
    if (contains(info.name))
        throw ModelError("study '" + info.name +
                         "' is already registered");
    _studies.push_back(std::move(info));
}

bool
StudyRegistry::contains(const std::string &name) const
{
    const std::string key = canonicalKey(name);
    for (const auto &study : _studies) {
        if (study.name == key)
            return true;
    }
    return false;
}

const StudyInfo &
StudyRegistry::find(const std::string &name) const
{
    const std::string key = canonicalKey(name);
    for (const auto &study : _studies) {
        if (study.name == key)
            return study;
    }
    std::string message = "unknown study '" + name + "'";
    const auto suggestions = closestMatches(key, names());
    if (!suggestions.empty())
        message += "; did you mean: " + join(suggestions, ", ") + "?";
    throw ModelError(message + " (studies: " + join(names(), ", ") +
                     ")");
}

std::vector<std::string>
StudyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(_studies.size());
    for (const auto &study : _studies)
        out.push_back(study.name);
    return out;
}

StudyRegistry &
StudyRegistry::global()
{
    static StudyRegistry *registry = [] {
        auto *r = new StudyRegistry();
        detail::registerBuiltinStudies(*r);
        return r;
    }();
    return *registry;
}

} // namespace uavf1::scenario
