/**
 * @file
 * Shared plumbing of the layered benchmark.
 */

#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    _entries.push_back({name, value, unit});
}

bool
Ledger::record(bool ok, const std::string &what)
{
    ++_attempted;
    if (!ok) {
        ++_failed;
        std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
    return ok;
}

} // namespace perfbench
