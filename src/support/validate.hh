/**
 * @file
 * Argument validation helpers that raise ModelError with a useful
 * message naming the offending parameter.
 *
 * The name is taken as a std::string_view so a passing check (the
 * common case, several per flight-sim step) builds no string; the
 * message is only assembled on the throw path.
 */

#ifndef UAVF1_SUPPORT_VALIDATE_HH
#define UAVF1_SUPPORT_VALIDATE_HH

#include <string>
#include <string_view>

#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1 {

/** Require value > 0, else throw ModelError naming the parameter. */
inline double
requirePositive(double value, std::string_view name)
{
    if (!(value > 0.0)) {
        throw ModelError(std::string(name) + " must be positive, got " +
                         shortestNumber(value));
    }
    return value;
}

/** Require value >= 0, else throw ModelError naming the parameter. */
inline double
requireNonNegative(double value, std::string_view name)
{
    if (value < 0.0) {
        throw ModelError(std::string(name) +
                         " must be non-negative, got " +
                         shortestNumber(value));
    }
    return value;
}

/** Require lo <= value <= hi (so not NaN), else throw ModelError. */
inline double
requireInRange(double value, double lo, double hi, std::string_view name)
{
    if (!(value >= lo && value <= hi)) {
        throw ModelError(std::string(name) + " must be in [" +
                         shortestNumber(lo) + ", " + shortestNumber(hi) +
                         "], got " + shortestNumber(value));
    }
    return value;
}

/** Require a finite value, else throw ModelError. */
inline double
requireFinite(double value, std::string_view name)
{
    if (!(value == value) || value > 1e300 || value < -1e300)
        throw ModelError(std::string(name) + " must be finite");
    return value;
}

} // namespace uavf1

#endif // UAVF1_SUPPORT_VALIDATE_HH
