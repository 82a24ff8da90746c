/**
 * @file
 * SplitMix64 implementation.
 */

#include "support/rng.hh"

#include <cmath>
#include <numbers>

namespace uavf1 {

double
Rng::normal()
{
    if (_haveSpare) {
        _haveSpare = false;
        return _spare;
    }
    // Box-Muller; guard against log(0).
    double u1 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    _spare = r * std::sin(theta);
    _haveSpare = true;
    return r * std::cos(theta);
}

Rng
Rng::fork()
{
    // Mix the current stream into a fresh seed so substreams do not
    // overlap with the parent.
    return Rng(nextU64() ^ 0xd1b54a32d192ed03ull);
}

} // namespace uavf1
