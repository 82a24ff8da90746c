/**
 * @file
 * Pid implementation.
 */

#include "control/pid.hh"

#include "support/errors.hh"

namespace uavf1::control {

Pid::Pid(const Gains &gains) : _gains(gains)
{
    if (!(_gains.outputMin < _gains.outputMax))
        throw ModelError("PID outputMin must be below outputMax");
}

} // namespace uavf1::control
