/**
 * @file
 * Pid implementation.
 */

#include "control/pid.hh"

#include "support/errors.hh"
#include "support/validate.hh"

namespace uavf1::control {

Pid::Pid(const Gains &gains) : _gains(gains)
{
    if (!(_gains.outputMin < _gains.outputMax))
        throw ModelError("PID outputMin must be below outputMax");
}

double
Pid::step(double error, double dt)
{
    requirePositive(dt, "dt");
    return stepUnchecked(error, dt);
}

void
Pid::reset()
{
    _integral = 0.0;
    _previousError = 0.0;
    _hasPrevious = false;
}

} // namespace uavf1::control
