/**
 * @file
 * Unit tests for the control library: PID behaviour and flight
 * controller presets.
 */

#include <gtest/gtest.h>

#include "control/flight_controller.hh"
#include "control/pid.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;
using namespace uavf1::control;

TEST(Pid, ProportionalOnly)
{
    Pid pid({.kp = 2.0, .ki = 0.0, .kd = 0.0,
             .outputMin = -100.0, .outputMax = 100.0});
    EXPECT_DOUBLE_EQ(pid.stepUnchecked(3.0, 0.01), 6.0);
    EXPECT_DOUBLE_EQ(pid.stepUnchecked(-1.0, 0.01), -2.0);
}

TEST(Pid, IntegralAccumulates)
{
    Pid pid({.kp = 0.0, .ki = 1.0, .kd = 0.0,
             .outputMin = -100.0, .outputMax = 100.0});
    pid.stepUnchecked(1.0, 0.5);
    pid.stepUnchecked(1.0, 0.5);
    EXPECT_DOUBLE_EQ(pid.integral(), 1.0);
    EXPECT_DOUBLE_EQ(pid.stepUnchecked(0.0, 0.5), 1.0);
}

TEST(Pid, DerivativeRespondsToErrorChange)
{
    Pid pid({.kp = 0.0, .ki = 0.0, .kd = 1.0,
             .outputMin = -100.0, .outputMax = 100.0});
    // First step has no history: derivative term is zero.
    EXPECT_DOUBLE_EQ(pid.stepUnchecked(1.0, 0.1), 0.0);
    // Error rose by 1 over 0.1 s -> derivative 10.
    EXPECT_DOUBLE_EQ(pid.stepUnchecked(2.0, 0.1), 10.0);
}

TEST(Pid, OutputSaturates)
{
    Pid pid({.kp = 10.0, .ki = 0.0, .kd = 0.0,
             .outputMin = -1.0, .outputMax = 1.0});
    EXPECT_DOUBLE_EQ(pid.stepUnchecked(100.0, 0.01), 1.0);
    EXPECT_DOUBLE_EQ(pid.stepUnchecked(-100.0, 0.01), -1.0);
}

TEST(Pid, AntiWindupFreezesIntegralWhileSaturated)
{
    Pid pid({.kp = 0.0, .ki = 1.0, .kd = 0.0,
             .outputMin = -1.0, .outputMax = 1.0});
    // Saturate hard for many steps.
    for (int i = 0; i < 100; ++i)
        pid.stepUnchecked(10.0, 1.0);
    // Without anti-windup the integral would be ~1000; with it, the
    // integral stops growing once the output saturates.
    EXPECT_LE(pid.integral(), 1.0 + 1e-12);
    // Recovery is immediate once the error flips.
    const double out = pid.stepUnchecked(-1.5, 1.0);
    EXPECT_LT(out, 1.0);
}

TEST(Pid, ClosedLoopConvergesOnFirstOrderPlant)
{
    // Plant: velocity with direct acceleration input.
    Pid pid({.kp = 2.0, .ki = 0.5, .kd = 0.0,
             .outputMin = -5.0, .outputMax = 5.0});
    double v = 0.0;
    const double target = 2.0;
    const double dt = 0.01;
    for (int i = 0; i < 2000; ++i) {
        const double a = pid.stepUnchecked(target - v, dt);
        v += a * dt;
    }
    EXPECT_NEAR(v, target, 0.01);
}

TEST(Pid, RejectsBadConfig)
{
    EXPECT_THROW(Pid({.kp = 1.0, .ki = 0.0, .kd = 0.0,
                      .outputMin = 1.0, .outputMax = -1.0}),
                 ModelError);
}

TEST(FlightController, Presets)
{
    const FlightController generic = FlightController::typical1kHz();
    EXPECT_DOUBLE_EQ(generic.loopRate().value(), 1000.0);
    EXPECT_NEAR(generic.latency().value(), 0.001, 1e-15);
}

TEST(FlightController, RejectsBadArguments)
{
    EXPECT_THROW(FlightController("fc", units::Hertz(0.0),
                                  units::Grams(10.0)),
                 ModelError);
    EXPECT_THROW(FlightController("fc", units::Hertz(1000.0),
                                  units::Grams(-1.0)),
                 ModelError);
}

} // namespace
