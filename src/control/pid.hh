/**
 * @file
 * PID controller (paper Section II-D).
 *
 * The flight controller's inner loop is realized with PID control.
 * The validation simulator uses this controller for velocity
 * tracking during the dash-and-stop experiments.
 */

#ifndef UAVF1_CONTROL_PID_HH
#define UAVF1_CONTROL_PID_HH

namespace uavf1::control {

/**
 * A discrete PID controller with output saturation and
 * anti-windup (integration is frozen while the output saturates).
 */
class Pid
{
  public:
    /** Gains and saturation limits. */
    struct Gains
    {
        double kp = 1.0;        ///< Proportional gain.
        double ki = 0.0;        ///< Integral gain.
        double kd = 0.0;        ///< Derivative gain.
        double outputMin = -1.0; ///< Lower saturation bound.
        double outputMax = 1.0;  ///< Upper saturation bound.
    };

    /** Construct with gains; outputMin must be < outputMax. */
    explicit Pid(const Gains &gains);

    /**
     * Advance one control step.
     *
     * @param error setpoint minus measurement
     * @param dt timestep in seconds; must be positive
     * @return saturated control output
     */
    double step(double error, double dt);

    /** step() for a dt the caller checked positive (the flight
     * simulator checks it once per trial). */
    double stepUnchecked(double error, double dt)
    {
        const double derivative =
            _hasPrevious ? (error - _previousError) / dt : 0.0;
        _previousError = error;
        _hasPrevious = true;

        const double tentative_integral = _integral + error * dt;
        double output = _gains.kp * error +
                        _gains.ki * tentative_integral +
                        _gains.kd * derivative;

        if (output > _gains.outputMax) {
            output = _gains.outputMax;
        } else if (output < _gains.outputMin) {
            output = _gains.outputMin;
        } else {
            // Anti-windup: only integrate while unsaturated.
            _integral = tentative_integral;
        }
        return output;
    }

    /** Clear the integral and derivative history. */
    void reset();

    /** Accumulated integral term (for tests). */
    double integral() const { return _integral; }

  private:
    Gains _gains;
    double _integral = 0.0;
    double _previousError = 0.0;
    bool _hasPrevious = false;
};

} // namespace uavf1::control

#endif // UAVF1_CONTROL_PID_HH
