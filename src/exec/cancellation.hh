/**
 * @file
 * Cooperative cancellation for the parallel sweep engine.
 *
 * A CancellationToken combines a shared cancel flag (so one token
 * can fan out to many loops — a batch runner cancelling every
 * in-flight scenario under --fail-fast) with an optional per-copy
 * deadline (a scenario's time budget). parallelFor checks the token
 * at every chunk boundary on both the serial and the parallel path,
 * so cancellation points line up with the determinism grain: a loop
 * either completes with bit-identical results or throws, never a
 * mixture.
 *
 * The default-constructed token is inert: no flag, no deadline,
 * and checkpoint() compiles down to two branches — hot loops pay
 * nothing unless a caller actually arms a token.
 */

#ifndef UAVF1_EXEC_CANCELLATION_HH
#define UAVF1_EXEC_CANCELLATION_HH

#include <atomic>
#include <chrono>
#include <memory>

#include "support/errors.hh"

namespace uavf1::exec {

/**
 * A copyable handle on a shared cancel flag plus an optional
 * deadline. Copies share the flag (requestCancel on any copy is
 * visible to all) but carry their own deadline, so a batch token
 * specializes into per-scenario tokens via withDeadlineAfter().
 */
class CancellationToken
{
  public:
    /** Inert token: never cancelled, no deadline. */
    CancellationToken() = default;

    /** A fresh armable token with its own shared flag. */
    static CancellationToken create()
    {
        CancellationToken token;
        token._flag = std::make_shared<std::atomic<bool>>(false);
        return token;
    }

    /**
     * Copy of this token whose deadline is `budget` from now. The
     * cancel flag stays shared with the source (an inert source
     * yields a deadline-only token); a non-positive budget yields a
     * plain copy with no deadline. A budget past the clock's range
     * saturates at time_point::max(), which never expires.
     */
    CancellationToken
    withDeadlineAfter(std::chrono::milliseconds budget) const
    {
        using Clock = std::chrono::steady_clock;
        CancellationToken token = *this;
        if (budget.count() > 0) {
            const Clock::time_point now = Clock::now();
            // Compare in milliseconds: converting a huge budget to
            // the clock's nanoseconds would itself overflow.
            const auto headroom =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::time_point::max() - now);
            token._deadline = budget < headroom
                                  ? now + budget
                                  : Clock::time_point::max();
            token._hasDeadline = true;
        }
        return token;
    }

    /** Request cancellation; visible to every copy sharing the
     * flag. No-op on an inert token. */
    void requestCancel() const
    {
        if (_flag)
            _flag->store(true, std::memory_order_relaxed);
    }

    /** True when requestCancel was called on any sharing copy. */
    bool cancelRequested() const
    {
        return _flag && _flag->load(std::memory_order_relaxed);
    }

    /** True when this copy carries a deadline that has passed. */
    bool deadlineExpired() const
    {
        return _hasDeadline &&
               std::chrono::steady_clock::now() >= _deadline;
    }

    /** True when checkpoints can ever fire (flag or deadline). */
    bool armed() const { return _flag != nullptr || _hasDeadline; }

    /**
     * Cancellation point: throws when the token fired. The deadline
     * is checked first so a timed-out scenario reports TimeoutError
     * even if a batch-wide cancel raced in behind it.
     *
     * @throws TimeoutError when the deadline has passed
     * @throws CancelledError when cancellation was requested
     */
    void checkpoint() const
    {
        if (deadlineExpired())
            throw TimeoutError("deadline exceeded");
        if (cancelRequested())
            throw CancelledError("cancelled");
    }

  private:
    std::shared_ptr<std::atomic<bool>> _flag;
    std::chrono::steady_clock::time_point _deadline{};
    bool _hasDeadline = false;
};

} // namespace uavf1::exec

#endif // UAVF1_EXEC_CANCELLATION_HH
