/**
 * @file
 * parallelFor implementation.
 */

#include "exec/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

namespace uavf1::exec {

namespace {

#ifdef __cpp_lib_hardware_interference_size
constexpr std::size_t cacheLine =
    std::hardware_destructive_interference_size;
#else
constexpr std::size_t cacheLine = 64;
#endif

/** State shared between the caller and its helper tasks. */
struct LoopState
{
    std::size_t count = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        *body = nullptr;
    CancellationToken cancel;
    /** Chunk cursor, alone on its cache line: every participant
     * hammers it with fetch_add, so co-locating it with the
     * read-mostly fields above (or the failure latch below) would
     * false-share and serialize the very loop this class fans
     * out. */
    alignas(cacheLine) std::atomic<std::size_t> cursor{0};
    /** Failure latch on its own line for the same reason: it is
     * read at every chunk boundary by every participant. */
    alignas(cacheLine) std::atomic<bool> failed{false};
    std::exception_ptr error;
    /** Taken after the pool's lock, never before it. */
    std::mutex mutex;
    /** Set by the caller once it has drained; helpers that start
     * after this return without touching the loop. */
    bool closed = false;
    /** Helpers that registered before `closed` and are draining. */
    std::size_t activeHelpers = 0;

    /** Helper-task body: register, drain, deregister. A helper that
     * starts late (its loop already closed, its body possibly gone)
     * does nothing, so the caller never waits on a queued task —
     * only on threads already running its chunks. The pool wakes
     * the waiting caller when this task returns. */
    void help(std::size_t slot)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (closed)
                return;
            ++activeHelpers;
        }
        drain(slot);
        std::lock_guard<std::mutex> lock(mutex);
        --activeHelpers;
    }

    /** Pull and run chunks until the cursor runs out. */
    void drain(std::size_t slot)
    {
        for (;;) {
            const std::size_t chunk =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= chunks || failed.load())
                return;
            const std::size_t begin = chunk * grain;
            const std::size_t end =
                std::min(count, begin + grain);
            try {
                // Captured like a body exception so the first
                // token firing is rethrown on the caller.
                cancel.checkpoint();
                (*body)(slot, begin, end);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true);
            }
        }
    }
};

/** Shared engine behind parallelFor / parallelForSlots. */
void
runLoop(std::size_t count,
        const std::function<void(std::size_t, std::size_t,
                                 std::size_t)> &body,
        const ParallelOptions &options)
{
    if (count == 0)
        return;

    ThreadPool &pool =
        options.pool ? *options.pool : ThreadPool::global();

    const std::size_t grain = std::max<std::size_t>(1, options.grain);
    const std::size_t chunks = (count + grain - 1) / grain;

    const std::size_t participants =
        std::min(pool.threadCount(), chunks);

    // Serial fast path: a one-thread budget or a single chunk. Still
    // walks the same chunk boundaries as the parallel path so
    // callers keying state by chunk see identical geometry at every
    // thread count.
    if (participants <= 1) {
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
            options.cancel.checkpoint();
            const std::size_t begin = chunk * grain;
            body(0, begin, std::min(count, begin + grain));
        }
        return;
    }

    auto state = std::make_shared<LoopState>();
    state->count = count;
    state->grain = grain;
    state->chunks = chunks;
    state->body = &body;
    state->cancel = options.cancel;

    // Offer helper tasks to the pool. Whoever picks one up joins the
    // drain; the caller drains too, so the loop finishes even when
    // every worker is busy — including when the caller is itself a
    // worker running a chunk of an outer loop.
    for (std::size_t i = 0; i + 1 < participants; ++i) {
        const std::size_t slot = i + 1;
        pool.submit([state, slot] { state->help(slot); });
    }

    state->drain(0);

    // Close the loop so late helpers stand down. Until the helpers
    // still running chunks have left, run queued pool tasks (other
    // loops' helpers, such as those of a loop nested in one of
    // this loop's chunks) instead of sleeping.
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->closed = true;
    }
    pool.helpUntil([&] {
        std::lock_guard<std::mutex> lock(state->mutex);
        return state->activeHelpers == 0;
    });
    // Take the error out of the shared state: a worker may drop the
    // last reference to the state later, and the exception must not
    // be released there while the caller's handler still reads it.
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        error = std::exchange(state->error, {});
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace

void
parallelFor(std::size_t count,
            const std::function<void(std::size_t, std::size_t)> &body,
            const ParallelOptions &options)
{
    runLoop(
        count,
        [&body](std::size_t, std::size_t begin, std::size_t end) {
            body(begin, end);
        },
        options);
}

std::size_t
maxSlots(const ParallelOptions &options)
{
    ThreadPool &pool =
        options.pool ? *options.pool : ThreadPool::global();
    return pool.threadCount();
}

void
parallelForSlots(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &body,
    const ParallelOptions &options)
{
    runLoop(count, body, options);
}

std::size_t
suggestedGrain(std::size_t count, double ns_per_index)
{
    if (count == 0)
        return 1;
    // ~100 us chunks: small enough that dynamic chunk-stealing
    // still balances skewed workloads, large enough that the cursor
    // bump is amortized to < 0.1%.
    constexpr double target_ns = 100000.0;
    if (!(ns_per_index > 0.0))
        return count;
    const double indices = target_ns / ns_per_index;
    if (indices <= 1.0)
        return 1;
    if (indices >= static_cast<double>(count))
        return count;
    return static_cast<std::size_t>(indices);
}

} // namespace uavf1::exec
