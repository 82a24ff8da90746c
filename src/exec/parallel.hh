/**
 * @file
 * Deterministic data-parallel loops on top of ThreadPool.
 *
 * The contract every caller relies on:
 *
 *  - The index space [0, count) is split into *statically sized*
 *    chunks whose boundaries depend only on `count` and
 *    `ParallelOptions::grain` — never on the thread count. Chunks
 *    are handed to threads dynamically (an atomic cursor), but each
 *    chunk always covers the same indices.
 *  - Each index is visited exactly once, and all writes made by the
 *    body are visible to the caller when parallelFor returns.
 *  - Because per-index state (output slots, forked RNG substreams)
 *    is keyed by chunk/index and not by thread, results are
 *    bit-identical for any thread count, including 1.
 *  - The first exception thrown by the body is rethrown on the
 *    calling thread; remaining chunks are abandoned best-effort.
 *  - Nested invocations (a body that calls parallelFor on the same
 *    pool) fan out to whichever workers are idle. The calling
 *    thread always drains chunks itself, and it waits only for
 *    helpers that joined before it finished draining; a helper that
 *    starts later finds the loop closed and returns. While it
 *    waits, the caller runs queued pool tasks (ThreadPool::
 *    helpUntil), so a thread whose chunks are done joins a loop
 *    nested in a chunk still running elsewhere. Every queued task
 *    is a helper that drains a finite cursor or returns at once, and
 *    a waiter only ever waits on threads that are running its
 *    chunks, so nesting cannot deadlock at any depth, and chunk
 *    geometry (hence every result) is the same as unnested.
 *  - Never start a loop while holding a lock, or from inside a
 *    static initializer: the waiting caller may run any queued
 *    task, and one that needs that lock or that static would wait
 *    on its own thread.
 */

#ifndef UAVF1_EXEC_PARALLEL_HH
#define UAVF1_EXEC_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "exec/cancellation.hh"
#include "exec/thread_pool.hh"

namespace uavf1::exec {

/** Tuning knobs for parallelFor / parallelMap. */
struct ParallelOptions
{
    /** Pool to run on; nullptr means ThreadPool::global(). */
    ThreadPool *pool = nullptr;
    /** Minimum indices per chunk (chunk geometry, so it also pins
     * the determinism granularity of chunk-keyed state). */
    std::size_t grain = 1;
    /** Cooperative cancellation: checked at every chunk boundary.
     * When the token fires, the loop stops dispatching chunks and
     * rethrows TimeoutError/CancelledError on the caller. The
     * default token is inert. Appended last, with a default member
     * initializer, so designated initializers may leave it out. */
    CancellationToken cancel{};
};

/**
 * Run `body(begin, end)` over disjoint subranges covering
 * [0, count). Blocks until every index is processed (or an
 * exception is rethrown).
 */
void parallelFor(std::size_t count,
                 const std::function<void(std::size_t, std::size_t)>
                     &body,
                 const ParallelOptions &options = {});

/**
 * Upper bound (inclusive of the caller) on the number of distinct
 * slot indices parallelForSlots can hand out under `options`: the
 * pool's thread count. Size per-slot scratch arenas with this
 * *before* the loop so the body never allocates.
 */
std::size_t maxSlots(const ParallelOptions &options = {});

/**
 * parallelFor with a stable *slot index* handed to the body:
 * `body(slot, begin, end)` where slot identifies the participating
 * thread (caller = 0, helpers = 1..participants-1) and is always
 * < maxSlots(options). Two chunks running concurrently never share
 * a slot, so slot-indexed scratch arenas (SoA sample buffers, tally
 * blocks) are data-race-free without locks. The slot an index lands
 * on is scheduling-dependent — keyed *state* must stay chunk-keyed
 * (the determinism contract); slots are for scratch only.
 */
void parallelForSlots(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &body,
    const ParallelOptions &options = {});

/**
 * Grain autoselect for block-sized loops: the smallest chunk size
 * that amortizes per-chunk overhead (the atomic cursor bump plus a
 * cancellation check) to noise, targeting ~100 us of work per chunk
 * at `ns_per_index` estimated index cost. Depends only on its
 * arguments — never on the thread count — so chunk geometry (and
 * with it every chunk-keyed determinism contract) stays independent
 * of the machine the loop runs on.
 */
std::size_t suggestedGrain(std::size_t count, double ns_per_index);

/**
 * Evaluate `fn(i)` for i in [0, count) and return the results in
 * index order. T must be default-constructible.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t count, Fn &&fn,
            const ParallelOptions &options = {})
{
    // vector<bool> is bit-packed: concurrent writes to adjacent
    // indices would race on the same word. Use char/int instead.
    static_assert(!std::is_same_v<T, bool>,
                  "parallelMap<bool> would race on vector<bool>'s "
                  "packed words");
    std::vector<T> out(count);
    parallelFor(
        count,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                out[i] = fn(i);
        },
        options);
    return out;
}

} // namespace uavf1::exec

#endif // UAVF1_EXEC_PARALLEL_HH
