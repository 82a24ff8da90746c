/**
 * @file
 * Fixed-size worker thread pool for the parallel sweep engine.
 *
 * Every hot evaluation loop in the library (Monte-Carlo uncertainty,
 * design-space sweeps, the figure studies) is data-parallel over
 * independent samples, so one shared pool is enough. A pool of size N
 * represents N-way parallelism *including the calling thread*: it
 * spawns N-1 workers and the caller always participates in
 * parallelFor, so `ThreadPool(1)` degenerates to plain serial
 * execution with no threads at all. That makes "run this sweep at 1,
 * 2 and 8 threads" a pure configuration change, which the
 * determinism tests exploit.
 *
 * Tasks are plain fire-and-forget closures: the pool never blocks a
 * worker on another task. parallelFor builds nesting on top of that
 * (a loop started from a worker offers helper tasks to the idle
 * workers and waits only for those that actually joined), so a
 * nested loop can never deadlock the pool.
 */

#ifndef UAVF1_EXEC_THREAD_POOL_HH
#define UAVF1_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace uavf1::exec {

/**
 * A fixed set of worker threads draining a task queue.
 */
class ThreadPool
{
  public:
    /**
     * @param threads total parallelism including the caller (>= 1);
     *        the pool spawns threads-1 workers
     */
    explicit ThreadPool(std::size_t threads);

    /** Joins all workers; pending tasks are still executed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + the calling thread). */
    std::size_t threadCount() const { return _workers.size() + 1; }

    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    /**
     * The process-wide pool, sized from the UAVF1_THREADS environment
     * variable when set, else from std::thread::hardware_concurrency.
     */
    static ThreadPool &global();

    /**
     * The size global() would pick (env override or hardware).
     * A non-numeric, zero, or negative UAVF1_THREADS raises
     * ModelError; absurdly large values are clamped to 1024 with a
     * warning on stderr.
     */
    static std::size_t defaultThreadCount();

  private:
    void workerLoop();

    std::vector<std::thread> _workers;
    std::queue<std::function<void()>> _tasks;
    mutable std::mutex _mutex;
    std::condition_variable _wake;
    bool _stop = false;
};

} // namespace uavf1::exec

#endif // UAVF1_EXEC_THREAD_POOL_HH
