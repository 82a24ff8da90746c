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
 * workers and waits only for those that actually joined), and a
 * thread that waits on its helpers runs queued tasks through
 * helpUntil() instead of sleeping, so a nested loop neither
 * deadlocks the pool nor idles the thread that started it.
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
    /** Largest pool size: more threads than this is never a sweep
     * engine win on any machine we model for, so a larger request is
     * taken for a typo. */
    static constexpr std::size_t maxThreads = 1024;

    /**
     * @param threads total parallelism including the caller, in
     *        [1, maxThreads]; the pool spawns threads-1 workers
     * @throws ModelError outside that range, before any thread
     *         starts
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
     * Run queued tasks on the calling thread until `done()` is true,
     * sleeping only while the queue is empty. `done` is evaluated
     * under the pool's lock, so it may take a lock of its own (the
     * order is always pool, then the caller's) but must not submit.
     * A thread that finishes a task wakes every helpUntil() caller,
     * so a state change made by a task before it returns is seen
     * without a separate notification.
     */
    void helpUntil(const std::function<bool()> &done);

    /**
     * The process-wide pool, sized from the UAVF1_THREADS environment
     * variable when set, else from std::thread::hardware_concurrency.
     */
    static ThreadPool &global();

    /**
     * The size global() would pick (env override or hardware).
     * A non-numeric, zero, or negative UAVF1_THREADS raises
     * ModelError; values above maxThreads are clamped to it with a
     * warning on stderr.
     */
    static std::size_t defaultThreadCount();

  private:
    void workerLoop();

    /** Run `task` with `lock` (on _mutex) released, then wake the
     * helpUntil() callers, if any sleep. */
    void runTask(std::function<void()> &task,
                 std::unique_lock<std::mutex> &lock);

    std::vector<std::thread> _workers;
    std::queue<std::function<void()>> _tasks;
    mutable std::mutex _mutex;
    /** Idle workers sleep here. */
    std::condition_variable _wake;
    /** helpUntil() callers sleep here, woken by a submit() and by
     * every finished task, so idle workers are not. */
    std::condition_variable _helperWake;
    /** helpUntil() callers asleep on _helperWake. */
    std::size_t _sleepingHelpers = 0;
    bool _stop = false;
};

} // namespace uavf1::exec

#endif // UAVF1_EXEC_THREAD_POOL_HH
