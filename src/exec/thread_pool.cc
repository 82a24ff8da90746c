/**
 * @file
 * ThreadPool implementation.
 */

#include "exec/thread_pool.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/errors.hh"

namespace uavf1::exec {

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads < 1)
        throw ModelError("thread pool requires at least one thread");
    _workers.reserve(threads - 1);
    for (std::size_t i = 0; i + 1 < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _wake.notify_all();
    for (auto &worker : _workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _tasks.push(std::move(task));
    }
    _wake.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock,
                       [this] { return _stop || !_tasks.empty(); });
            if (_tasks.empty())
                return; // _stop and drained.
            task = std::move(_tasks.front());
            _tasks.pop();
        }
        task();
    }
}

std::size_t
ThreadPool::defaultThreadCount()
{
    // More threads than this is never a sweep-engine win on any
    // machine we model for; treat larger requests as typos and clamp.
    constexpr long max_threads = 1024;

    if (const char *env = std::getenv("UAVF1_THREADS")) {
        char *end = nullptr;
        errno = 0;
        const long parsed = std::strtol(env, &end, 10);
        if (end == env || *end != '\0') {
            throw ModelError(
                "UAVF1_THREADS must be a positive integer, got '" +
                std::string(env) + "'");
        }
        if (errno == ERANGE || parsed > max_threads) {
            std::fprintf(stderr,
                         "uavf1: UAVF1_THREADS=%s clamped to %ld\n",
                         env, max_threads);
            return static_cast<std::size_t>(max_threads);
        }
        if (parsed < 1) {
            throw ModelError(
                "UAVF1_THREADS must be a positive integer, got '" +
                std::string(env) + "'");
        }
        return static_cast<std::size_t>(parsed);
    }
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

} // namespace uavf1::exec
