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
    if (threads < 1 || threads > maxThreads) {
        throw ModelError("thread pool size must be in [1, " +
                         std::to_string(maxThreads) + "], got " +
                         std::to_string(threads));
    }
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
    bool helpers_asleep = false;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _tasks.push(std::move(task));
        helpers_asleep = _sleepingHelpers > 0;
    }
    _wake.notify_one();
    if (helpers_asleep)
        _helperWake.notify_all();
}

void
ThreadPool::helpUntil(const std::function<bool()> &done)
{
    std::unique_lock<std::mutex> lock(_mutex);
    while (!done()) {
        if (_tasks.empty()) {
            ++_sleepingHelpers;
            _helperWake.wait(lock,
                             [&] { return !_tasks.empty() || done(); });
            --_sleepingHelpers;
            continue;
        }
        std::function<void()> task = std::move(_tasks.front());
        _tasks.pop();
        runTask(task, lock);
    }
}

void
ThreadPool::runTask(std::function<void()> &task,
                    std::unique_lock<std::mutex> &lock)
{
    lock.unlock();
    task();
    task = nullptr;
    lock.lock();
    if (_sleepingHelpers > 0)
        _helperWake.notify_all();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        _wake.wait(lock, [this] { return _stop || !_tasks.empty(); });
        if (_tasks.empty())
            return; // _stop and drained.
        std::function<void()> task = std::move(_tasks.front());
        _tasks.pop();
        runTask(task, lock);
    }
}

std::size_t
ThreadPool::defaultThreadCount()
{
    constexpr long max_threads = static_cast<long>(maxThreads);

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
