/**
 * @file
 * Unit tests for the parallel sweep engine: chunk coverage, edge
 * cases, exception propagation, and the bit-exact determinism
 * contract that the Monte-Carlo and DSE sweeps rely on at any
 * thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "exec/cancellation.hh"

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "sim/monte_carlo.hh"
#include "studies/presets.hh"
#include "support/errors.hh"

namespace {

using namespace uavf1;

TEST(ThreadPool, RequiresAtLeastOneThread)
{
    EXPECT_THROW(exec::ThreadPool(0), ModelError);
}

TEST(ThreadPool, RejectsMoreThanMaxThreadsBeforeStartingAny)
{
    EXPECT_THROW(exec::ThreadPool(exec::ThreadPool::maxThreads + 1),
                 ModelError);
}

TEST(ThreadPool, ThreadCountIncludesTheCaller)
{
    exec::ThreadPool solo(1);
    EXPECT_EQ(solo.threadCount(), 1u);
    exec::ThreadPool quad(4);
    EXPECT_EQ(quad.threadCount(), 4u);
}

/** Sets UAVF1_THREADS for one test and restores it afterwards. */
class ThreadsEnvGuard
{
  public:
    explicit ThreadsEnvGuard(const char *value)
    {
        if (const char *old = std::getenv("UAVF1_THREADS"))
            _saved = old;
        if (value)
            setenv("UAVF1_THREADS", value, 1);
        else
            unsetenv("UAVF1_THREADS");
    }
    ~ThreadsEnvGuard()
    {
        if (_saved.empty())
            unsetenv("UAVF1_THREADS");
        else
            setenv("UAVF1_THREADS", _saved.c_str(), 1);
    }

  private:
    std::string _saved;
};

TEST(ThreadPool, DefaultThreadCountHonoursValidEnv)
{
    ThreadsEnvGuard guard("4");
    EXPECT_EQ(exec::ThreadPool::defaultThreadCount(), 4u);
}

TEST(ThreadPool, DefaultThreadCountRejectsNonNumericEnv)
{
    ThreadsEnvGuard guard("abc");
    EXPECT_THROW(exec::ThreadPool::defaultThreadCount(),
                 ModelError);
}

TEST(ThreadPool, DefaultThreadCountRejectsTrailingGarbage)
{
    ThreadsEnvGuard guard("4x");
    EXPECT_THROW(exec::ThreadPool::defaultThreadCount(),
                 ModelError);
}

TEST(ThreadPool, DefaultThreadCountRejectsZeroAndNegative)
{
    {
        ThreadsEnvGuard guard("0");
        EXPECT_THROW(exec::ThreadPool::defaultThreadCount(),
                     ModelError);
    }
    {
        ThreadsEnvGuard guard("-3");
        EXPECT_THROW(exec::ThreadPool::defaultThreadCount(),
                     ModelError);
    }
}

TEST(ThreadPool, DefaultThreadCountClampsAbsurdValues)
{
    ThreadsEnvGuard guard("999999999");
    EXPECT_EQ(exec::ThreadPool::defaultThreadCount(),
              exec::ThreadPool::maxThreads);
}

TEST(ThreadPool, DefaultThreadCountWithoutEnvIsPositive)
{
    ThreadsEnvGuard guard(nullptr);
    EXPECT_GE(exec::ThreadPool::defaultThreadCount(), 1u);
}

TEST(Cancellation, DefaultTokenIsInert)
{
    exec::CancellationToken token;
    EXPECT_FALSE(token.armed());
    EXPECT_FALSE(token.cancelRequested());
    EXPECT_FALSE(token.deadlineExpired());
    EXPECT_NO_THROW(token.checkpoint());
}

TEST(Cancellation, RequestedTokenStopsAParallelLoop)
{
    exec::ThreadPool pool(4);
    exec::CancellationToken token =
        exec::CancellationToken::create();
    token.requestCancel();
    std::atomic<int> calls{0};
    EXPECT_THROW(
        exec::parallelFor(
            1000, [&](std::size_t, std::size_t) { ++calls; },
            {.pool = &pool, .grain = 8, .cancel = token}),
        CancelledError);
    // Cancellation is observed before the first chunk.
    EXPECT_EQ(calls.load(), 0);
}

TEST(Cancellation, DeadlineExpiresASlowParallelLoop)
{
    exec::ThreadPool pool(2);
    const exec::CancellationToken token =
        exec::CancellationToken::create().withDeadlineAfter(
            std::chrono::milliseconds(5));
    EXPECT_THROW(
        exec::parallelFor(
            1000,
            [&](std::size_t, std::size_t) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            },
            {.pool = &pool, .grain = 1, .cancel = token}),
        TimeoutError);
}

TEST(Cancellation, MaxBudgetSaturatesAndNeverExpires)
{
    // now() + milliseconds::max() overflows the clock; the deadline
    // must saturate instead of wrapping into the past.
    const exec::CancellationToken token =
        exec::CancellationToken().withDeadlineAfter(
            std::chrono::milliseconds::max());
    EXPECT_TRUE(token.armed());
    EXPECT_FALSE(token.deadlineExpired());
    EXPECT_NO_THROW(token.checkpoint());
}

TEST(Cancellation, UntrippedTokenDoesNotPerturbResults)
{
    exec::ThreadPool pool(4);
    const exec::CancellationToken token =
        exec::CancellationToken::create();
    const auto with = exec::parallelMap<int>(
        100, [](std::size_t i) { return static_cast<int>(i); },
        {.pool = &pool, .cancel = token});
    const auto without = exec::parallelMap<int>(
        100, [](std::size_t i) { return static_cast<int>(i); },
        {.pool = &pool});
    EXPECT_EQ(with, without);
}

TEST(ParallelFor, ZeroItemsNeverInvokesTheBody)
{
    exec::ThreadPool pool(4);
    std::atomic<int> calls{0};
    exec::parallelFor(
        0, [&](std::size_t, std::size_t) { ++calls; },
        {.pool = &pool});
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, OneItemRunsExactlyOnce)
{
    exec::ThreadPool pool(4);
    std::vector<int> visits(1, 0);
    exec::parallelFor(
        1,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                ++visits[i];
        },
        {.pool = &pool});
    EXPECT_EQ(visits[0], 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (const std::size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        const std::size_t count = 1013; // Prime: ragged last chunk.
        std::vector<int> visits(count, 0);
        exec::parallelFor(
            count,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i)
                    ++visits[i];
            },
            {.pool = &pool, .grain = 16});
        const int total =
            std::accumulate(visits.begin(), visits.end(), 0);
        EXPECT_EQ(total, static_cast<int>(count));
        for (std::size_t i = 0; i < count; ++i)
            ASSERT_EQ(visits[i], 1) << "index " << i;
    }
}

TEST(ParallelFor, ChunksAlignToTheGrain)
{
    exec::ThreadPool pool(4);
    std::atomic<bool> aligned{true};
    exec::parallelFor(
        95,
        [&](std::size_t begin, std::size_t end) {
            if (begin % 10 != 0 || (end - begin) > 10)
                aligned = false;
        },
        {.pool = &pool, .grain = 10});
    EXPECT_TRUE(aligned.load());
}

TEST(ParallelFor, PropagatesWorkerExceptionsToTheCaller)
{
    exec::ThreadPool pool(4);
    const auto boom = [](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            if (i == 37)
                throw ModelError("index 37 is cursed");
        }
    };
    EXPECT_THROW(
        exec::parallelFor(1000, boom, {.pool = &pool, .grain = 4}),
        ModelError);

    // The pool must stay usable after a failed loop.
    std::atomic<int> done{0};
    exec::parallelFor(
        100, [&](std::size_t begin,
                 std::size_t end) { done += int(end - begin); },
        {.pool = &pool});
    EXPECT_EQ(done.load(), 100);
}

TEST(ParallelMap, ReturnsResultsInIndexOrder)
{
    exec::ThreadPool pool(8);
    const auto squares = exec::parallelMap<int>(
        257, [](std::size_t i) { return static_cast<int>(i * i); },
        {.pool = &pool, .grain = 8});
    ASSERT_EQ(squares.size(), 257u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        ASSERT_EQ(squares[i], static_cast<int>(i * i));
}

TEST(ParallelFor, NestedLoopOnAWorkerFansOutToIdleWorkers)
{
    exec::ThreadPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    std::promise<void> finished;

    // Start the loop from a pool worker while the other three
    // workers sit idle: they must join in. Sleeping chunks leave the
    // idle workers time to wake even on a loaded host.
    pool.submit([&] {
        try {
            exec::parallelFor(
                32,
                [&](std::size_t, std::size_t) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                    std::lock_guard<std::mutex> lock(mutex);
                    threads.insert(std::this_thread::get_id());
                },
                {.pool = &pool});
            finished.set_value();
        } catch (...) {
            finished.set_exception(std::current_exception());
        }
    });
    finished.get_future().get();
    EXPECT_GT(threads.size(), 1u);
}

TEST(ParallelFor, SaturatedNestingNeitherDeadlocksNorLosesWork)
{
    // Every outer chunk nests a loop, and every fourth inner chunk
    // nests again, so all workers are busy in loops that wait on
    // each other's helpers.
    for (const std::size_t threads : {2u, 4u, 8u}) {
        exec::ThreadPool pool(threads);
        const exec::ParallelOptions options{.pool = &pool};
        std::atomic<long> total{0};
        const int reps = 50;
        for (int rep = 0; rep < reps; ++rep) {
            exec::parallelFor(
                16,
                [&](std::size_t, std::size_t) {
                    exec::parallelFor(
                        16,
                        [&](std::size_t begin, std::size_t end) {
                            total += long(end - begin);
                            if (begin % 4 != 0)
                                return;
                            exec::parallelFor(
                                8,
                                [&](std::size_t b, std::size_t e) {
                                    total += long(e - b);
                                },
                                options);
                        },
                        options);
                },
                options);
        }
        EXPECT_EQ(total.load(), reps * 16L * (16 + 4 * 8))
            << threads << " threads";
    }
}

TEST(ParallelFor, WaitingCallerRunsQueuedWork)
{
    // Two threads: the caller and one worker. The caller's outer
    // chunk returns as soon as the worker has taken the other one,
    // which nests a loop whose first chunk holds the worker until
    // the caller has run a nested chunk. A caller that sleeps
    // through its join instead never does, and the hold times out.
    exec::ThreadPool pool(2);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> worker_started{false};
    std::atomic<bool> caller_ran_nested{false};
    const auto waitFor = [](const std::atomic<bool> &flag) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(3);
        while (!flag.load() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    exec::parallelFor(
        2,
        [&](std::size_t, std::size_t) {
            if (std::this_thread::get_id() == caller) {
                waitFor(worker_started);
                return;
            }
            worker_started = true;
            exec::parallelFor(
                64,
                [&](std::size_t begin, std::size_t) {
                    if (std::this_thread::get_id() == caller)
                        caller_ran_nested = true;
                    else if (begin == 0)
                        waitFor(caller_ran_nested);
                },
                {.pool = &pool});
        },
        {.pool = &pool, .grain = 1});
    EXPECT_TRUE(worker_started.load());
    EXPECT_TRUE(caller_ran_nested.load());
}

/** Exact equality across every field of an UncertaintyResult. */
void
expectBitIdentical(const sim::UncertaintyResult &a,
                   const sim::UncertaintyResult &b)
{
    const auto expectSameDist = [](const sim::Distribution &x,
                                   const sim::Distribution &y) {
        EXPECT_EQ(x.mean, y.mean);
        EXPECT_EQ(x.stddev, y.stddev);
        EXPECT_EQ(x.p5, y.p5);
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
    };
    expectSameDist(a.safeVelocity, b.safeVelocity);
    expectSameDist(a.kneeThroughput, b.kneeThroughput);
    expectSameDist(a.roofVelocity, b.roofVelocity);
    EXPECT_EQ(a.probComputeBound, b.probComputeBound);
    EXPECT_EQ(a.probSensorBound, b.probSensorBound);
    EXPECT_EQ(a.probControlBound, b.probControlBound);
    EXPECT_EQ(a.probPhysicsBound, b.probPhysicsBound);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(ExecMonteCarlo, BitIdenticalAcrossThreadCounts)
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(55.0));
    const sim::MonteCarloAnalyzer analyzer(spec);

    // Spans many sample blocks so the chunk decomposition is
    // genuinely exercised.
    const std::size_t count = 200000;
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool2(2);
    exec::ThreadPool pool8(8);
    const auto serial = analyzer.run(count, 42, {.pool = &pool1});
    const auto twoway = analyzer.run(count, 42, {.pool = &pool2});
    const auto eightway = analyzer.run(count, 42, {.pool = &pool8});

    expectBitIdentical(serial, twoway);
    expectBitIdentical(serial, eightway);

    // And a different seed must actually change the stream.
    const auto reseeded = analyzer.run(count, 43, {.pool = &pool8});
    EXPECT_NE(serial.safeVelocity.mean, reseeded.safeVelocity.mean);
}

TEST(ExecMonteCarlo, ThreadCapFallsBackToSerial)
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(55.0));
    const sim::MonteCarloAnalyzer analyzer(spec);
    exec::ThreadPool single(1);
    exec::ThreadPool pool(8);
    const auto capped = analyzer.run(5000, 7, {.pool = &single});
    const auto full = analyzer.run(5000, 7, {.pool = &pool});
    expectBitIdentical(capped, full);
}

} // namespace
