/**
 * @file
 * Unit tests for the ThreadPool: results, priority scheduling, FIFO
 * ordering within a priority, exception propagation and shutdown
 * behaviour.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exion/common/threadpool.h"

namespace exion
{
namespace
{

TEST(ThreadPool, ReturnsResults)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, WorkerCountClamped)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workerCount(), 3);
    ThreadPool defaulted(0);
    EXPECT_GE(defaulted.workerCount(), 1);
}

TEST(ThreadPool, SingleWorkerPreservesFifoOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(
            pool.submit([i, &order]() { order.push_back(i); }));
    for (auto &f : futures)
        f.get();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

/**
 * Holds the pool's single worker inside a task until release() so
 * tasks submitted meanwhile pile up in the ready queue and their
 * execution order exposes the scheduler's choices.
 */
class WorkerGate
{
  public:
    explicit WorkerGate(ThreadPool &pool)
    {
        blocker_ = pool.submit([this]() {
            started_.set_value();
            gate_.get_future().wait();
        });
        // Only return once the worker holds the blocker, so nothing
        // submitted afterwards can start before release().
        started_.get_future().wait();
    }

    /**
     * Joins the blocker task: the lambda captures this stack object,
     * so the gate must outlive the worker's last touch of it.
     */
    ~WorkerGate()
    {
        release();
        if (blocker_.valid())
            blocker_.get();
    }

    void
    release()
    {
        if (!released_) {
            released_ = true;
            gate_.set_value();
        }
    }

    void wait() { blocker_.get(); }

  private:
    std::promise<void> started_;
    std::promise<void> gate_;
    std::future<void> blocker_;
    bool released_ = false;
};

TEST(ThreadPool, HigherPriorityRunsFirst)
{
    ThreadPool pool(1);
    WorkerGate gate(pool);

    std::vector<int> order;
    std::vector<std::future<void>> futures;
    const i64 priorities[] = {0, 5, -3, 9, 5, 1};
    for (int i = 0; i < 6; ++i)
        futures.push_back(pool.submit(
            [i, &order]() { order.push_back(i); }, priorities[i]));

    gate.release();
    for (auto &f : futures)
        f.get();

    // Priority descending; the two priority-5 tasks keep FIFO order.
    const std::vector<int> expected = {3, 1, 4, 5, 0, 2};
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, EqualPrioritiesKeepSubmissionOrder)
{
    ThreadPool pool(1);
    WorkerGate gate(pool);

    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit(
            [i, &order]() { order.push_back(i); }, /*priority=*/7));

    gate.release();
    for (auto &f : futures)
        f.get();
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PriorityInversionRegression)
{
    // A low-priority long job submitted first must not delay a
    // high-priority job that arrives while work is still queued.
    ThreadPool pool(1);
    WorkerGate gate(pool);

    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit(
            [i, &order]() {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                order.push_back(i);
            },
            /*priority=*/-1));
    futures.push_back(
        pool.submit([&order]() { order.push_back(100); },
                    /*priority=*/10));

    gate.release();
    for (auto &f : futures)
        f.get();
    ASSERT_EQ(order.size(), 9u);
    EXPECT_EQ(order.front(), 100)
        << "high-priority task ran behind queued low-priority work";
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    EXPECT_THROW(future.get(), std::runtime_error);

    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&done]() {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++done;
            });
        pool.shutdown();
        EXPECT_EQ(done.load(), 100);
    }
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 50; ++i)
            pool.submit([&done]() { ++done; });
    }
    EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownFailsLoudly)
{
    // Regression: a task accepted after shutdown would never run and
    // its future would deadlock on get(). It must throw instead.
    ThreadPool pool(2);
    pool.submit([]() {}).get();
    pool.shutdown();
    EXPECT_THROW(pool.submit([]() { return 1; }), ThreadPoolStopped);
    // shutdown stays idempotent after the refused submissions.
    pool.shutdown();
}

TEST(ThreadPool, SubmitFromTaskDuringShutdownFailsViaFuture)
{
    // A task that tries to spawn follow-up work while the pool is
    // draining must see the failure in its own future, not hang.
    ThreadPool pool(1);
    auto outer = pool.submit([&pool]() {
        // Keeps spawning no-op work until shutdown() flips the pool
        // to stopping, at which point the next submit throws.
        for (;;) {
            pool.submit([]() {});
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    pool.shutdown();
    EXPECT_THROW(outer.get(), ThreadPoolStopped);
}

TEST(ThreadPool, TracksPerLevelDepths)
{
    ThreadPool pool(1);
    WorkerGate gate(pool);

    EXPECT_EQ(pool.queuedAtLevel(0), 0u);
    EXPECT_EQ(pool.peakQueuedAtLevel(3), 0u);

    pool.postTagged([]() {}, /*priority=*/0, /*level=*/3);
    pool.postTagged([]() {}, /*priority=*/0, /*level=*/3);
    pool.postTagged([]() {}, /*priority=*/0, /*level=*/1);
    EXPECT_EQ(pool.queuedAtLevel(3), 2u);
    EXPECT_EQ(pool.queuedAtLevel(1), 1u);
    EXPECT_EQ(pool.queuedAtLevel(0), 0u);
    EXPECT_EQ(pool.peakQueuedAtLevel(3), 2u);

    // The bulk query sees the same depths in one lock acquisition.
    u64 depths[4] = {};
    pool.queuedAtLevels(4, depths);
    EXPECT_EQ(depths[0], 0u);
    EXPECT_EQ(depths[1], 1u);
    EXPECT_EQ(depths[2], 0u);
    EXPECT_EQ(depths[3], 2u);

    gate.release();
    pool.shutdown();
    // Depths drain to zero; the high-water marks survive.
    EXPECT_EQ(pool.queuedAtLevel(3), 0u);
    EXPECT_EQ(pool.queuedAtLevel(1), 0u);
    EXPECT_EQ(pool.peakQueuedAtLevel(3), 2u);
    EXPECT_EQ(pool.peakQueuedAtLevel(1), 1u);
}

TEST(ThreadPool, PlainSubmitLandsOnLevelZero)
{
    ThreadPool pool(1);
    WorkerGate gate(pool);
    pool.submit([]() {});
    EXPECT_EQ(pool.queuedAtLevel(0), 1u);
    gate.release();
    pool.shutdown();
    EXPECT_EQ(pool.peakQueuedAtLevel(0), 1u);
}

TEST(ThreadPool, CancelRemovesQueuedTask)
{
    std::atomic<bool> ran{false};
    ThreadPool pool(1);
    {
        WorkerGate gate(pool);
        const u64 token = pool.postTagged([&ran]() { ran = true; },
                                          /*priority=*/0, /*level=*/2);
        EXPECT_EQ(pool.queuedAtLevel(2), 1u);
        EXPECT_TRUE(pool.cancel(token));
        EXPECT_EQ(pool.queuedAtLevel(2), 0u);
        // A second cancel of the same token reports failure.
        EXPECT_FALSE(pool.cancel(token));
        gate.release();
    }
    pool.shutdown();
    EXPECT_FALSE(ran.load()) << "cancelled task still ran";
}

TEST(ThreadPool, CancelStartedOrFinishedTaskFails)
{
    ThreadPool pool(1);
    std::promise<void> entered;
    std::promise<void> release;
    const u64 running = pool.postTagged([&]() {
        entered.set_value();
        release.get_future().wait();
    });
    entered.get_future().wait();
    // The worker holds the task: it is no longer cancellable.
    EXPECT_FALSE(pool.cancel(running));
    release.set_value();
    pool.shutdown();
    EXPECT_FALSE(pool.cancel(running));
    EXPECT_FALSE(pool.cancel(/*token=*/987654));
}

TEST(ThreadPool, CountsSubmissions)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.submittedCount(), 0u);
    pool.submit([]() {}).get();
    EXPECT_EQ(pool.submittedCount(), 1u);
}

TEST(ThreadPool, QueuedCountDrainsToZero)
{
    ThreadPool pool(1);
    WorkerGate gate(pool);
    for (int i = 0; i < 4; ++i)
        pool.submit([]() {});
    EXPECT_EQ(pool.queuedCount(), 4u);
    gate.release();
    pool.shutdown();
    EXPECT_EQ(pool.queuedCount(), 0u);
}

} // namespace
} // namespace exion
