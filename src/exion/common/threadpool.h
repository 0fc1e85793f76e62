/**
 * @file
 * Fixed-size worker thread pool with priority scheduling.
 *
 * Tasks carry an i64 priority; workers always pull the
 * highest-priority ready task, and tasks of equal priority run in
 * submission (FIFO) order. Every submission returns a std::future that
 * carries the task's result or exception.
 *
 * For serving layers that need admission control on top of the pool,
 * postTagged() additionally tags a task with a small integer level and
 * returns a token: the pool keeps exact per-level ready-depth
 * accounting (current and peak, queryable while submitting), and
 * cancel(token) removes a not-yet-started task from the ready queue.
 */

#ifndef EXION_COMMON_THREADPOOL_H_
#define EXION_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "exion/common/types.h"

namespace exion
{

/**
 * Thrown by submit()/postTagged() after shutdown() has begun.
 *
 * Submitting into a stopped pool can never complete the returned
 * future (no worker will run the task), so it fails loudly at the
 * submission site instead of deadlocking the first .get().
 */
class ThreadPoolStopped : public std::runtime_error
{
  public:
    ThreadPoolStopped()
        : std::runtime_error("ThreadPool: submit after shutdown")
    {
    }
};

/**
 * Fixed worker pool executing queued tasks, highest priority first.
 */
class ThreadPool
{
  public:
    /** Default task priority. Larger values run earlier. */
    static constexpr i64 kDefaultPriority = 0;

    /**
     * Starts the workers.
     *
     * @param workers worker threads (>= 1; 0 picks the hardware
     *                concurrency)
     */
    explicit ThreadPool(int workers = 0);

    /** Drains remaining tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueues a task; the future carries its result or exception.
     *
     * @param priority scheduling priority: larger runs earlier; equal
     *                 priorities run FIFO
     * @throws ThreadPoolStopped after shutdown() has begun
     */
    template <typename F>
    auto submit(F &&fn, i64 priority = kDefaultPriority)
        -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        post([task]() { (*task)(); }, priority);
        return future;
    }

    /**
     * Enqueues a raw task tagged with an accounting level and returns
     * a token for cancel().
     *
     * The level is an arbitrary caller-chosen small integer (a
     * serving engine maps its priority classes onto levels); the pool
     * tracks how many ready tasks sit at each level so admission
     * decisions can bound per-level queue depth exactly. Plain
     * submit() tasks land on level 0.
     *
     * @return token identifying the queued task (unique for the
     *         pool's lifetime)
     * @throws ThreadPoolStopped after shutdown() has begun
     */
    u64 postTagged(std::function<void()> fn,
                   i64 priority = kDefaultPriority, int level = 0);

    /**
     * Best-effort dequeue of a not-yet-started task.
     *
     * Atomic against the workers: when this returns true the task was
     * removed from the ready queue and will never run (its level depth
     * is released); when it returns false the task already started,
     * already finished, or the token is unknown. The caller owns any
     * completion promise the task would have settled.
     */
    bool cancel(u64 token);

    /** Ready (queued, not started) tasks currently at a level. */
    u64 queuedAtLevel(int level) const;

    /**
     * Ready depths of levels [0, count) in one lock acquisition —
     * the admission-decision fast path, which needs every class's
     * depth coherently and is re-evaluated on each block-mode wake.
     *
     * @param out receives count entries
     */
    void queuedAtLevels(int count, u64 *out) const;

    /** High-water mark of queuedAtLevel() over the pool's lifetime. */
    u64 peakQueuedAtLevel(int level) const;

    /**
     * Stops dispatching queued tasks: workers finish what they are
     * running, then idle. Submissions are still accepted. Used to
     * stage a burst of work so the priority order, not arrival order,
     * decides execution; shutdown() overrides a pause and drains.
     */
    void pause();

    /** Resumes dispatching after pause(). */
    void resume();

    /**
     * Finishes all queued tasks and stops the workers. Tasks already
     * in the queue when shutdown begins are run, never abandoned;
     * subsequent submissions throw ThreadPoolStopped. Idempotent; also
     * called by the destructor.
     */
    void shutdown();

    /** Number of worker threads. */
    int workerCount() const { return static_cast<int>(workers_.size()); }

    /**
     * Best-effort CPU affinity: pins worker thread i to the CPUs in
     * cpuSets[i % cpuSets.size()] (each entry typically one NUMA
     * node's CPU list). Platform-gated: on systems without
     * pthread_setaffinity_np this warns and pins nothing. A failed
     * pin warns and leaves that worker floating.
     *
     * @return number of workers successfully pinned
     */
    int pinWorkers(const std::vector<std::vector<int>> &cpuSets);

    /** Tasks submitted so far. */
    u64 submittedCount() const;

    /** Tasks accepted but not yet started. */
    u64 queuedCount() const;

  private:
    /**
     * Ready-queue key: highest priority first, FIFO (by submission
     * sequence) within a priority level.
     */
    struct TaskKey
    {
        i64 priority;
        u64 seq;

        bool operator<(const TaskKey &other) const
        {
            if (priority != other.priority)
                return priority > other.priority;
            return seq < other.seq;
        }
    };

    /** A queued task plus the accounting level it was tagged with. */
    struct QueuedTask
    {
        std::function<void()> fn;
        int level = 0;
    };

    /** Per-level ready-depth accounting. */
    struct LevelDepth
    {
        u64 current = 0;
        u64 peak = 0;
    };

    void post(std::function<void()> fn, i64 priority);
    u64 postLocked(std::function<void()> fn, i64 priority, int level,
                   std::unique_lock<std::mutex> &lock);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<TaskKey, QueuedTask> queue_;
    /** Queued (cancellable) tokens -> their priority, to rebuild the
        TaskKey for an O(log n) extraction in cancel(). */
    std::map<u64, i64> tokenPriority_;
    std::map<int, LevelDepth> levels_;
    std::vector<std::thread> workers_;
    u64 submitted_ = 0;
    bool stopping_ = false;
    bool paused_ = false;
};

} // namespace exion

#endif // EXION_COMMON_THREADPOOL_H_
