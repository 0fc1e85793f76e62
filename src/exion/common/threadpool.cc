#include "exion/common/threadpool.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "exion/common/logging.h"

namespace exion
{

ThreadPool::ThreadPool(int workers)
{
    if (workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw == 0 ? 1 : static_cast<int>(hw);
    }
    workers_.reserve(workers);
    try {
        for (int i = 0; i < workers; ++i)
            workers_.emplace_back([this]() { workerLoop(); });
    } catch (...) {
        // Thread start failed (e.g. task limit): stop and join the
        // workers that did start, then let the caller see the error —
        // unwinding joinable std::threads would std::terminate.
        shutdown();
        throw;
    }
}

int
ThreadPool::pinWorkers(const std::vector<std::vector<int>> &cpuSets)
{
    if (cpuSets.empty())
        return 0;
#if defined(__linux__)
    int pinned = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < workers_.size(); ++i) {
        const std::vector<int> &cpus = cpuSets[i % cpuSets.size()];
        if (cpus.empty())
            continue;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int cpu : cpus)
            if (cpu >= 0 && cpu < CPU_SETSIZE)
                CPU_SET(cpu, &set);
        const int rc = ::pthread_setaffinity_np(
            workers_[i].native_handle(), sizeof(set), &set);
        if (rc != 0) {
            EXION_WARN("pinWorkers: pthread_setaffinity_np failed for "
                       "worker ",
                       i, " (errno ", rc, "); leaving it floating");
            continue;
        }
        ++pinned;
    }
    return pinned;
#else
    EXION_WARN("pinWorkers: thread affinity unsupported on this "
               "platform; workers stay floating");
    return 0;
#endif
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void
ThreadPool::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    cv_.notify_all();
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();
    // Everything accepted before shutdown began has now run: workers
    // drain the queue before exiting, and post() refuses new work once
    // stopping_ is set, so nothing can be abandoned in the queue.
    EXION_ASSERT(queue_.empty(),
                 "ThreadPool shutdown abandoned queued tasks");
}

u64
ThreadPool::submittedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return submitted_;
}

u64
ThreadPool::queuedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<u64>(queue_.size());
}

void
ThreadPool::post(std::function<void()> fn, i64 priority)
{
    postTagged(std::move(fn), priority, /*level=*/0);
}

u64
ThreadPool::postTagged(std::function<void()> fn, i64 priority, int level)
{
    u64 token;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        token = postLocked(std::move(fn), priority, level, lock);
    }
    cv_.notify_one();
    return token;
}

u64
ThreadPool::postLocked(std::function<void()> fn, i64 priority, int level,
                       std::unique_lock<std::mutex> &)
{
    // Fail loudly: a task accepted here would never run (workers
    // are exiting or gone) and its future would deadlock on get().
    if (stopping_)
        throw ThreadPoolStopped();
    const u64 token = submitted_++;
    queue_.emplace(TaskKey{priority, token},
                   QueuedTask{std::move(fn), level});
    tokenPriority_.emplace(token, priority);
    LevelDepth &depth = levels_[level];
    ++depth.current;
    depth.peak = std::max(depth.peak, depth.current);
    return token;
}

bool
ThreadPool::cancel(u64 token)
{
    // Holding the pool mutex makes the dequeue atomic against the
    // workers: either we extract the task here and it never runs, or
    // a worker already popped it and we report failure.
    std::function<void()> victim; // destroyed outside the lock
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = tokenPriority_.find(token);
        if (it == tokenPriority_.end())
            return false;
        auto node = queue_.extract(TaskKey{it->second, token});
        EXION_ASSERT(!node.empty(), "ThreadPool: token ", token,
                     " indexed but not queued");
        --levels_[node.mapped().level].current;
        tokenPriority_.erase(it);
        victim = std::move(node.mapped().fn);
    }
    return true;
}

u64
ThreadPool::queuedAtLevel(int level) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = levels_.find(level);
    return it == levels_.end() ? 0 : it->second.current;
}

void
ThreadPool::queuedAtLevels(int count, u64 *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (int level = 0; level < count; ++level) {
        const auto it = levels_.find(level);
        out[level] = it == levels_.end() ? 0 : it->second.current;
    }
}

u64
ThreadPool::peakQueuedAtLevel(int level) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = levels_.find(level);
    return it == levels_.end() ? 0 : it->second.peak;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            // A pause idles the workers without losing work; shutdown
            // overrides it so draining always completes.
            cv_.wait(lock, [this]() {
                return stopping_ || (!paused_ && !queue_.empty());
            });
            if (queue_.empty())
                return; // stopping_ and drained
            auto node = queue_.extract(queue_.begin());
            --levels_[node.mapped().level].current;
            tokenPriority_.erase(node.key().seq);
            task = std::move(node.mapped().fn);
        }
        // packaged_task routes exceptions into the future; a raw
        // submit()-wrapped callable does the same, so task() never
        // throws here.
        task();
    }
}

} // namespace exion
