/**
 * @file
 * Outside-in observation of a serving engine: a BatchEngine subclass
 * that timestamps submissions, per-iteration progress and completions
 * of every request it serves, without changing what it computes.
 */

#ifndef EXION_BENCH_RECORDER_H_
#define EXION_BENCH_RECORDER_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "exion/serve/batch_engine.h"

namespace exion::bench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** What the engine side of one request looked like. */
struct RequestRecord
{
    Clock::time_point submitted;
    Clock::time_point completed;
    bool done = false;
    /** RequestResult::seconds: execution, excluding queueing. */
    double execSeconds = 0.0;
    bool ok = false;
    Matrix output;
    ExecStats stats;
    /** One (time, worker index) per completed denoising iteration. */
    std::vector<std::pair<Clock::time_point, int>> progress;
};

/**
 * Thread-safe store of RequestRecords keyed by ServeRequest::id, fed
 * from the submitting thread and the engine's worker threads.
 */
class Recorder
{
  public:
    /** Whether submissions get a progress hook (the traced phase). */
    void setTraceProgress(bool on)
    {
        std::lock_guard<std::mutex> lock(m_);
        traceProgress_ = on;
    }

    bool traceProgress() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return traceProgress_;
    }

    void onSubmit(u64 id, Clock::time_point t)
    {
        std::lock_guard<std::mutex> lock(m_);
        records_[id].submitted = t;
    }

    void onRefused(u64 id)
    {
        std::lock_guard<std::mutex> lock(m_);
        records_.erase(id);
    }

    void onProgress(u64 id, Clock::time_point t)
    {
        std::lock_guard<std::mutex> lock(m_);
        const auto [it, fresh] =
            workerIndex_.try_emplace(std::this_thread::get_id(),
                                     static_cast<int>(workerIndex_.size()));
        (void)fresh;
        records_[id].progress.emplace_back(t, it->second);
    }

    void onComplete(const RequestResult &r, Clock::time_point t)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            RequestRecord &rec = records_[r.id];
            rec.completed = t;
            rec.done = true;
            rec.execSeconds = r.seconds;
            rec.ok = r.ok();
            rec.output = r.output;
            rec.stats = r.stats;
            completionOrder_.push_back(r.id);
        }
        cv_.notify_all();
    }

    /**
     * Blocks until a completion past cursor arrives (or the deadline
     * passes), then returns (id, completion time) of everything that
     * completed since cursor, in completion order, and advances cursor.
     */
    std::vector<std::pair<u64, Clock::time_point>>
    awaitCompletions(size_t &cursor, Clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait_until(lock, deadline, [&] {
            return completionOrder_.size() > cursor;
        });
        std::vector<std::pair<u64, Clock::time_point>> out;
        for (; cursor < completionOrder_.size(); ++cursor) {
            const u64 id = completionOrder_[cursor];
            out.emplace_back(id, records_[id].completed);
        }
        return out;
    }

    /** Blocks until every id has completed; false on timeout. */
    bool awaitAll(const std::vector<u64> &ids, Clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(m_);
        return cv_.wait_until(lock, deadline, [&] {
            for (u64 id : ids) {
                const auto it = records_.find(id);
                if (it == records_.end() || !it->second.done)
                    return false;
            }
            return true;
        });
    }

    /** Moves every record out, leaving the recorder empty. */
    std::map<u64, RequestRecord> take()
    {
        std::lock_guard<std::mutex> lock(m_);
        completionOrder_.clear();
        return std::exchange(records_, {});
    }

  private:
    mutable std::mutex m_;
    std::condition_variable cv_;
    std::map<u64, RequestRecord> records_;
    std::vector<u64> completionOrder_;
    std::map<std::thread::id, int> workerIndex_;
    bool traceProgress_ = false;
};

/**
 * A BatchEngine that reports to a Recorder. trySubmit() stamps the
 * submission and, while tracing, chains a progress hook in front of
 * the caller's; setOnComplete() chains the completion stamp in front
 * of whatever callback is installed (HttpFront installs its own). The
 * recorder must outlive the engine.
 */
class RecordingEngine final : public BatchEngine
{
  public:
    RecordingEngine(const Options &opts, Recorder &rec)
        : BatchEngine(opts), rec_(rec)
    {
        setOnComplete(nullptr);
    }

    SubmitOutcome trySubmit(const ServeRequest &req) override
    {
        ServeRequest wrapped = req;
        if (rec_.traceProgress()) {
            wrapped.onProgress = [&rec = rec_, id = req.id,
                                  inner = req.onProgress](int iteration) {
                rec.onProgress(id, Clock::now());
                if (inner)
                    inner(iteration);
            };
        }
        rec_.onSubmit(req.id, Clock::now());
        SubmitOutcome out = BatchEngine::trySubmit(wrapped);
        if (!out.accepted())
            rec_.onRefused(req.id);
        return out;
    }

    void setOnComplete(CompletionCallback cb) override
    {
        BatchEngine::setOnComplete(
            [&rec = rec_, cb = std::move(cb)](const RequestResult &r) {
                rec.onComplete(r, Clock::now());
                if (cb)
                    cb(r);
            });
    }

  private:
    Recorder &rec_;
};

} // namespace exion::bench

#endif // EXION_BENCH_RECORDER_H_
