#include "exion/serve/batch_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "exion/common/logging.h"
#include "exion/model/weight_store.h"
#include "exion/sparsity/sparse_executor.h"

namespace exion
{
namespace
{

/** Failed result of request id, carrying failure's message. */
RequestResult
failedResult(u64 id, const std::exception_ptr &failure)
{
    RequestResult result;
    result.id = id;
    result.error = "unknown error";
    try {
        std::rethrow_exception(failure);
    } catch (const std::exception &e) {
        result.error = e.what();
    } catch (...) {
    }
    return result;
}

/**
 * Executor options for a serving mode: FFN-Reuse under FfnReuseOnly
 * and Exion, eager prediction under EpOnly and Exion, float always.
 * Solo and cohort runs both take their options from here.
 */
SparseExecutor::Options
execOptions(const ModelConfig &cfg, ExecMode mode)
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    return SparseExecutor::fromConfig(cfg, ffnr, ep, /*quantize=*/false);
}

} // namespace

std::string
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::Dense:
        return "dense";
      case ExecMode::FfnReuseOnly:
        return "ffn-reuse";
      case ExecMode::EpOnly:
        return "ep";
      case ExecMode::Exion:
        return "exion";
    }
    return "?";
}

std::string
priorityName(Priority p)
{
    switch (p) {
      case Priority::Low:
        return "low";
      case Priority::Normal:
        return "normal";
      case Priority::High:
        return "high";
      case Priority::Critical:
        return "critical";
    }
    return "?";
}

bool
Ticket::ready() const
{
    // An invalid (default-constructed) ticket has no shared state;
    // wait_for on it would be UB, so report "not ready" instead.
    if (!valid())
        return false;
    return future_.wait_for(std::chrono::seconds(0))
        == std::future_status::ready;
}

void
Ticket::wait() const
{
    if (!valid())
        return;
    future_.wait();
}

bool
Ticket::cancel()
{
    if (engine_ == nullptr || !valid())
        return false;
    return engine_->cancelTicket(id_);
}

BatchEngine::BatchEngine() : BatchEngine(Options{})
{
}

BatchEngine::BatchEngine(const Options &opts)
    : opts_(opts), admission_(opts.admission)
{
    const int workers = opts.workers > 0
        ? opts.workers
        : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
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

BatchEngine::~BatchEngine()
{
    shutdown();
    // Workers exit only on an empty queue after stopped_ is set, and
    // nothing is queued once it is.
    EXION_ASSERT(ready_.empty(),
                 "BatchEngine shutdown abandoned queued requests");
}

void
BatchEngine::addModel(const ModelConfig &cfg)
{
    registerModel(cfg.benchmark, WeightStore::build(cfg));
}

void
BatchEngine::registerModel(Benchmark b,
                           std::shared_ptr<const WeightStore> store)
{
    if (!store)
        throw std::invalid_argument("registerModel: null weight store");
    if (store->config().benchmark != b)
        throw std::invalid_argument(
            "registerModel: store holds "
            + benchmarkName(store->config().benchmark)
            + ", not " + benchmarkName(b));
    // Pipeline construction (cheap for a store: borrowed views, no
    // Rng build) happens outside the lock; the stopped check and the
    // map insert are atomic with respect to shutdown().
    auto pipe = std::make_unique<const DiffusionPipeline>(std::move(store));
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_)
        throw EngineStopped();
    models_[b] = std::move(pipe);
}

void
BatchEngine::registerModelFromFile(const std::string &path)
{
    auto store = WeightStore::load(path);
    const Benchmark b = store->config().benchmark;
    registerModel(b, std::move(store));
}

const DiffusionPipeline &
BatchEngine::pipeline(Benchmark b) const
{
    const auto it = models_.find(b);
    if (it == models_.end())
        throw UnknownModelError("benchmark " + benchmarkName(b)
                                + " not registered with the engine");
    return *it->second;
}

i64
BatchEngine::readyRank(const ServeRequest &req) const
{
    // Class in the high bits; within a class, the earliest absolute
    // deadline (submission time + deadlineSeconds, measured against
    // the engine epoch) ranks highest — true EDF, so a long-queued
    // request is not starved by a fresh arrival with a tighter
    // relative deadline. "No deadline" ranks below every finite
    // deadline; ties fall back to submission (FIFO) order. Clamping
    // happens in the double domain: a huge/inf deadline must not
    // overflow the i64 cast (NaN fails the > 0 test and counts as
    // "no deadline").
    constexpr i64 kDeadlineRange = i64{1} << 40; // ~12.7 days at 1 µs
    i64 deadline_rank = 0;                       // no deadline: last
    if (req.deadlineSeconds > 0.0) {
        const double since_epoch_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - epoch_)
                .count();
        const double absolute_us =
            since_epoch_us + req.deadlineSeconds * 1e6;
        const i64 us = static_cast<i64>(std::clamp(
            absolute_us, 1.0,
            static_cast<double>(kDeadlineRange - 2)));
        deadline_rank = kDeadlineRange - 1 - us;
    }
    return static_cast<i64>(req.priority) * kDeadlineRange
        + deadline_rank;
}

double
BatchEngine::suggestedBackoff(Priority cls) const
{
    const double p50 = metrics_.classQueueWaitP50(cls);
    if (p50 <= 0.0)
        return 0.010; // no congestion signal yet: a small fixed nudge
    return std::clamp(p50, 0.001, 5.0);
}

SubmitOutcome
BatchEngine::trySubmit(const ServeRequest &req)
{
    return submitOutcome(req);
}

Ticket
BatchEngine::submit(const ServeRequest &req)
{
    SubmitOutcome outcome = submitOutcome(req);
    if (outcome.accepted())
        return std::move(outcome.ticket);
    switch (*outcome.reason) {
      case RejectReason::UnknownModel:
        throw UnknownModelError("benchmark "
                                + benchmarkName(req.benchmark)
                                + " not registered with the engine");
      case RejectReason::Stopped:
        throw EngineStopped();
      case RejectReason::QueueFull:
      case RejectReason::LoadShedLow:
        break;
    }
    throw AdmissionRejected(*outcome.reason,
                            "request " + std::to_string(req.id)
                                + " rejected: "
                                + rejectReasonName(*outcome.reason),
                            outcome.suggestedBackoffSeconds);
}

SubmitOutcome
BatchEngine::submitOutcome(const ServeRequest &req)
{
    const Priority cls = req.priority;
    std::unique_lock<std::mutex> lock(mutex_);

    // Validate at the API boundary: a bad request fails the
    // submitter, never a worker thread mid-run.
    if (models_.find(req.benchmark) == models_.end()) {
        metrics_.onRejected(cls, RejectReason::UnknownModel);
        return SubmitOutcome{Ticket{}, RejectReason::UnknownModel};
    }
    if (stopped_) {
        metrics_.onRejected(cls, RejectReason::Stopped);
        return SubmitOutcome{Ticket{}, RejectReason::Stopped};
    }

    std::optional<RejectReason> verdict =
        admission_.decide(cls, readyDepth_);
    if (verdict == RejectReason::QueueFull && admission_.blocking()) {
        // Block-with-timeout mode: wait for a ready-queue slot (a
        // worker starting a queued request, or a cancellation). The
        // verdict is re-evaluated on every wake — it may flip to
        // LoadShedLow if the overall queue kept growing meanwhile.
        const auto deadline =
            std::chrono::steady_clock::now() + admission_.blockTimeout();
        while (!stopped_) {
            const bool timed_out =
                admissionCv_.wait_until(lock, deadline)
                == std::cv_status::timeout;
            verdict = admission_.decide(cls, readyDepth_);
            if (timed_out || verdict != RejectReason::QueueFull)
                break;
        }
        if (stopped_)
            verdict = RejectReason::Stopped;
    }
    if (verdict.has_value()) {
        metrics_.onRejected(cls, *verdict);
        // Compute the hint off the engine lock: the overload path is
        // exactly when rejections are frequent, and the class-median
        // scan must not serialize submits/deliveries behind it.
        lock.unlock();
        SubmitOutcome outcome{Ticket{}, *verdict, 0.0};
        if (*verdict == RejectReason::QueueFull
            || *verdict == RejectReason::LoadShedLow)
            outcome.suggestedBackoffSeconds = suggestedBackoff(cls);
        return outcome;
    }

    // Admitted: account and queue under the one lock, so a
    // concurrent admission check can never overshoot the class bound.
    auto promise = std::make_shared<std::promise<RequestResult>>();
    const u64 ticket_id = nextTicket_++;
    ++inFlight_;
    ready_.emplace(ReadyKey{readyRank(req), ticket_id},
                   Pending{promise, req, std::chrono::steady_clock::now()});
    const int c = classIndex(cls);
    readyPeak_[c] = std::max(readyPeak_[c], ++readyDepth_[c]);
    metrics_.onAccepted(cls);
    Ticket ticket(ticket_id, promise->get_future().share(), this);
    lock.unlock();
    workCv_.notify_one();
    return SubmitOutcome{std::move(ticket), std::nullopt, 0.0};
}

bool
BatchEngine::cancelTicket(u64 ticket_id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto rit = running_.find(ticket_id);
    if (rit != running_.end()) {
        // Cooperative cancellation: signal its cohort leader, which
        // polls the flag at every iteration boundary and settles the
        // ticket with a `cancelled` result when it drops the request.
        // exchange() makes a second cancel() report false.
        return !rit->second->exchange(true);
    }
    // The queue is keyed by rank, so finding a ticket walks it;
    // cancels are rare next to submits and starts.
    const auto it =
        std::find_if(ready_.begin(), ready_.end(), [&](const auto &entry) {
            return entry.first.ticketId == ticket_id;
        });
    if (it == ready_.end())
        return false; // already completed or cancelled
    const Pending pending = std::move(ready_.extract(it).mapped());
    --readyDepth_[classIndex(pending.req.priority)];
    metrics_.onCancelled(pending.req.priority);
    RequestResult result;
    result.id = pending.req.id;
    result.cancelled = true;
    result.error = "cancelled";
    // Only the ticket sees a cancelled request: it never ran, so the
    // completion callback is not fed.
    pending.promise->set_value(std::move(result));
    --inFlight_;
    lock.unlock();
    idleCv_.notify_all();
    admissionCv_.notify_all();
    return true;
}

void
BatchEngine::deliver(const CohortMember &member, RequestResult result,
                     std::exception_ptr failure)
{
    const ServeRequest &req = member.req;
    const bool cancelled = result.cancelled;
    // Deadline verdict taken as execution finishes, before the
    // callback runs: a slow callback must not masquerade as the
    // request missing its deadline. A cancelled request has no
    // completion to judge.
    const bool missed = !cancelled && req.deadlineSeconds > 0.0
        && std::chrono::duration<double>(
               std::chrono::steady_clock::now() - member.enqueued)
                .count()
            > req.deadlineSeconds;

    if (!cancelled) {
        CompletionCallback cb;
        {
            std::lock_guard<std::mutex> inner(mutex_);
            cb = onComplete_;
        }
        // A misbehaving delivery sink must not break the accounting
        // below it: an escaped exception here would leave the Ticket
        // promise unset (deadlocking get()) and inFlight_ stuck
        // nonzero.
        if (cb) {
            try {
                cb(result);
            } catch (...) {
                EXION_WARN("completion callback threw for request ",
                           result.id, "; ignoring");
            }
        }
    }
    if (failure)
        member.promise->set_exception(failure);
    else
        member.promise->set_value(std::move(result));

    if (cancelled)
        metrics_.onCancelled(req.priority);
    else
        metrics_.onCompleted(req.priority, failure != nullptr, missed);
    {
        std::lock_guard<std::mutex> inner(mutex_);
        running_.erase(member.ticketId);
        --inFlight_;
    }
    idleCv_.notify_all();
}

BatchEngine::CohortMember
BatchEngine::startLocked(ReadyQueue::iterator it,
                         std::chrono::steady_clock::time_point now)
{
    CohortMember member;
    member.ticketId = it->first.ticketId;
    Pending pending = std::move(ready_.extract(it).mapped());
    --readyDepth_[classIndex(pending.req.priority)];
    member.req = std::move(pending.req);
    member.promise = std::move(pending.promise);
    member.enqueued = pending.enqueued;
    member.cancelFlag = std::make_shared<std::atomic<bool>>(false);
    member.startedAt = now;
    running_.emplace(member.ticketId, member.cancelFlag);
    metrics_.onStarted(
        member.req.priority,
        std::chrono::duration<double>(now - member.enqueued).count());
    return member;
}

std::vector<BatchEngine::CohortMember>
BatchEngine::absorbCohortPeers(const ServeRequest &key, Index max_take)
{
    std::vector<CohortMember> absorbed;
    if (max_take == 0)
        return absorbed;
    std::unique_lock<std::mutex> lock(mutex_);
    // A paused engine stages queued work (pause() contract): leaders
    // keep stepping their current members but must not start more.
    if (paused_)
        return absorbed;

    // Walk the queue in the order workers start it, passing
    // non-matching requests but stopping at the first request ranked
    // below the first one passed: only FIFO ties are passed, and the
    // passed request stays the head, which the next free worker
    // starts.
    const auto now = std::chrono::steady_clock::now();
    std::optional<i64> passed_rank;
    for (auto it = ready_.begin();
         it != ready_.end() && absorbed.size() < max_take;) {
        if (passed_rank && it->first.rank < *passed_rank)
            break;
        const ServeRequest &req = it->second.req;
        if (req.benchmark == key.benchmark && req.mode == key.mode) {
            absorbed.push_back(startLocked(it++, now));
        } else {
            passed_rank = passed_rank.value_or(it->first.rank);
            ++it;
        }
    }
    if (!absorbed.empty()) {
        // Ready-queue slots freed: admit block-mode waiters.
        lock.unlock();
        admissionCv_.notify_all();
    }
    return absorbed;
}

void
BatchEngine::runCohort(CohortMember first)
{
    const DiffusionPipeline *pipe_ptr = nullptr;
    try {
        pipe_ptr = &pipeline(first.req.benchmark);
    } catch (const std::exception &e) {
        // Unreachable today (submit validates registration and models
        // are only ever replaced), but an escaping exception would
        // take down the worker thread — fail the request instead.
        const std::exception_ptr failure = std::current_exception();
        RequestResult result;
        result.id = first.req.id;
        result.error = e.what();
        deliver(first, std::move(result), failure);
        return;
    }
    const DiffusionPipeline &pipe = *pipe_ptr;
    SparseExecutor exec(execOptions(pipe.config(), first.req.mode));
    CohortRun run(pipe, exec);

    // Formation: the cohort takes every member before its first step
    // and then steps them in lockstep. Slot ids are join order, so
    // members[slot] is the member; the executor holds each member's
    // ExecContext under its slot. Cohort batching off: every cohort is
    // one request, and a worker runs one request at a time.
    const Index max_rows = opts_.cohortBatching
        ? std::max<Index>(1, opts_.cohortMaxRows)
        : 1;
    std::vector<CohortMember> members;
    const ServeRequest key = first.req;
    members.push_back(std::move(first));
    for (CohortMember &m : absorbCohortPeers(key, max_rows - 1))
        members.push_back(std::move(m));
    for (CohortMember &m : members) {
        m.slot = run.join(m.req.noiseSeed);
        EXION_ASSERT(&m == &members[m.slot], "cohort slot ", m.slot,
                     " out of join order");
    }

    // Takes a member out of the cohort before its result is taken
    // and delivers a cancellation or a failure to it.
    const auto drop = [&](CohortMember &m, RequestResult result,
                          std::exception_ptr failure) {
        run.leave(m.slot);
        exec.releaseSlot(m.slot);
        m.delivered = true;
        deliver(m, std::move(result), failure);
    };

    while (!run.done()) {
        // Cooperative cancellation: drop flagged members before the
        // next iteration. Removing a row never perturbs the other
        // members.
        for (CohortMember &m : members) {
            if (!m.delivered
                && m.cancelFlag->load(std::memory_order_relaxed)) {
                RequestResult result;
                result.id = m.req.id;
                result.cancelled = true;
                result.error = "cancelled";
                drop(m, std::move(result), nullptr);
            }
        }
        if (run.done())
            break;

        std::vector<Index> finished;
        try {
            finished = run.step();
        } catch (...) {
            // A failed forward poisons the whole stacked iteration:
            // fail every undelivered member with the original error.
            const std::exception_ptr failure = std::current_exception();
            for (CohortMember &m : members) {
                if (m.delivered)
                    continue;
                m.delivered = true;
                deliver(m, failedResult(m.req.id, failure), failure);
            }
            return;
        }

        // Progress hooks fire after each completed iteration. A hook
        // that throws fails its own request, not the worker.
        for (CohortMember &m : members) {
            if (m.delivered || !m.req.onProgress)
                continue;
            try {
                m.req.onProgress(run.iteration() - 1);
            } catch (...) {
                const std::exception_ptr failure = std::current_exception();
                drop(m, failedResult(m.req.id, failure), failure);
            }
        }

        for (Index slot : finished) {
            CohortMember &m = members[slot];
            if (m.delivered)
                continue; // its progress hook threw
            RequestResult result;
            result.id = m.req.id;
            result.output = run.takeResult(m.slot);
            result.stats = exec.slotContext(m.slot).stats;
            result.seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now()
                                 - m.startedAt)
                                 .count();
            exec.releaseSlot(m.slot);
            m.delivered = true;
            deliver(m, std::move(result), nullptr);
        }
    }
}

void
BatchEngine::workerLoop()
{
    for (;;) {
        CohortMember first;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            // A pause idles the workers without losing work; shutdown
            // overrides it so draining always completes.
            workCv_.wait(lock, [this]() {
                return stopped_ || (!paused_ && !ready_.empty());
            });
            if (ready_.empty())
                return; // stopped and drained
            first = startLocked(ready_.begin(),
                                std::chrono::steady_clock::now());
        }
        // A ready-queue slot freed: admit a block-mode waiter.
        admissionCv_.notify_all();
        runCohort(std::move(first));
    }
}

void
BatchEngine::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void
BatchEngine::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    workCv_.notify_all();
}

void
BatchEngine::setOnComplete(CompletionCallback cb)
{
    std::lock_guard<std::mutex> lock(mutex_);
    onComplete_ = std::move(cb);
}

EngineMetrics
BatchEngine::snapshot() const
{
    EngineMetrics m = metrics_.snapshot();
    std::lock_guard<std::mutex> lock(mutex_);
    for (int c = 0; c < kNumPriorityClasses; ++c) {
        m.perClass[c].queued = readyDepth_[c];
        m.perClass[c].peakQueued = readyPeak_[c];
    }
    return m;
}

std::string
BatchEngine::metricsText() const
{
    return snapshot().toPrometheusText();
}

int
BatchEngine::workerCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(workers_.size());
}

u64
BatchEngine::inFlight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inFlight_;
}

void
BatchEngine::waitIdle() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this]() { return inFlight_ == 0; });
}

void
BatchEngine::shutdown()
{
    // Only the first call takes the threads, so later calls return at
    // once.
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
        workers.swap(workers_);
    }
    workCv_.notify_all();      // workers drain the queue, then exit
    admissionCv_.notify_all(); // block-mode waiters fail with Stopped
    for (std::thread &worker : workers)
        worker.join();
}

std::vector<RequestResult>
BatchEngine::runSequential(const std::vector<ServeRequest> &requests)
{
    std::vector<RequestResult> results;
    results.reserve(requests.size());
    for (const ServeRequest &req : requests)
        results.push_back(runOne(req));
    return results;
}

RequestResult
BatchEngine::runOne(const ServeRequest &req) const
{
    const DiffusionPipeline &pipe = pipeline(req.benchmark);
    SparseExecutor exec(execOptions(pipe.config(), req.mode));

    RunOptions opts;
    opts.noiseSeed = req.noiseSeed;
    if (req.onProgress)
        opts.onIteration = [&req](int i, const Matrix &) {
            req.onProgress(i);
        };

    const auto start = std::chrono::steady_clock::now();
    RequestResult result;
    result.id = req.id;
    result.output = pipe.run(exec, opts);
    result.stats = exec.stats();
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

} // namespace exion
