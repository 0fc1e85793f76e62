/**
 * @file
 * Multi-request batched denoising engine with asynchronous
 * submit/complete scheduling, explicit admission control and
 * per-class observability.
 *
 * Registers immutable DiffusionPipelines once (weights shared across
 * every request for that benchmark) and runs concurrent denoising
 * requests on its own worker threads, which start requests from one
 * priority-ordered ready queue. Every request runs as a member of a
 * cohort (CohortRun over a SparseExecutor), a cohort of one when
 * cohort batching is off. Two submission surfaces: submit() keeps the
 * throwing fast path (typed exceptions at the API boundary),
 * trySubmit() returns a SubmitOutcome — a Ticket on acceptance or a
 * RejectReason (QueueFull / LoadShedLow / UnknownModel / Stopped)
 * when the AdmissionConfig in Options refuses the request. Completed
 * results are delivered through the Ticket future and an optional
 * completion callback; Ticket::cancel() dequeues not-yet-started
 * work; snapshot() reports per-class accepted/rejected/shed/cancelled
 * counts, ready-queue depths and queue-wait percentiles. Every piece
 * of mutable state a request's run produces — iteration, accounting
 * and FFN-Reuse's block state — is one ExecContext, which the cohort's
 * executor holds under the request's slot until it is delivered, so
 * results are bit-identical no matter how requests interleave across
 * workers or in which order the scheduler starts them.
 */

#ifndef EXION_SERVE_BATCH_ENGINE_H_
#define EXION_SERVE_BATCH_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exion/model/pipeline.h"
#include "exion/serve/admission.h"
#include "exion/serve/metrics.h"
#include "exion/serve/request.h"
#include "exion/sparsity/sparse_executor.h"

namespace exion
{

class BatchEngine;

/**
 * Handle to one submitted request.
 *
 * Cheap to copy (shares one future state). get() blocks until the
 * request completes and rethrows its failure, if any; ready() polls
 * without blocking; cancel() best-effort dequeues work that no worker
 * has started yet. On a default-constructed (invalid) ticket every
 * member is a safe no-op: ready() and cancel() return false, wait()
 * returns immediately; only get() requires valid().
 *
 * A ticket must not outlive its engine — it holds a reference back
 * into it for cancel().
 */
class Ticket
{
  public:
    /** Invalid ticket; every member but get() is a safe no-op. */
    Ticket() = default;

    /** Engine-assigned submission sequence number (1-based). */
    u64 id() const { return id_; }

    /** Whether this ticket refers to a submitted request. */
    bool valid() const { return future_.valid(); }

    /** Non-blocking: whether the result is available. false when
        invalid. */
    bool ready() const;

    /** Blocks until the request completes. No-op when invalid. */
    void wait() const;

    /**
     * Blocks until completion, then returns the result (a copy; the
     * shared state stays pollable). Rethrows the request's failure.
     * A cancelled request yields a result with `cancelled` set.
     * @pre valid()
     */
    RequestResult get() const { return future_.get(); }

    /**
     * Best-effort cancellation. A request no worker has started yet
     * is dequeued and its ticket settles immediately with a result
     * marked `cancelled` (error = "cancelled"; the completion
     * callback is not fed — the request never ran). A request that
     * already started is cancelled cooperatively: its cohort leader
     * polls the flag at every iteration boundary and drops the
     * request's rows before the next one, settling the ticket with a
     * `cancelled` result (again without the callback); a request past
     * its last boundary completes normally.
     *
     * @return true when the request was dequeued or the running
     *         request was signalled; false when it already completed,
     *         was already cancelled, or the ticket is invalid
     */
    bool cancel();

  private:
    friend class BatchEngine;

    Ticket(u64 id, std::shared_future<RequestResult> future,
           BatchEngine *engine)
        : id_(id), future_(std::move(future)), engine_(engine)
    {
    }

    u64 id_ = 0;
    std::shared_future<RequestResult> future_;
    BatchEngine *engine_ = nullptr;
};

/**
 * Result of a trySubmit(): an accepted request carries a valid
 * Ticket; a refused one carries the RejectReason instead, plus a
 * retry-after hint for load-driven refusals.
 */
struct SubmitOutcome
{
    /** Valid iff accepted(). */
    Ticket ticket;
    /** Set iff the request was refused. */
    std::optional<RejectReason> reason;
    /**
     * Retry-after hint on QueueFull / LoadShedLow refusals, in
     * seconds: derived from the class's median queue wait over the
     * recent window (how long a ready slot typically takes to free),
     * clamped to a sane range, so callers back off proportionally to
     * actual congestion instead of hammering a fixed interval in a
     * thundering herd. 0 when accepted or refused for a non-load
     * reason (UnknownModel / Stopped).
     */
    double suggestedBackoffSeconds = 0.0;

    bool accepted() const { return !reason.has_value(); }
};

/**
 * Batched multi-request serving engine.
 *
 * Usage: addModel() every benchmark the request mix needs (not
 * thread-safe; do it before submitting), then submit()/trySubmit()
 * requests as they arrive and consume completions via Ticket::get()
 * or the completion callback. Overload behaviour is explicit:
 * Options::admission bounds the ready queue per priority class and
 * sheds low classes under load, trySubmit() reports the decision as a
 * value, and snapshot() exposes the counters the decisions feed. A
 * worker runs each request it starts as the leader of a cohort
 * (runCohort()); runSequential() is the solo-executor reference the
 * cohort path is tested against. Request execution is deterministic:
 * a request's result depends only on the request and the registered
 * weights, never on worker count, priorities, scheduling order,
 * cohort membership, admission policy or the kernel table the process
 * runs. The engine holds no kernel choice: every executor it builds
 * uses the one table the process probed (EXION_SIMD caps it; see
 * simd_dispatch.h).
 */
class BatchEngine
{
  public:
    struct Options
    {
        /** Worker threads the engine starts (0 = hardware
            concurrency). */
        int workers = 0;
        /**
         * Admission policy of submit()/trySubmit(). The default
         * admits everything.
         */
        AdmissionConfig admission;
        /**
         * Cohort batching: when a worker starts a request, it pulls
         * queued requests with the same (benchmark, mode) out of the
         * ready queue and steps them together in lockstep, their
         * latents stacked into one tall matrix per iteration, so the
         * MMULs traverse each weight matrix once per cohort instead
         * of once per request. The cohort takes members only then,
         * before its first step, and all of them finish on the same
         * step unless cancelled or failed; a request queued while a
         * cohort runs waits for a free worker. Off, every cohort
         * holds exactly one request, so a worker runs one request at
         * a time. Results stay bit-identical to solo runs either way
         * (per-request sparsity state and accounting are
         * row-partitioned). A free worker still starts the
         * highest-ranked ready request, which therefore leads the
         * cohort. The leader also absorbs same-key requests queued
         * behind non-matching ones of equal rank (same class, no
         * deadline on either: they differ only in FIFO order), so an
         * interleaved multi-model stream still forms cohorts; it
         * stops at any non-matching request ranked strictly higher,
         * and a passed request stays at the head of the queue, which
         * the next free worker starts. Off by default.
         */
        bool cohortBatching = false;
        /**
         * Most requests stepping together in one cohort (>= 1) when
         * cohortBatching is on.
         * Bounds how long one worker is tied up per iteration — the
         * latency cost a queued non-matching request can see.
         */
        Index cohortMaxRows = 8;
    };

    /** Invoked on a worker thread as each request completes. */
    using CompletionCallback = std::function<void(const RequestResult &)>;

    /** Engine with default options (hardware-concurrency workers). */
    BatchEngine();

    explicit BatchEngine(const Options &opts);

    /**
     * Drains in-flight requests, then stops (see shutdown()). Virtual,
     * like trySubmit() and setOnComplete(): a subclass may wrap the
     * submission and completion paths (e.g. to record timings) and
     * still be served by HttpFront.
     */
    virtual ~BatchEngine();

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /**
     * Builds and registers the pipeline serving a benchmark at the
     * given scale (snapshotting the build into an engine-private
     * WeightStore). Re-registering a benchmark replaces its pipeline.
     *
     * @throws EngineStopped after shutdown() has begun
     */
    void addModel(const ModelConfig &cfg);

    /**
     * Registers a pipeline over an existing (possibly mmap'd,
     * possibly shared-with-other-engines) weight store. No Rng weight
     * build runs; every layer borrows the store's tensors, so N
     * engines registering the same store share one physical copy of
     * the weights. Serves bit-identically to addModel() of the
     * store's config.
     *
     * Like addModel(), registration is not thread-safe against
     * concurrent submits — register before serving.
     *
     * @throws std::invalid_argument when the store is null or its
     *                               config's benchmark is not b
     * @throws WeightStoreError      when a tensor the config implies
     *                               is missing or has another shape
     *                               or width; the engine keeps the
     *                               models it had
     * @throws EngineStopped         after shutdown() has begun
     */
    void registerModel(Benchmark b,
                       std::shared_ptr<const WeightStore> store);

    /**
     * Loads a serialized weight store from path (mmap'd read-only
     * where the platform allows) and registers it under its config's
     * benchmark.
     *
     * @throws WeightStoreError on a malformed or corrupt file, or as
     *                          registerModel()
     * @throws EngineStopped    after shutdown() has begun
     */
    void registerModelFromFile(const std::string &path);

    /**
     * Registered pipeline for a benchmark.
     * @throws UnknownModelError when the benchmark is not registered
     */
    const DiffusionPipeline &pipeline(Benchmark b) const;

    /**
     * Enqueues one request — the throwing fast path.
     *
     * The request passes admission (see trySubmit() for the policy),
     * joins the ready queue at its priority class (with
     * earliest-deadline-first ordering within the class) and runs as
     * soon as a worker is free and nothing more urgent is waiting. On
     * completion the result is delivered, in order, to the completion
     * callback (if set) and to the Ticket future.
     *
     * @throws UnknownModelError  for an unregistered benchmark
     * @throws EngineStopped      after shutdown() has begun
     * @throws AdmissionRejected  when admission policy refuses the
     *                            request (QueueFull / LoadShedLow)
     */
    Ticket submit(const ServeRequest &req);

    /**
     * Admission-checked submission — the non-throwing path.
     *
     * Validates the request at the API boundary (an unregistered
     * benchmark is UnknownModel here, not a worker-thread failure
     * mid-run), then applies Options::admission: a class at its
     * ready-depth bound is QueueFull (optionally blocking up to the
     * configured timeout for a slot), low classes are LoadShedLow
     * once total depth crosses the shed watermark, and an engine
     * whose shutdown() has begun is Stopped. Every decision is
     * counted in snapshot().
     */
    virtual SubmitOutcome trySubmit(const ServeRequest &req);

    /**
     * Installs the completion hook; pass nullptr to remove it. Takes
     * effect for requests completing after the call. The callback
     * runs on a worker thread and must not call back into submit
     * paths that block on its own completion. It should not throw;
     * an escaped exception is logged and swallowed (it cannot be
     * attached to the already-delivered result).
     */
    virtual void setOnComplete(CompletionCallback cb);

    /**
     * Point-in-time serving metrics: per-class
     * accepted/rejected/shed/cancelled/completed counts and deadline
     * misses, current and peak ready-queue depth (counted where
     * requests enter and leave the engine's ready queue), and p50/p99
     * queue-wait over the recent window. Counters reconcile exactly
     * with the outcomes callers observed.
     */
    EngineMetrics snapshot() const;

    /** snapshot() rendered as Prometheus text. */
    std::string metricsText() const;

    /**
     * Pauses scheduling: workers finish their current request, then
     * idle, and running cohort leaders stop absorbing queued
     * requests; submissions still queue up. Lets a burst of
     * submissions be ordered purely by priority before any of them
     * starts. shutdown() overrides a pause and drains.
     */
    void pause();

    /** Resumes scheduling after pause(). */
    void resume();

    /** Requests admitted but not yet completed or cancelled. */
    u64 inFlight() const;

    /** Blocks until every admitted request has completed. */
    void waitIdle() const;

    /**
     * Graceful shutdown: refuses new submissions, then runs every
     * request already accepted (pending work is drained, not
     * abandoned) and delivers all their results before returning.
     * Idempotent; also called by the destructor.
     */
    void shutdown();

    /**
     * Reference single-stream path: runs the batch on the calling
     * thread, one request at a time, each on its own solo
     * SparseExecutor instead of a cohort. Submitting the same
     * requests yields bit-identical results.
     */
    std::vector<RequestResult> runSequential(
        const std::vector<ServeRequest> &requests);

    /** Number of worker threads (0 once shutdown() has begun). */
    int workerCount() const;

  private:
    friend class Ticket;

    /**
     * Ready-queue order: highest rank (readyRank()) first, submission
     * (ticket) order within a rank.
     */
    struct ReadyKey
    {
        i64 rank = 0;
        u64 ticketId = 0;

        bool operator<(const ReadyKey &other) const
        {
            if (rank != other.rank)
                return rank > other.rank;
            return ticketId < other.ticketId;
        }
    };

    /**
     * An admitted request waiting in the ready queue: enough for a
     * worker or a cohort leader to start it, or for Ticket::cancel()
     * to settle it unrun.
     */
    struct Pending
    {
        std::shared_ptr<std::promise<RequestResult>> promise;
        ServeRequest req;
        std::chrono::steady_clock::time_point enqueued;
    };

    using ReadyQueue = std::map<ReadyKey, Pending>;

    /** One request a cohort leader is stepping (or about to). */
    struct CohortMember
    {
        ServeRequest req;
        std::shared_ptr<std::promise<RequestResult>> promise;
        std::chrono::steady_clock::time_point enqueued;
        u64 ticketId = 0;
        std::shared_ptr<std::atomic<bool>> cancelFlag;
        std::chrono::steady_clock::time_point startedAt;
        Index slot = 0;
        bool delivered = false;
    };

    /**
     * Encodes (priority class, absolute deadline) into one ready-queue
     * rank; the absolute deadline is taken against epoch_ at
     * submission, so queued work ages correctly under EDF.
     */
    i64 readyRank(const ServeRequest &req) const;

    /** Retry-after hint for a load-driven refusal of class cls. */
    double suggestedBackoff(Priority cls) const;

    SubmitOutcome submitOutcome(const ServeRequest &req);
    bool cancelTicket(u64 ticket_id);

    /** One request on a solo executor: runSequential()'s body. */
    RequestResult runOne(const ServeRequest &req) const;

    /**
     * Delivers one finished request: completion callback (skipped for
     * cancelled requests, which have no valid output), the ticket
     * promise, metrics and in-flight accounting.
     */
    void deliver(const CohortMember &member, RequestResult result,
                 std::exception_ptr failure);

    /**
     * Takes the queued request at it out of the ready queue and
     * registers it as running; mutex_ held.
     */
    CohortMember startLocked(ReadyQueue::iterator it,
                             std::chrono::steady_clock::time_point now);

    /**
     * Pulls up to max_take queued requests compatible with key out of
     * the ready queue, in queue order, marking them started.
     * Compatible = same benchmark and mode. A non-matching request is
     * passed, and absorption stops at the first request ranked below
     * it, since requests of equal rank differ only in FIFO order.
     */
    std::vector<CohortMember> absorbCohortPeers(const ServeRequest &key,
                                                Index max_take);

    /**
     * Runs every started request: leads a cohort formed from first
     * and its absorbed peers (first alone when cohort batching is
     * off), steps it in lockstep and returns when every member is
     * delivered.
     */
    void runCohort(CohortMember first);

    /**
     * Body of each worker thread: starts the head of the ready queue
     * whenever the engine is unpaused, until shutdown() has begun and
     * the queue is drained.
     */
    void workerLoop();

    const std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    Options opts_;
    AdmissionController admission_;
    std::map<Benchmark, std::unique_ptr<const DiffusionPipeline>> models_;
    MetricsCollector metrics_;

    mutable std::mutex mutex_;
    mutable std::condition_variable idleCv_;
    /** Signalled when a ready-queue slot frees (a worker started a
        request, a cancellation, or shutdown) for block-mode
        admission waits. */
    std::condition_variable admissionCv_;
    /** Signalled when the ready queue gains a request, a pause
        lifts, or shutdown begins: wakes idle workers. */
    std::condition_variable workCv_;
    CompletionCallback onComplete_;
    ReadyQueue ready_;
    /** Ready depth of each class, and its high-water mark. */
    ClassDepths readyDepth_{};
    ClassDepths readyPeak_{};
    /** Cancel flags of started (running) requests, by ticket id. */
    std::map<u64, std::shared_ptr<std::atomic<bool>>> running_;
    u64 nextTicket_ = 1;
    u64 inFlight_ = 0;
    bool stopped_ = false;
    /** While set, leaders absorb nothing and workers start nothing
        until shutdown() begins. */
    bool paused_ = false;
    /**
     * Started in the constructor body, after every member they use,
     * and joined by shutdown() before any member is destroyed.
     */
    std::vector<std::thread> workers_;
};

} // namespace exion

#endif // EXION_SERVE_BATCH_ENGINE_H_
