/**
 * @file
 * Multi-request batched denoising engine with asynchronous
 * submit/complete scheduling, explicit admission control and
 * per-class observability.
 *
 * Registers immutable DiffusionPipelines once (weights shared across
 * every request for that benchmark) and schedules concurrent
 * denoising requests across a priority-ordered ThreadPool. Two
 * submission surfaces: submit() keeps the throwing fast path (typed
 * exceptions at the API boundary), trySubmit() returns a
 * SubmitOutcome — a Ticket on acceptance or a RejectReason (QueueFull
 * / LoadShedLow / UnknownModel / Stopped) when the AdmissionConfig in
 * Options refuses the request. Completed results are delivered
 * through the Ticket future, an optional completion callback and the
 * engine's pollable/blocking (and optionally bounded) ResultQueue;
 * Ticket::cancel() dequeues not-yet-started work; snapshot() reports
 * per-class accepted/rejected/shed/cancelled counts, ready-queue
 * depths and queue-wait percentiles. Each request owns a
 * RequestContext bundling every piece of mutable state the run
 * produces — execution context, FFN-Reuse bundle, ConMerge accounting
 * — so results are bit-identical no matter how requests interleave
 * across workers or in which order the scheduler starts them.
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
#include <vector>

#include "exion/common/threadpool.h"
#include "exion/conmerge/pipeline.h"
#include "exion/model/pipeline.h"
#include "exion/serve/admission.h"
#include "exion/serve/metrics.h"
#include "exion/serve/request.h"
#include "exion/serve/result_queue.h"
#include "exion/sparsity/sparse_executor.h"

namespace exion
{

class BatchEngine;

/**
 * All mutable state of one in-flight request.
 *
 * This is the per-request context object: executors bind into it
 * instead of holding stream state themselves, so one request's
 * iteration counter, op accounting, inter-iteration FFN-Reuse caches
 * and ConMerge accounting can never bleed into another's.
 */
struct RequestContext
{
    ExecContext exec;       //!< iteration index + ExecStats
    FfnReuseState ffn;      //!< inter-iteration FFN-Reuse caches
    ConMergeStats conmerge; //!< per-iteration mask compaction roll-up
};

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
     * callback and the result queue are not fed — the request never
     * ran). A request that already started is cancelled
     * cooperatively: the executing worker (or its cohort leader)
     * polls the flag at every iteration boundary and stops the run at
     * the next one, settling the ticket with a `cancelled` result; a
     * request past its last boundary completes normally.
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
 * The submission surface a serving front end consumes — implemented
 * by one BatchEngine and, identically, by a ShardRouter over N of
 * them, so HttpFront / the daemons / the load generators work
 * unchanged over either. The contract mirrors BatchEngine's: typed
 * trySubmit() outcomes, a throwing submit(), snapshot() +
 * Prometheus metricsText(), one completion callback, pause/resume
 * staging and a draining shutdown().
 */
class ServeBackend
{
  public:
    /** Invoked on a worker thread as each request completes. */
    using CompletionCallback = std::function<void(const RequestResult &)>;

    virtual ~ServeBackend() = default;

    /** Admission-checked submission — the non-throwing path. */
    virtual SubmitOutcome trySubmit(const ServeRequest &req) = 0;

    /** The throwing fast path (typed exceptions on refusal). */
    virtual Ticket submit(const ServeRequest &req) = 0;

    /** Point-in-time serving metrics (aggregated across shards). */
    virtual EngineMetrics snapshot() const = 0;

    /**
     * Prometheus text exposition of snapshot(); a sharded backend
     * additionally labels per-shard samples with shard="i".
     */
    virtual std::string metricsText() const = 0;

    /** Installs the completion hook; nullptr removes it. */
    virtual void setOnComplete(CompletionCallback cb) = 0;

    /** Requests admitted but not yet completed or cancelled. */
    virtual u64 inFlight() const = 0;

    /** Blocks until every admitted request has completed. */
    virtual void waitIdle() const = 0;

    /** Pauses scheduling (submissions still queue). */
    virtual void pause() = 0;

    /** Resumes scheduling after pause(). */
    virtual void resume() = 0;

    /** Graceful drain-then-stop; idempotent. */
    virtual void shutdown() = 0;

    /** Total worker threads behind this surface. */
    virtual int workerCount() const = 0;
};

/**
 * Batched multi-request serving engine.
 *
 * Usage: addModel() every benchmark the request mix needs (not
 * thread-safe; do it before submitting), then submit()/trySubmit()
 * requests as they arrive and consume completions via Ticket::get(),
 * the completion callback or results(). Overload behaviour is
 * explicit: Options::admission bounds the ready queue per priority
 * class and sheds low classes under load, trySubmit() reports the
 * decision as a value, and snapshot() exposes the counters the
 * decisions feed. runBatch() remains as a synchronous compatibility
 * wrapper (a submit-all barrier that blocks until the whole batch
 * finishes). Request execution is deterministic: a request's result
 * depends only on the request and the registered weights, never on
 * worker count, priorities, scheduling order or admission policy.
 */
class BatchEngine : public ServeBackend
{
  public:
    struct Options
    {
        /** Worker threads (0 = hardware concurrency). */
        int workers = 0;
        /**
         * ThreadPool seed. Denoising runs derive all randomness from
         * each request's noiseSeed; this only feeds submitSeeded()
         * consumers (planned: randomised schedulers, see ROADMAP).
         */
        u64 poolSeed = 0x2545f4914f6cdd1dULL;
        /** ConMerge configuration for trackConMerge requests. */
        ConMergeConfig conmerge;
        /**
         * Deliver submit() completions to results(). Disable for
         * long-lived services that consume only Tickets or the
         * completion callback.
         */
        bool queueResults = true;
        /**
         * Bound on results() (0 = unbounded). When bounded, a full
         * queue blocks the completing worker until a consumer pops —
         * unpopped results exert backpressure on execution instead of
         * accumulating. Consumers must then keep draining results()
         * until shutdown() returns.
         */
        Index resultQueueCapacity = 0;
        /**
         * Admission policy of submit()/trySubmit(). The default
         * admits everything.
         */
        AdmissionConfig admission;
        /**
         * Cohort batching: when a worker starts a request, it pulls
         * queued requests with the same (benchmark, mode, quantize)
         * out of the ready queue — at start and again at every
         * iteration boundary — and steps them together with their
         * latents stacked into one tall matrix per iteration, so the
         * MMULs traverse each weight matrix once per cohort instead
         * of once per request. Results stay bit-identical to solo
         * runs (per-request sparsity state and accounting are row-
         * partitioned); admission and priority semantics are
         * unchanged — the pool still starts the highest-priority
         * ready request, which therefore leads the cohort, later
         * joiners attach at the next iteration boundary, and a
         * cohort only ever absorbs requests the scheduler would have
         * started next anyway (a queued non-matching request that
         * ranks ahead stops the refill, so sustained same-key load
         * cannot starve it). Off by default.
         */
        bool cohortBatching = false;
        /**
         * Most requests stepping together in one cohort (>= 1).
         * Bounds how long one worker is tied up per iteration — the
         * latency cost a queued non-matching request can see.
         */
        Index cohortMaxRows = 8;
        /**
         * How long a cohort leader with spare rows lingers before its
         * first step, waiting for same-key submissions to arrive
         * (0 = start immediately). Boundary absorption usually makes
         * the window unnecessary — joiners attach while the cohort
         * runs — but a window helps when requests arrive in bursts
         * slightly slower than one iteration.
         */
        double cohortWindowSeconds = 0.0;
        /**
         * SIMD tier every executor this engine builds runs its
         * kernels under. Exact (the default) uses the host's widest
         * vector table while keeping every float accumulation chain
         * in golden reference order — bit-identical to Scalar.
         */
        SimdTier simdTier = SimdTier::Exact;
    };

    using CompletionCallback = ServeBackend::CompletionCallback;

    /** Engine with default options (hardware-concurrency workers). */
    BatchEngine();

    explicit BatchEngine(const Options &opts);

    /** Drains in-flight requests, then stops (see shutdown()). */
    ~BatchEngine() override;

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /**
     * Builds and registers the pipeline serving a benchmark at the
     * given scale (snapshotting the build into an engine-private
     * WeightStore). Re-registering a benchmark replaces its pipeline.
     *
     * @throws ThreadPoolStopped after shutdown() has begun
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
     * @throws ThreadPoolStopped     after shutdown() has begun
     */
    void registerModel(Benchmark b,
                       std::shared_ptr<const WeightStore> store);

    /**
     * Loads a serialized weight store from path (mmap'd read-only
     * where the platform allows) and registers it under its config's
     * benchmark. With pin set the mapping is mlock()'d best-effort
     * (WeightStore::load) so weight pages cannot be evicted under
     * memory pressure; a failed pin warns and serves unpinned.
     *
     * @throws WeightStoreError  on a malformed or corrupt file
     * @throws ThreadPoolStopped after shutdown() has begun
     */
    void registerModelFromFile(const std::string &path, bool pin = false);

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
     * callback (if set), to results(), and to the Ticket future.
     *
     * @throws UnknownModelError  for an unregistered benchmark
     * @throws ThreadPoolStopped  after shutdown() has begun
     * @throws AdmissionRejected  when admission policy refuses the
     *                            request (QueueFull / LoadShedLow)
     */
    Ticket submit(const ServeRequest &req) override;

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
    SubmitOutcome trySubmit(const ServeRequest &req) override;

    /**
     * Installs the completion hook; pass nullptr to remove it. Takes
     * effect for requests completing after the call. The callback
     * runs on a worker thread and must not call back into submit
     * paths that block on its own completion. It should not throw;
     * an escaped exception is logged and swallowed (it cannot be
     * attached to the already-delivered result).
     */
    void setOnComplete(CompletionCallback cb) override;

    /**
     * Completion queue fed by every submit() (unless
     * Options::queueResults is off). runBatch() requests and
     * cancelled requests do not appear here.
     */
    ResultQueue &results() { return results_; }

    /**
     * Point-in-time serving metrics: per-class
     * accepted/rejected/shed/cancelled/completed counts and deadline
     * misses, current and peak ready-queue depth (from the pool's
     * per-level accounting), and p50/p99 queue-wait over the recent
     * window. Counters reconcile exactly with the outcomes callers
     * observed.
     */
    EngineMetrics snapshot() const override;

    /** snapshot() rendered as Prometheus text (no shard labels). */
    std::string metricsText() const override;

    /**
     * Same-cohort-key occupancy of this engine — the affinity signal
     * a router scores shards by. queued counts ready requests with
     * the request's (benchmark, mode, quantize) key; running counts
     * rows of live cohorts stepping that key; spareRows is the
     * unfilled capacity of those cohorts (rows a routed request could
     * occupy at the next iteration boundary without waiting for a
     * free worker). Only meaningful with cohortBatching on — running
     * and spareRows stay 0 otherwise.
     */
    struct CohortOccupancy
    {
        u64 queued = 0;
        u64 running = 0;
        u64 spareRows = 0;
    };
    CohortOccupancy cohortOccupancy(const ServeRequest &req) const;

    /** Ready depth of each class, from the pool's level accounting. */
    ClassDepths readyDepths() const;

    /**
     * Median queue wait of one class over the recent window, seconds
     * (0 with no samples). The congestion signal behind retry-after
     * hints and the router's deadline-aware scoring.
     */
    double classQueueWaitP50(Priority cls) const
    {
        return metrics_.classQueueWaitP50(cls);
    }

    /** Whether shutdown() has begun. */
    bool stoppedFlag() const;

    /**
     * Best-effort CPU affinity: pins worker thread i to
     * cpuSets[i % cpuSets.size()] (each entry a CPU-id list, e.g. one
     * NUMA node). Returns the number of workers pinned; failures warn
     * and leave the worker unpinned.
     */
    int pinWorkers(const std::vector<std::vector<int>> &cpuSets);

    /**
     * Pauses scheduling: workers finish their current request, then
     * idle, and running cohort leaders stop absorbing queued
     * requests; submissions still queue up. Lets a burst of
     * submissions be ordered purely by priority before any of them
     * starts. shutdown() overrides a pause and drains.
     */
    void pause() override;

    /** Resumes scheduling after pause(). */
    void resume() override;

    /** Requests admitted but not yet completed or cancelled. */
    u64 inFlight() const override;

    /** Blocks until every admitted request has completed. */
    void waitIdle() const override;

    /**
     * Graceful shutdown: refuses new submissions, runs every request
     * already accepted (pending work is drained, not abandoned),
     * delivers all their results, then closes results() so blocked
     * consumers wake with std::nullopt. If results() is bounded, keep
     * draining it until this returns — a full queue blocks the
     * draining workers. Idempotent; also called by the destructor.
     */
    void shutdown() override;

    /**
     * Compatibility wrapper around submit(): enqueues the whole batch
     * and blocks until every request finishes (a full barrier — a
     * slow request holds the return, which is exactly what submit()
     * avoids). Results are returned in request order. All-or-nothing:
     * if any request throws, every ticket is still drained (no
     * abandoned work) and the first failure is rethrown; likewise, if
     * admission refuses a request mid-batch (a bounded engine under
     * load), the already-admitted prefix is drained before the
     * refusal propagates. Callers needing per-request error handling,
     * per-request admission outcomes or streaming completion use
     * submit()/trySubmit() and the Ticket / callback / results()
     * surfaces.
     */
    std::vector<RequestResult> runBatch(
        const std::vector<ServeRequest> &requests);

    /**
     * Reference single-stream path: runs the batch on the calling
     * thread, one request at a time. Bit-identical to runBatch().
     */
    std::vector<RequestResult> runSequential(
        const std::vector<ServeRequest> &requests);

    /** Number of pool workers. */
    int workerCount() const override { return pool_.workerCount(); }

  private:
    friend class Ticket;

    /**
     * Bookkeeping of one admitted-but-unstarted request: enough for
     * Ticket::cancel() to dequeue it, and for a cohort leader to
     * absorb it out of the ready queue and run it itself.
     */
    struct Pending
    {
        std::shared_ptr<std::promise<RequestResult>> promise;
        ServeRequest req;
        Priority cls = Priority::Normal;
        u64 poolToken = 0;
        i64 poolPrio = 0;
        bool toQueue = true;
        std::chrono::steady_clock::time_point enqueued;
        /**
         * Created at submission and carried into execution, so a
         * cancel() racing the worker's dequeue (pool cancel fails,
         * worker hasn't registered in running_ yet) can still signal
         * the run cooperatively instead of being dropped.
         */
        std::shared_ptr<std::atomic<bool>> cancelFlag;
    };

    /** One request a cohort leader is stepping (or about to). */
    struct CohortMember
    {
        ServeRequest req;
        std::shared_ptr<std::promise<RequestResult>> promise;
        std::chrono::steady_clock::time_point enqueued;
        bool toQueue = true;
        u64 ticketId = 0;
        std::shared_ptr<std::atomic<bool>> cancelFlag;
        std::chrono::steady_clock::time_point startedAt;
        Index slot = 0;
        std::unique_ptr<RequestContext> ctx;
        bool delivered = false;
    };

    /**
     * Encodes (priority class, absolute deadline) into one pool
     * priority; the absolute deadline is taken against epoch_ at
     * submission, so queued work ages correctly under EDF.
     */
    i64 poolPriority(const ServeRequest &req) const;

    /** Retry-after hint for a load-driven refusal of class cls. */
    double suggestedBackoff(Priority cls) const;

    SubmitOutcome submitOutcome(const ServeRequest &req, bool to_queue);
    Ticket submitImpl(const ServeRequest &req, bool to_queue);
    bool cancelTicket(u64 ticket_id);

    RequestResult runOne(const ServeRequest &req,
                         const std::atomic<bool> *cancel) const;

    /**
     * Delivers one finished request: completion callback, results()
     * (both skipped for cancelled requests, which have no valid
     * output), the ticket promise, metrics and in-flight accounting.
     */
    void deliver(const CohortMember &member, RequestResult result,
                 std::exception_ptr failure);

    /**
     * Pulls up to max_take queued requests compatible with key out of
     * the ready queue (highest pool priority first), marking them
     * started. Compatible = same benchmark, mode and quantize flag.
     */
    std::vector<CohortMember> absorbCohortPeers(const ServeRequest &key,
                                                Index max_take);

    /** Leads a cohort seeded with first; returns when all members
        it ever absorbed are delivered. */
    void runCohort(CohortMember first);

    /**
     * One live cohort, published for cohortOccupancy(): its key and
     * how many rows are stepping right now. Leaders register at
     * start, refresh activeRows at every absorb/finish boundary and
     * erase on exit.
     */
    struct ActiveCohort
    {
        Benchmark benchmark = Benchmark::MLD;
        ExecMode mode = ExecMode::Exion;
        bool quantize = false;
        u64 activeRows = 0;
    };

    const std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    Options opts_;
    AdmissionController admission_;
    ConMergePipeline conmergePipe_;
    std::map<Benchmark, std::unique_ptr<const DiffusionPipeline>> models_;
    ResultQueue results_;
    MetricsCollector metrics_;

    mutable std::mutex mutex_;
    mutable std::condition_variable idleCv_;
    /** Signalled when a ready-queue slot frees (a worker started a
        request, a cancellation, or shutdown) for block-mode
        admission waits. */
    std::condition_variable admissionCv_;
    /** Signalled on every accepted submission, for cohort leaders
        lingering in their formation window. */
    std::condition_variable cohortCv_;
    CompletionCallback onComplete_;
    std::map<u64, Pending> pending_;
    /** Cancel flags of started (running) requests, by ticket id. */
    std::map<u64, std::shared_ptr<std::atomic<bool>>> running_;
    /** Live cohorts by leader instance id (see ActiveCohort). */
    std::map<u64, ActiveCohort> activeCohorts_;
    u64 nextCohortInstance_ = 1;
    u64 nextTicket_ = 1;
    u64 inFlight_ = 0;
    bool stopped_ = false;
    /** Mirrors pool_.pause() so cohort leaders stop absorbing. */
    bool paused_ = false;

    /**
     * Last member: destroyed (and therefore drained) first, while the
     * engine state its tasks reference is still alive.
     */
    ThreadPool pool_;
};

} // namespace exion

#endif // EXION_SERVE_BATCH_ENGINE_H_
