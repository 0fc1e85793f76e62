/**
 * @file
 * HTTP front door of the serving backend: the REST mapping layer.
 *
 * HttpFront::handle() is an HttpServer handler (and is equally
 * callable on hand-built HttpRequest values, so every route is golden-
 * testable without a socket) that maps the engine API onto HTTP:
 *
 *   POST   /v1/jobs              trySubmit(); 201 + job id on accept;
 *                                admission refusals map RejectReason
 *                                to a status code with a Retry-After
 *                                header derived from the engine's
 *                                suggestedBackoffSeconds hint:
 *                                  QueueFull    -> 429
 *                                  LoadShedLow  -> 503
 *                                  UnknownModel -> 404
 *                                  Stopped      -> 503 (Connection:
 *                                                 close, no retry)
 *   GET    /v1/jobs/{id}         status/result JSON (queued/running/
 *                                done/failed/cancelled + progress)
 *   DELETE /v1/jobs/{id}         Ticket::cancel(); 200 with the
 *                                cancellation outcome
 *   GET    /v1/jobs/{id}/events  Server-Sent Events: one `progress`
 *                                event per completed denoising
 *                                iteration (ServeRequest::onProgress),
 *                                heartbeat comments while idle, a
 *                                terminal `done` event; a client that
 *                                disconnects mid-stream cancels the
 *                                running request cooperatively
 *   GET    /metrics              ServeBackend::metricsText()
 *   GET    /healthz              200 "ok"
 *
 * Submission body — a flat JSON object, all fields except
 * "benchmark" optional:
 *
 *   {"benchmark": "MLD", "mode": "exion", "quantize": false,
 *    "seed": 7, "priority": "normal", "deadline_seconds": 0.5,
 *    "track_conmerge": false}
 *
 * Unknown fields, wrong types and malformed JSON are 400s (strict on
 * purpose: a typoed field name silently defaulting is how a load
 * test ends up measuring the wrong mode).
 */

#ifndef EXION_SERVE_HTTP_FRONT_H_
#define EXION_SERVE_HTTP_FRONT_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "exion/net/http_server.h"
#include "exion/serve/batch_engine.h"

namespace exion
{

/**
 * Stateful REST facade over one ServeBackend (a solo BatchEngine
 * or a ShardRouter over N of them — the facade cannot tell).
 *
 * Owns the job table (engine tickets, then the finished status
 * fields, keyed by the job ids it hands out) and the engine's
 * completion callback (installed at
 * construction — the callback slot belongs to the front; a service
 * embedding HttpFront must not call engine.setOnComplete itself).
 * Thread-safe: handle() is called concurrently from every connection
 * thread.
 */
class HttpFront
{
  public:
    struct Options
    {
        /**
         * Seconds between SSE heartbeat comments when no progress
         * event is due. Heartbeats keep intermediaries from timing
         * out the stream and bound how quickly a departed client is
         * noticed (each wakeup probes the connection).
         */
        double sseHeartbeatSeconds = 5.0;
        /**
         * Finished (done/failed/cancelled) jobs retained for GET
         * after completion; the oldest are evicted beyond this.
         * In-flight jobs are never evicted.
         */
        u64 maxFinishedJobs = 1024;
    };

    explicit HttpFront(ServeBackend &engine) : HttpFront(engine, Options()) {}
    HttpFront(ServeBackend &engine, Options opts);

    /** Uninstalls the completion callback. */
    ~HttpFront();

    HttpFront(const HttpFront &) = delete;
    HttpFront &operator=(const HttpFront &) = delete;

    /** The HttpServer::Handler: routes one request. */
    void handle(const HttpRequest &req, ResponseWriter &writer);

    /** Jobs currently retained in the table (tests/observability). */
    u64 jobCount() const;

  private:
    /**
     * Per-job state shared between the submitting handler, the
     * engine's onProgress/onComplete callbacks and any number of SSE
     * streams. A finished job keeps only what its status body
     * reports, not the request's result.
     */
    struct Job
    {
        /** Set before the job is published, constant after. */
        u64 id = 0;
        Benchmark benchmark = Benchmark::MLD;
        ExecMode mode = ExecMode::Exion;
        Priority priority = Priority::Normal;
        bool quantize = false;
        u64 seed = 0;

        /** Guards every field below. */
        std::mutex m;
        std::condition_variable cv;
        /** The engine's ticket while the job runs; dropped once the
            terminal state below is recorded. */
        Ticket ticket;
        /** Completed denoising iterations (-1: none yet). */
        int iterationsDone = -1;
        /** "done", "failed" or "cancelled" once finished, else empty,
            and the result fields the status body appends. */
        std::string finalState;
        std::string finalFields;
    };

    /** Records r's terminal status fields and drops the ticket.
        @pre job.m held */
    static void recordLocked(Job &job, const RequestResult &r);
    /** Records the outcome if the ticket has settled without the
        completion callback (cancellations). @pre job.m held */
    static void settleLocked(Job &job);

    std::shared_ptr<Job> findJob(u64 id) const;
    void finishJob(const RequestResult &r);
    /** Drops the oldest finished jobs beyond maxFinishedJobs. */
    void evictFinishedLocked();

    void handleSubmit(const HttpRequest &req, ResponseWriter &writer);
    void handleStatus(Job &job, ResponseWriter &writer);
    void handleCancel(Job &job, ResponseWriter &writer);
    void handleEvents(Job &job, ResponseWriter &writer);
    void handleMetrics(ResponseWriter &writer);

    /** Status JSON of a job (also the SSE `done` payload). */
    std::string statusJson(Job &job) const;

    ServeBackend &engine_;
    Options opts_;
    mutable std::mutex jobsMutex_;
    std::map<u64, std::shared_ptr<Job>> jobs_;
    u64 nextJobId_ = 1;
};

} // namespace exion

#endif // EXION_SERVE_HTTP_FRONT_H_
