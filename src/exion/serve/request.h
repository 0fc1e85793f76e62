/**
 * @file
 * Request and result types of the serving layer.
 *
 * A ServeRequest names a registered model, an execution strategy, a
 * noise seed and a scheduling class; a RequestResult carries the
 * output latent plus all per-request accounting. Both are plain value
 * types: the BatchEngine takes requests by value and hands each
 * result to the completion callback and the request's Ticket.
 */

#ifndef EXION_SERVE_REQUEST_H_
#define EXION_SERVE_REQUEST_H_

#include <functional>
#include <string>

#include "exion/conmerge/pipeline.h"
#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/tensor/matrix.h"

namespace exion
{

/** Block execution strategy of one request (the paper's ablations). */
enum class ExecMode
{
    Dense,       //!< reference dense executor
    FfnReuseOnly, //!< inter-iteration sparsity only
    EpOnly,      //!< intra-iteration eager prediction only
    Exion,       //!< FFN-Reuse + eager prediction
};

/** Short display name, e.g. "dense", "exion". */
std::string execModeName(ExecMode mode);

/**
 * Scheduling class of a request. Workers always start the
 * highest-class ready request; within a class, requests with earlier
 * deadlines go first and deadline ties fall back to submission order.
 */
enum class Priority
{
    Low = 0,      //!< background / best-effort work
    Normal = 1,   //!< default interactive traffic
    High = 2,     //!< latency-sensitive traffic
    Critical = 3, //!< jump-the-queue administrative requests
};

/** Short display name, e.g. "low", "critical". */
std::string priorityName(Priority p);

/** Number of scheduling classes (for per-class tables/metrics). */
inline constexpr int kNumPriorityClasses = 4;

/** Dense 0-based index of a class (Low = 0 … Critical = 3). */
constexpr int
classIndex(Priority p)
{
    return static_cast<int>(p);
}

/** One denoising request. */
struct ServeRequest
{
    /** Caller-chosen identifier, echoed in the result. */
    u64 id = 0;
    /** Which registered model serves the request. */
    Benchmark benchmark = Benchmark::MLD;
    /** Execution strategy. */
    ExecMode mode = ExecMode::Exion;
    /** INT12 operand quantisation. */
    bool quantize = false;
    /** Seed of the initial Gaussian latent. */
    u64 noiseSeed = 7;
    /**
     * Accumulate ConMerge compaction statistics over every FFN
     * recompute mask the request produces (sparse modes only).
     */
    bool trackConMerge = false;
    /** Scheduling class; higher classes start first. */
    Priority priority = Priority::Normal;
    /**
     * Optional completion deadline, in seconds relative to
     * submission (0 = none; non-finite or non-positive values count
     * as none). Advisory: within a priority class the scheduler
     * starts the earliest absolute deadline (submission time +
     * deadlineSeconds) first, so queued requests age ahead of fresh
     * arrivals with tighter relative deadlines; it never aborts a
     * request that misses its deadline.
     */
    double deadlineSeconds = 0.0;
    /**
     * Optional progress hook, fired on a worker thread after each
     * completed denoising iteration with its 0-based index. Useful
     * for streaming previews or for cancelling a started request
     * (Ticket::cancel() from inside the hook stops the run at the
     * next iteration boundary). Must not block; it runs on the hot
     * path of the executing worker. An exception it throws fails
     * this request alone (its Ticket rethrows it).
     */
    std::function<void(int iteration)> onProgress;
};

/**
 * Completed request: output latent plus all accounting.
 *
 * When a request fails, `error` is non-empty, the other payload
 * fields are default-constructed, and only `id` is meaningful. The
 * Ticket future for a failed request rethrows the original exception
 * instead. A cancelled request sets `cancelled` (and `error` =
 * "cancelled"): it has no valid output, so the payload fields are
 * default-constructed too.
 */
struct RequestResult
{
    u64 id = 0;
    Matrix output;
    ExecStats stats;
    ConMergeStats conmerge;
    /** Wall-clock seconds spent executing the request. */
    double seconds = 0.0;
    /** Failure description; empty on success. */
    std::string error;
    /**
     * Cancelled by Ticket::cancel(): dequeued before a worker started
     * it, or stopped at an iteration boundary.
     */
    bool cancelled = false;

    /** Whether the request completed successfully. */
    bool ok() const { return error.empty(); }
};

} // namespace exion

#endif // EXION_SERVE_REQUEST_H_
