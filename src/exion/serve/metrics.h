/**
 * @file
 * Engine observability: per-priority-class serving counters and
 * queue-wait latency percentiles.
 *
 * MetricsCollector is the thread-safe sink the BatchEngine feeds at
 * every request lifecycle edge (admitted, rejected, started,
 * cancelled, completed); EngineMetrics is the plain-value snapshot it
 * produces, merged by the engine with the live per-class depths of its
 * ready queue. The counters reconcile exactly: at any
 * quiescent point, accepted == completed + cancelled per class, and
 * accepted + rejected == every submit()/trySubmit() call observed by
 * the caller.
 */

#ifndef EXION_SERVE_METRICS_H_
#define EXION_SERVE_METRICS_H_

#include <array>
#include <mutex>
#include <string>

#include "exion/serve/admission.h"
#include "exion/serve/request.h"

namespace exion
{

/** Lifecycle counters of one priority class. */
struct ClassMetrics
{
    u64 accepted = 0;       //!< admitted into the ready queue
    u64 rejectedQueueFull = 0;
    u64 shed = 0;           //!< refused with LoadShedLow
    u64 rejectedUnknownModel = 0;
    u64 rejectedStopped = 0;
    u64 started = 0;        //!< picked up by a worker
    u64 completed = 0;      //!< finished (success or failure)
    u64 failed = 0;         //!< completed with an error
    u64 cancelled = 0;      //!< dequeued by Ticket::cancel()
    u64 deadlineMisses = 0; //!< completed after its deadline
    u64 queued = 0;         //!< current ready depth (from the engine)
    u64 peakQueued = 0;     //!< high-water ready depth (from the engine)
    /** Median queue wait of this class over the recent window (s). */
    double queueWaitP50 = 0.0;
    /** Waits the class median was computed over (windowed). */
    u64 queueWaitSamples = 0;

    /** All refusals, shedding included. */
    u64 rejected() const
    {
        return rejectedQueueFull + shed + rejectedUnknownModel
            + rejectedStopped;
    }
};

/** Point-in-time view of the engine's serving state. */
struct EngineMetrics
{
    std::array<ClassMetrics, kNumPriorityClasses> perClass{};

    /** Queue-wait (accept -> worker start) percentiles, seconds. */
    double queueWaitP50 = 0.0;
    double queueWaitP99 = 0.0;
    /** Waits the percentiles were computed over (windowed). */
    u64 queueWaitSamples = 0;

    const ClassMetrics &at(Priority p) const
    {
        return perClass[classIndex(p)];
    }

    u64 accepted() const { return sum(&ClassMetrics::accepted); }
    u64 rejected() const
    {
        u64 total = 0;
        for (const ClassMetrics &c : perClass)
            total += c.rejected();
        return total;
    }
    u64 shed() const { return sum(&ClassMetrics::shed); }
    u64 cancelled() const { return sum(&ClassMetrics::cancelled); }
    u64 completed() const { return sum(&ClassMetrics::completed); }
    u64 deadlineMisses() const
    {
        return sum(&ClassMetrics::deadlineMisses);
    }
    u64 queueDepth() const { return sum(&ClassMetrics::queued); }
    u64 peakQueueDepth() const { return sum(&ClassMetrics::peakQueued); }

    /**
     * Renders the snapshot as a Prometheus text exposition
     * (version 0.0.4): per-class lifecycle counters
     * (`exion_serve_*_total{class="..."}`), ready-depth gauges, and
     * the queue-wait summary quantiles. Values print with up to six
     * significant digits (`%g`), matching common exporters.
     */
    std::string toPrometheusText() const;

  private:
    u64 sum(u64 ClassMetrics::*field) const
    {
        u64 total = 0;
        for (const ClassMetrics &c : perClass)
            total += c.*field;
        return total;
    }
};

/**
 * Thread-safe counter sink. All methods are cheap (a mutex and a few
 * increments); queue waits land in a fixed-size ring so a long-lived
 * engine reports percentiles over the most recent window instead of
 * growing without bound.
 */
class MetricsCollector
{
  public:
    /** Waits retained for the percentile window. */
    static constexpr Index kWaitWindow = 4096;

    /** Waits retained per class (for the class-median window). */
    static constexpr Index kClassWaitWindow = 512;

    void onAccepted(Priority p);
    void onRejected(Priority p, RejectReason r);
    void onStarted(Priority p, double waitSeconds);
    void onCancelled(Priority p);
    void onCompleted(Priority p, bool failed, bool missedDeadline);

    /**
     * Counter snapshot plus queue-wait percentiles over the retained
     * window. Ready depths (ClassMetrics::queued/peakQueued) are not
     * known here — the engine overlays them from its ready queue.
     */
    EngineMetrics snapshot() const;

    /**
     * Median queue wait of one class over its retained window, in
     * seconds (0 with no samples yet). Feeds the retry-after hint on
     * QueueFull rejections: the class median approximates how long a
     * ready-queue slot takes to free.
     */
    double classQueueWaitP50(Priority p) const;

  private:
    struct ClassWaits
    {
        std::array<double, kClassWaitWindow> ring{};
        u64 count = 0;
    };

    mutable std::mutex mutex_;
    std::array<ClassMetrics, kNumPriorityClasses> counters_{};
    std::array<double, kWaitWindow> waits_{};
    u64 waitCount_ = 0;
    std::array<ClassWaits, kNumPriorityClasses> classWaits_{};
};

} // namespace exion

#endif // EXION_SERVE_METRICS_H_
