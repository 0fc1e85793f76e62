#include "exion/serve/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

namespace exion
{

namespace
{

/** Value at a percentile (0..100) of an ascending-sorted sample. */
double
percentileOfSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        pct / 100.0 * static_cast<double>(sorted.size() - 1);
    const Index lo = static_cast<Index>(rank);
    const Index hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

void
MetricsCollector::onAccepted(Priority p)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_[classIndex(p)].accepted;
}

void
MetricsCollector::onRejected(Priority p, RejectReason r)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClassMetrics &c = counters_[classIndex(p)];
    switch (r) {
      case RejectReason::QueueFull:
        ++c.rejectedQueueFull;
        break;
      case RejectReason::LoadShedLow:
        ++c.shed;
        break;
      case RejectReason::UnknownModel:
        ++c.rejectedUnknownModel;
        break;
      case RejectReason::Stopped:
        ++c.rejectedStopped;
        break;
    }
}

void
MetricsCollector::onStarted(Priority p, double waitSeconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_[classIndex(p)].started;
    waits_[waitCount_ % kWaitWindow] = waitSeconds;
    ++waitCount_;
    ClassWaits &cw = classWaits_[classIndex(p)];
    cw.ring[cw.count % kClassWaitWindow] = waitSeconds;
    ++cw.count;
}

void
MetricsCollector::onCancelled(Priority p)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_[classIndex(p)].cancelled;
}

void
MetricsCollector::onCompleted(Priority p, bool failed,
                              bool missedDeadline)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClassMetrics &c = counters_[classIndex(p)];
    ++c.completed;
    if (failed)
        ++c.failed;
    if (missedDeadline)
        ++c.deadlineMisses;
}

EngineMetrics
MetricsCollector::snapshot() const
{
    EngineMetrics m;
    std::vector<double> waits;
    std::array<std::vector<double>, kNumPriorityClasses> class_waits;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        m.perClass = counters_;
        const Index n = static_cast<Index>(
            std::min<u64>(waitCount_, kWaitWindow));
        waits.assign(waits_.begin(), waits_.begin() + n);
        m.queueWaitSamples = n;
        for (int c = 0; c < kNumPriorityClasses; ++c) {
            const ClassWaits &cw = classWaits_[c];
            const Index cn = static_cast<Index>(
                std::min<u64>(cw.count, kClassWaitWindow));
            class_waits[c].assign(cw.ring.begin(),
                                  cw.ring.begin() + cn);
            m.perClass[c].queueWaitSamples = cn;
        }
    }
    std::sort(waits.begin(), waits.end());
    m.queueWaitP50 = percentileOfSorted(waits, 50.0);
    m.queueWaitP99 = percentileOfSorted(waits, 99.0);
    for (int c = 0; c < kNumPriorityClasses; ++c) {
        std::sort(class_waits[c].begin(), class_waits[c].end());
        m.perClass[c].queueWaitP50 =
            percentileOfSorted(class_waits[c], 50.0);
    }
    return m;
}

double
MetricsCollector::classQueueWaitP50(Priority p) const
{
    std::vector<double> waits;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const ClassWaits &cw = classWaits_[classIndex(p)];
        const Index n = static_cast<Index>(
            std::min<u64>(cw.count, kClassWaitWindow));
        waits.assign(cw.ring.begin(), cw.ring.begin() + n);
    }
    if (waits.empty())
        return 0.0;
    // This runs once per load-driven rejection — the overload hot
    // path — so select the two order statistics the interpolated
    // median needs instead of fully sorting the window.
    const double rank = 0.5 * static_cast<double>(waits.size() - 1);
    const Index lo = static_cast<Index>(rank);
    const Index hi = std::min(lo + 1, waits.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    std::nth_element(waits.begin(), waits.begin() + lo, waits.end());
    const double v_lo = waits[lo];
    const double v_hi = hi == lo
        ? v_lo
        : *std::min_element(waits.begin() + lo + 1, waits.end());
    return v_lo * (1.0 - frac) + v_hi * frac;
}

namespace
{

/** %g rendering shared with common Prometheus client libraries. */
std::string
promValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::string
EngineMetrics::toPrometheusText() const
{
    std::ostringstream out;
    // One family: HELP/TYPE header, then a sample per class.
    const auto family = [&](const char *name, const char *help,
                            const char *type, u64 ClassMetrics::*field) {
        out << "# HELP " << name << " " << help << "\n";
        out << "# TYPE " << name << " " << type << "\n";
        for (int c = 0; c < kNumPriorityClasses; ++c) {
            out << name << "{class=\""
                << priorityName(static_cast<Priority>(c)) << "\"} "
                << perClass[c].*field << "\n";
        }
    };
    family("exion_serve_accepted_total",
           "Requests admitted into the ready queue.", "counter",
           &ClassMetrics::accepted);
    family("exion_serve_rejected_queue_full_total",
           "Requests refused because their class was at its "
           "ready-depth bound.",
           "counter", &ClassMetrics::rejectedQueueFull);
    family("exion_serve_shed_total",
           "Requests refused by load shedding.", "counter",
           &ClassMetrics::shed);
    family("exion_serve_rejected_unknown_model_total",
           "Requests naming an unregistered model.", "counter",
           &ClassMetrics::rejectedUnknownModel);
    family("exion_serve_rejected_stopped_total",
           "Requests refused after shutdown began.", "counter",
           &ClassMetrics::rejectedStopped);
    family("exion_serve_started_total",
           "Requests picked up by a worker.", "counter",
           &ClassMetrics::started);
    family("exion_serve_completed_total",
           "Requests finished (success or failure).", "counter",
           &ClassMetrics::completed);
    family("exion_serve_failed_total",
           "Requests completed with an error.", "counter",
           &ClassMetrics::failed);
    family("exion_serve_cancelled_total",
           "Requests cancelled before or during execution.", "counter",
           &ClassMetrics::cancelled);
    family("exion_serve_deadline_misses_total",
           "Requests completed after their deadline.", "counter",
           &ClassMetrics::deadlineMisses);
    family("exion_serve_ready_queue_depth",
           "Ready (queued, not started) requests.", "gauge",
           &ClassMetrics::queued);
    family("exion_serve_ready_queue_depth_peak",
           "High-water ready-queue depth.", "gauge",
           &ClassMetrics::peakQueued);

    out << "# HELP exion_serve_queue_wait_seconds Queue wait from "
           "acceptance to worker start, over the recent window.\n";
    out << "# TYPE exion_serve_queue_wait_seconds summary\n";
    out << "exion_serve_queue_wait_seconds{quantile=\"0.5\"} "
        << promValue(queueWaitP50) << "\n";
    out << "exion_serve_queue_wait_seconds{quantile=\"0.99\"} "
        << promValue(queueWaitP99) << "\n";
    out << "exion_serve_queue_wait_seconds_count " << queueWaitSamples
        << "\n";

    out << "# HELP exion_serve_class_queue_wait_p50_seconds Median "
           "queue wait per class over its recent window.\n";
    out << "# TYPE exion_serve_class_queue_wait_p50_seconds gauge\n";
    for (int c = 0; c < kNumPriorityClasses; ++c) {
        out << "exion_serve_class_queue_wait_p50_seconds{class=\""
            << priorityName(static_cast<Priority>(c)) << "\"} "
            << promValue(perClass[c].queueWaitP50) << "\n";
    }
    return out.str();
}

} // namespace exion
