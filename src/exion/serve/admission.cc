#include "exion/serve/admission.h"

#include <algorithm>
#include <cmath>

namespace exion
{

std::string
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::QueueFull:
        return "queue-full";
      case RejectReason::LoadShedLow:
        return "load-shed-low";
      case RejectReason::UnknownModel:
        return "unknown-model";
      case RejectReason::Stopped:
        return "stopped";
    }
    return "?";
}

std::optional<RejectReason>
AdmissionController::decide(Priority cls, const ClassDepths &ready) const
{
    if (cfg_.shedThreshold > 0 && cls == Priority::Low) {
        u64 total = 0;
        for (const u64 depth : ready)
            total += depth;
        if (total >= cfg_.shedThreshold)
            return RejectReason::LoadShedLow;
    }
    if (cfg_.maxQueuedPerClass > 0
        && ready[classIndex(cls)] >= cfg_.maxQueuedPerClass)
        return RejectReason::QueueFull;
    return std::nullopt;
}

std::chrono::steady_clock::duration
AdmissionController::blockTimeout() const
{
    // Clamp in the double domain so a huge/inf timeout cannot
    // overflow the duration cast; NaN fails the blocking() test.
    constexpr double kMaxTimeoutSeconds = 3600.0;
    const double seconds = std::isfinite(cfg_.blockTimeoutSeconds)
        ? std::clamp(cfg_.blockTimeoutSeconds, 0.0, kMaxTimeoutSeconds)
        : kMaxTimeoutSeconds;
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
}

} // namespace exion
