/**
 * @file
 * Admission control of the serving layer.
 *
 * Under overload a serving engine must decide, at the API boundary,
 * which requests enter the ready queue and which are refused — and it
 * must say *why*, so a caller (or an upstream router) can react: back
 * off on QueueFull, downgrade or drop on LoadShedLow, re-register on
 * UnknownModel, stop sending on Stopped. AdmissionConfig declares the
 * policy (bounded ready-queue depth per priority class, a shed-below
 * watermark driven by total queue depth, an optional block-with-
 * timeout mode), AdmissionController evaluates it as a pure function
 * of the current per-class ready depths, and the typed exceptions map
 * the reject reasons onto BatchEngine::submit()'s throwing fast path.
 */

#ifndef EXION_SERVE_ADMISSION_H_
#define EXION_SERVE_ADMISSION_H_

#include <array>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>

#include "exion/serve/request.h"

namespace exion
{

/** Why a request was refused at the admission boundary. */
enum class RejectReason
{
    QueueFull,    //!< the request's class is at its ready-depth bound
    LoadShedLow,  //!< total depth over the watermark; class too low
    UnknownModel, //!< benchmark not registered with addModel()
    Stopped,      //!< engine shutdown has begun
};

/** Short display name, e.g. "queue-full", "load-shed-low". */
std::string rejectReasonName(RejectReason r);

/** Thrown by submit() for a request naming an unregistered model. */
class UnknownModelError : public std::invalid_argument
{
  public:
    explicit UnknownModelError(const std::string &what)
        : std::invalid_argument(what)
    {
    }
};

/**
 * Thrown by submit() and model registration after the engine's
 * shutdown() has begun: no worker would ever run the request, so the
 * call fails at once instead of handing out a ticket that never
 * settles.
 */
class EngineStopped : public std::runtime_error
{
  public:
    EngineStopped()
        : std::runtime_error("BatchEngine: submit or registration after "
                             "shutdown")
    {
    }
};

/**
 * Thrown by submit() when admission policy refuses a request
 * (QueueFull / LoadShedLow). trySubmit() reports the same decision as
 * a SubmitOutcome instead of throwing.
 */
class AdmissionRejected : public std::runtime_error
{
  public:
    AdmissionRejected(RejectReason reason, const std::string &what,
                      double suggested_backoff_seconds = 0.0)
        : std::runtime_error(what), reason_(reason),
          suggestedBackoff_(suggested_backoff_seconds)
    {
    }

    RejectReason reason() const { return reason_; }

    /** Retry-after hint, seconds (see
        SubmitOutcome::suggestedBackoffSeconds). */
    double suggestedBackoffSeconds() const { return suggestedBackoff_; }

  private:
    RejectReason reason_;
    double suggestedBackoff_ = 0.0;
};

/**
 * Declarative admission policy. The default configuration admits
 * everything (unbounded queues, no shedding) — exactly the engine's
 * pre-admission behaviour.
 */
struct AdmissionConfig
{
    /**
     * Most ready (queued, not yet started) requests per priority
     * class; a class at its bound rejects with QueueFull. 0 =
     * unbounded.
     */
    u64 maxQueuedPerClass = 0;

    /**
     * Total ready depth (all classes) at or above which classes below
     * shedBelow are refused with LoadShedLow, keeping headroom for
     * latency-sensitive traffic. 0 = shedding disabled.
     */
    u64 shedThreshold = 0;

    /**
     * First class exempt from shedding: classes strictly below it are
     * shed under overload. With the default (Normal), only Low work
     * is shed.
     */
    Priority shedBelow = Priority::Normal;

    /**
     * Block-with-timeout mode: when a class is at its QueueFull
     * bound, trySubmit()/submit() block up to this long for a slot to
     * free (a worker starting a queued request, or a cancellation)
     * instead of rejecting immediately. Shedding still rejects
     * immediately — blocking sheddable work under overload would only
     * deepen the overload. 0 = reject immediately.
     */
    double blockTimeoutSeconds = 0.0;
};

/** Ready-queue depth of each priority class, indexed by classIndex(). */
using ClassDepths = std::array<u64, kNumPriorityClasses>;

/**
 * Evaluates an AdmissionConfig. Stateless beyond the config: the
 * decision is a pure function of (class, current depths), so the
 * engine can re-evaluate it while waiting in block mode.
 */
class AdmissionController
{
  public:
    AdmissionController() = default;

    explicit AdmissionController(const AdmissionConfig &cfg)
        : cfg_(cfg)
    {
    }

    /**
     * Admission verdict for a request of class `cls` given the
     * current per-class ready depths: nullopt admits, otherwise the
     * reject reason. Shedding is evaluated before the class bound —
     * under overload the cheap signal (LoadShedLow) wins so callers
     * back off instead of retrying.
     */
    std::optional<RejectReason> decide(Priority cls,
                                       const ClassDepths &ready) const;

    /** Whether QueueFull rejections should block for a slot first. */
    bool blocking() const { return cfg_.blockTimeoutSeconds > 0.0; }

    /** Block-mode timeout (meaningful when blocking()). */
    std::chrono::steady_clock::duration blockTimeout() const;

    const AdmissionConfig &config() const { return cfg_; }

  private:
    AdmissionConfig cfg_;
};

} // namespace exion

#endif // EXION_SERVE_ADMISSION_H_
