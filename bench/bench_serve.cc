/**
 * @file
 * Serving front-door load generator: latency under throughput for
 * the HTTP API (net/http_server + serve/http_front) over a real
 * socket, in two disciplines.
 *
 * Closed loop — N client connections, each submitting a job and
 * waiting for its SSE stream to finish before submitting the next.
 * Sweeping N produces the latency-under-throughput curve and the
 * saturation throughput (capacity) of the engine behind the API.
 *
 * Open loop — a pool of paced sender threads submits at a *fixed*
 * aggregate arrival rate regardless of completions (the discipline
 * that exposes overload behaviour: a closed loop self-throttles, an
 * open loop does not), at 0.5x / 1x / 2x the measured capacity. A
 * single sender saturates on its own request round-trips well below
 * high target rates and silently converts the open loop back into a
 * closed one, so the pool splits the rate across senders and the
 * achieved offered rate is reported and gated (>= 95% of target).
 * Half the arrivals ride the Low priority class, so both refusal
 * paths are exercised: QueueFull (HTTP 429) at the class bound and
 * LoadShedLow (HTTP 503) past the shed watermark. A prober thread
 * polls /healthz throughout to measure responsiveness under
 * overload.
 *
 * SSE — streaming overhead is measured as *added wall-time per
 * completed job at a fixed offered load*: the same paced submission
 * stream runs with watchers attaching an SSE stream per job and with
 * watchers polling job status at 1 ms, in interleaved repeats, and
 * the best (minimum) per-repeat *median* submit-to-terminal wall is
 * compared per discipline. The watched job is a deliberately slower
 * model (a few ms of compute) so the comparison measures watching
 * cost against a meaningful wall, not sub-ms scheduler jitter.
 * (Comparing the serial throughput of the two disciplines — what
 * this harness did before — charges every scheduler wakeup and
 * connection stall entirely to SSE and produced a nonsense 1225%
 * "overhead" on a loaded CI box.) The per-iteration event contract
 * is verified on the side: every streamed job must deliver exactly
 * config().iterations progress events.
 *
 * Retry — refused submissions honour the server's Retry-After hint
 * (parsed via HttpClientResponse::retryAfterSeconds()) and must all
 * succeed after backing off, round-tripping the hint the engine
 * derived from its own queue-wait window.
 *
 * Acceptance gates (exit nonzero on failure):
 *   - every closed-loop level completes work at positive throughput
 *   - every open-loop level achieves >= 95% of its target offered
 *     rate (the generator kept up)
 *   - at 2x capacity the server *sheds* (429/503 observed) rather
 *     than queueing without bound
 *   - at 2x capacity /healthz p99 stays under 1 second and no
 *     transport errors occur (responsive, not stalled)
 *   - SSE jobs deliver exactly one progress event per iteration
 *   - SSE adds < 25% wall-time per completed job at fixed load
 *   - every 429 carries a Retry-After >= 1 s and every refused
 *     submission succeeds after honouring it
 *   - the engine drains to idle after the overload run
 *
 * Writes BENCH_serve.json. --quick shrinks durations and the sweep
 * for CI.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exion/model/config.h"
#include "exion/net/http_client.h"
#include "exion/net/http_server.h"
#include "exion/serve/batch_engine.h"
#include "exion/serve/http_front.h"

#include "bench_util.h"

namespace
{

using namespace exion;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentileMs(std::vector<double> seconds, double p)
{
    if (seconds.empty())
        return 0.0;
    std::sort(seconds.begin(), seconds.end());
    const double rank = p * static_cast<double>(seconds.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, seconds.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return (seconds[lo] * (1.0 - frac) + seconds[hi] * frac) * 1e3;
}

/** First integer following "\"<key>\": " in a JSON body (-1: none). */
long long
jsonInt(const std::string &body, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t at = body.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::atoll(body.c_str() + at + needle.size());
}

/** The in-process server under test: one engine behind the front. */
struct Fixture
{
    BatchEngine engine;
    HttpFront front;
    HttpServer server;

    static BatchEngine::Options engineOptions()
    {
        BatchEngine::Options opts;
        opts.workers = 2;
        // Admission: small per-class bound so the open-loop overload
        // hits QueueFull quickly; a shed watermark above it so Low
        // arrivals are refused with LoadShedLow first.
        opts.admission.maxQueuedPerClass = 8;
        opts.admission.shedThreshold = 10;
        return opts;
    }

    static HttpFront::Options frontOptions()
    {
        HttpFront::Options opts;
        opts.sseHeartbeatSeconds = 0.1;
        return opts;
    }

    /**
     * Dedicated SSE-scenario model: enough work per job (~5-10 ms)
     * that the watch discipline's per-job cost — a handful of chunk
     * round-trips for SSE, 1 ms poll granularity for status — is
     * measured against a job wall time it could plausibly distort,
     * instead of against sub-millisecond protocol round-trips where
     * every scheduler wakeup swamps the comparison. The iteration
     * count (and so the progress-event count) stays small; only the
     * per-iteration compute is scaled up, so per-event streaming
     * cost does not grow with the job.
     */
    static ModelConfig slowConfig()
    {
        ModelConfig cfg = makeTinyConfig(/*tokens=*/24,
                                         /*d_model=*/64,
                                         /*n_blocks=*/2,
                                         /*iterations=*/8);
        cfg.benchmark = Benchmark::EDGE;
        return cfg;
    }

    Fixture()
        : engine(engineOptions()), front(engine, frontOptions()),
          server(HttpServer::Options{},
                 [this](const HttpRequest &req, ResponseWriter &w) {
                     front.handle(req, w);
                 })
    {
        engine.addModel(makeTinyConfig());
        engine.addModel(slowConfig());
        server.start();
    }
};

const char *kSubmitNormal =
    "{\"benchmark\": \"MLD\", \"mode\": \"exion\"}";
const char *kSubmitLow =
    "{\"benchmark\": \"MLD\", \"mode\": \"exion\", "
    "\"priority\": \"low\"}";
const char *kSubmitSlow =
    "{\"benchmark\": \"EDGE\", \"mode\": \"exion\"}";

/**
 * Attaches the job's SSE stream and reads it to the `done` event;
 * returns the number of progress events, or -1 on protocol failure.
 */
int
streamUntilDone(HttpConnection &conn, u16 port, long long id)
{
    if (!conn.connected())
        conn = HttpConnection::connect("127.0.0.1", port);
    HttpClientResponse head;
    if (!conn.startStream("/v1/jobs/" + std::to_string(id) + "/events",
                          head)
        || head.status != 200)
        return -1;
    int events = 0;
    bool done = false;
    std::string data;
    std::string pending;
    while (conn.readStreamData(data)) {
        pending += data;
        data.clear();
        size_t at;
        while ((at = pending.find("\n\n")) != std::string::npos) {
            const std::string event = pending.substr(0, at);
            pending.erase(0, at + 2);
            if (event.rfind("event: progress", 0) == 0)
                ++events;
            else if (event.rfind("event: done", 0) == 0)
                done = true;
        }
    }
    return done ? events : -1;
}

/**
 * Submits one job and blocks on its SSE stream until the `done`
 * event; returns the number of progress events seen, or -1 on any
 * protocol failure. Reconnects the connection if it was closed.
 */
int
submitAndStream(HttpConnection &conn, u16 port)
{
    HttpClientResponse resp;
    if (!conn.connected())
        conn = HttpConnection::connect("127.0.0.1", port);
    if (!conn.request("POST", "/v1/jobs", resp, kSubmitNormal))
        return -1;
    if (resp.status != 201)
        return -1;
    const long long id = jsonInt(resp.body, "id");
    if (id < 0)
        return -1;
    return streamUntilDone(conn, port, id);
}

/** One closed-loop sweep point. */
struct ClosedLoopRow
{
    int clients = 0;
    u64 completed = 0;
    u64 errors = 0;
    double seconds = 0.0;
    double rps = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

ClosedLoopRow
runClosedLoop(const Fixture &fx, int clients, double duration)
{
    ClosedLoopRow row;
    row.clients = clients;
    std::atomic<u64> completed{0};
    std::atomic<u64> errors{0};
    std::mutex latMutex;
    std::vector<double> latencies;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            HttpConnection conn =
                HttpConnection::connect("127.0.0.1", fx.server.port());
            std::vector<double> mine;
            while (secondsSince(t0) < duration) {
                const Clock::time_point r0 = Clock::now();
                if (submitAndStream(conn, fx.server.port()) >= 0) {
                    completed.fetch_add(1);
                    mine.push_back(secondsSince(r0));
                } else {
                    errors.fetch_add(1);
                }
            }
            std::lock_guard<std::mutex> lock(latMutex);
            latencies.insert(latencies.end(), mine.begin(),
                             mine.end());
        });
    }
    for (std::thread &t : threads)
        t.join();
    row.seconds = secondsSince(t0);
    row.completed = completed.load();
    row.errors = errors.load();
    row.rps = row.seconds > 0.0
        ? static_cast<double>(row.completed) / row.seconds
        : 0.0;
    row.p50Ms = percentileMs(latencies, 0.50);
    row.p99Ms = percentileMs(latencies, 0.99);
    return row;
}

/** One open-loop rate point. */
struct OpenLoopRow
{
    double targetRps = 0.0;
    int senders = 0;
    u64 offered = 0;
    u64 accepted = 0;
    u64 rejected429 = 0;
    u64 rejected503 = 0;
    u64 transportErrors = 0;
    double seconds = 0.0;
    double achievedRps = 0.0;
    double submitP99Ms = 0.0;
    double healthzP99Ms = 0.0;
    double drainSeconds = 0.0;
};

OpenLoopRow
runOpenLoop(Fixture &fx, double targetRps, double duration)
{
    OpenLoopRow row;
    row.targetRps = targetRps;
    // A single sender tops out near 1/round-trip submissions per
    // second; split the target across enough senders that each one
    // paces comfortably below that.
    row.senders = std::max(
        2, std::min(8, static_cast<int>(std::ceil(targetRps / 800.0))));
    std::atomic<bool> probing{true};
    std::vector<double> healthz;
    // Responsiveness prober: a server that stalls under overload
    // (instead of shedding) shows up here long before any gate on
    // the submit path.
    std::thread prober([&] {
        HttpConnection conn =
            HttpConnection::connect("127.0.0.1", fx.server.port());
        while (probing.load()) {
            const Clock::time_point p0 = Clock::now();
            HttpClientResponse resp;
            if (!conn.connected())
                conn = HttpConnection::connect("127.0.0.1",
                                               fx.server.port());
            if (conn.request("GET", "/healthz", resp)
                && resp.status == 200)
                healthz.push_back(secondsSince(p0));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });

    struct SenderTally
    {
        u64 offered = 0;
        u64 accepted = 0;
        u64 rejected429 = 0;
        u64 rejected503 = 0;
        u64 transportErrors = 0;
        std::vector<double> submitLat;
    };
    std::vector<SenderTally> tallies(
        static_cast<size_t>(row.senders));
    const std::chrono::duration<double> interval(
        static_cast<double>(row.senders) / targetRps);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> senders;
    for (int s = 0; s < row.senders; ++s) {
        senders.emplace_back([&, s] {
            SenderTally &tally = tallies[static_cast<size_t>(s)];
            HttpConnection conn = HttpConnection::connect(
                "127.0.0.1", fx.server.port());
            // Stagger starts so the pool's arrivals interleave
            // instead of bunching at each shared tick.
            Clock::time_point next = t0
                + std::chrono::duration_cast<Clock::duration>(
                      interval * s / row.senders);
            while (secondsSince(t0) < duration) {
                std::this_thread::sleep_until(next);
                next += std::chrono::duration_cast<Clock::duration>(
                    interval);
                ++tally.offered;
                const bool low = (tally.offered + s) % 2 == 0;
                const Clock::time_point s0 = Clock::now();
                HttpClientResponse resp;
                if (!conn.connected())
                    conn = HttpConnection::connect(
                        "127.0.0.1", fx.server.port());
                if (!conn.request("POST", "/v1/jobs", resp,
                                  low ? kSubmitLow : kSubmitNormal)) {
                    ++tally.transportErrors;
                    continue;
                }
                tally.submitLat.push_back(secondsSince(s0));
                if (resp.status == 201)
                    ++tally.accepted;
                else if (resp.status == 429)
                    ++tally.rejected429;
                else if (resp.status == 503)
                    ++tally.rejected503;
                else
                    ++tally.transportErrors;
            }
        });
    }
    for (std::thread &t : senders)
        t.join();
    row.seconds = secondsSince(t0);
    std::vector<double> submitLat;
    for (const SenderTally &tally : tallies) {
        row.offered += tally.offered;
        row.accepted += tally.accepted;
        row.rejected429 += tally.rejected429;
        row.rejected503 += tally.rejected503;
        row.transportErrors += tally.transportErrors;
        submitLat.insert(submitLat.end(), tally.submitLat.begin(),
                         tally.submitLat.end());
    }
    // Rate the offers against the nominal window, not thread-join
    // time: a sender that falls behind catches up with back-to-back
    // ticks (sleep_until in the past returns immediately), so missed
    // arrivals show up as a shortfall in the *count*; join time adds
    // only an unrelated exit tail to the denominator.
    row.achievedRps = static_cast<double>(row.offered) / duration;
    // Overload is only survived if the backlog drains once arrivals
    // stop: time it.
    const Clock::time_point d0 = Clock::now();
    fx.engine.waitIdle();
    row.drainSeconds = secondsSince(d0);
    probing.store(false);
    prober.join();
    row.submitP99Ms = percentileMs(submitLat, 0.99);
    row.healthzP99Ms = percentileMs(healthz, 0.99);
    return row;
}

/**
 * SSE cost as added wall-time per completed job at fixed offered
 * load, plus the per-iteration event contract.
 */
struct SseReport
{
    int jobs = 0;
    int repeats = 0;
    int iterations = 0;
    double offeredRps = 0.0;
    bool eventsMatch = true;
    u64 failures = 0;
    double polledWallMs = 0.0; //!< best repeat's median
    double sseWallMs = 0.0;    //!< best repeat's median

    double addedPct() const
    {
        return polledWallMs > 0.0
            ? (sseWallMs / polledWallMs - 1.0) * 100.0
            : 0.0;
    }
};

/**
 * One fixed-load phase: a pacer submits `jobs` jobs at `rate`; a
 * watcher pool observes each to its terminal state — over its SSE
 * stream when `sse`, by 1 ms status polling otherwise — and records
 * the submit-to-terminal wall time. Returns per-job wall times;
 * event-contract violations and failures land in `report`.
 */
std::vector<double>
runWatchedPhase(const Fixture &fx, int jobs, double rate, bool sse,
                SseReport &report)
{
    struct Item
    {
        long long id = 0;
        Clock::time_point submitted;
    };
    std::mutex m;
    std::condition_variable cv;
    std::deque<Item> queue;
    bool doneSubmitting = false;
    std::vector<double> walls;
    std::atomic<u64> failures{0};
    std::atomic<bool> mismatch{false};

    const int watchers = 3;
    std::vector<std::thread> pool;
    for (int w = 0; w < watchers; ++w) {
        pool.emplace_back([&] {
            HttpConnection conn = HttpConnection::connect(
                "127.0.0.1", fx.server.port());
            std::vector<double> mine;
            while (true) {
                Item item;
                {
                    std::unique_lock<std::mutex> lock(m);
                    cv.wait(lock, [&] {
                        return !queue.empty() || doneSubmitting;
                    });
                    if (queue.empty())
                        break;
                    item = queue.front();
                    queue.pop_front();
                }
                if (sse) {
                    const int events = streamUntilDone(
                        conn, fx.server.port(), item.id);
                    if (events < 0)
                        failures.fetch_add(1);
                    else if (events != report.iterations)
                        mismatch.store(true);
                    if (events >= 0)
                        mine.push_back(secondsSince(item.submitted));
                } else {
                    const std::string target =
                        "/v1/jobs/" + std::to_string(item.id);
                    bool ok = false;
                    while (true) {
                        HttpClientResponse resp;
                        if (!conn.connected())
                            conn = HttpConnection::connect(
                                "127.0.0.1", fx.server.port());
                        if (!conn.request("GET", target, resp))
                            break;
                        if (resp.body.find("\"state\": \"queued\"")
                                == std::string::npos
                            && resp.body.find(
                                   "\"state\": \"running\"")
                                == std::string::npos) {
                            ok = true;
                            break;
                        }
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                    if (ok)
                        mine.push_back(secondsSince(item.submitted));
                    else
                        failures.fetch_add(1);
                }
            }
            std::lock_guard<std::mutex> lock(m);
            walls.insert(walls.end(), mine.begin(), mine.end());
        });
    }

    HttpConnection conn =
        HttpConnection::connect("127.0.0.1", fx.server.port());
    const std::chrono::duration<double> interval(1.0 / rate);
    Clock::time_point next = Clock::now();
    for (int j = 0; j < jobs; ++j) {
        std::this_thread::sleep_until(next);
        next +=
            std::chrono::duration_cast<Clock::duration>(interval);
        HttpClientResponse resp;
        if (!conn.connected())
            conn = HttpConnection::connect("127.0.0.1",
                                           fx.server.port());
        if (!conn.request("POST", "/v1/jobs", resp, kSubmitSlow)
            || resp.status != 201) {
            failures.fetch_add(1);
            continue;
        }
        Item item;
        item.id = jsonInt(resp.body, "id");
        item.submitted = Clock::now();
        {
            std::lock_guard<std::mutex> lock(m);
            queue.push_back(item);
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(m);
        doneSubmitting = true;
    }
    cv.notify_all();
    for (std::thread &t : pool)
        t.join();
    report.failures += failures.load();
    if (mismatch.load())
        report.eventsMatch = false;
    return walls;
}

SseReport
runSseScenario(const Fixture &fx, int jobs, int repeats)
{
    SseReport report;
    report.jobs = jobs;
    report.repeats = repeats;
    report.iterations = Fixture::slowConfig().iterations;
    // A fixed offered load far inside capacity — even on a one-core
    // runner where the pacer, watchers, server threads, and engine
    // workers all share the CPU: the comparison is about the cost of
    // *watching* a deliberately slow job (the EDGE model, ~5-10 ms
    // of wall time), not about overload. The two disciplines run in
    // interleaved repeats and compare best-of per-repeat medians so
    // scheduler noise on shared CI runners cannot masquerade as
    // protocol overhead.
    report.offeredRps = 25.0;

    double bestPolled = 0.0;
    double bestSse = 0.0;
    const auto medianMs = [](std::vector<double> xs) {
        if (xs.empty())
            return 0.0;
        std::sort(xs.begin(), xs.end());
        return xs[xs.size() / 2] * 1e3;
    };
    for (int r = 0; r < repeats; ++r) {
        const double polled = medianMs(runWatchedPhase(
            fx, jobs, report.offeredRps, false, report));
        const double streamed = medianMs(runWatchedPhase(
            fx, jobs, report.offeredRps, true, report));
        if (polled > 0.0
            && (bestPolled == 0.0 || polled < bestPolled))
            bestPolled = polled;
        if (streamed > 0.0 && (bestSse == 0.0 || streamed < bestSse))
            bestSse = streamed;
    }
    report.polledWallMs = bestPolled;
    report.sseWallMs = bestSse;
    return report;
}

/** Retry-After honouring refused submissions to success. */
struct RetryReport
{
    int jobs = 0;
    int refusals = 0;
    int honored = 0; //!< refusals whose hint parsed to >= 1 s
    double minHintSeconds = 0.0;
    double maxHintSeconds = 0.0;
    bool allSucceeded = false;
};

RetryReport
runRetryScenario(Fixture &fx, int jobs)
{
    RetryReport report;
    report.jobs = jobs;
    HttpConnection conn =
        HttpConnection::connect("127.0.0.1", fx.server.port());

    // Stage a full queue: pause the engine and submit until the
    // class bound refuses.
    fx.engine.pause();
    int fill = 0;
    for (int i = 0; i < 200; ++i) {
        HttpClientResponse resp;
        if (!conn.connected())
            conn = HttpConnection::connect("127.0.0.1",
                                           fx.server.port());
        if (!conn.request("POST", "/v1/jobs", resp, kSubmitNormal))
            break;
        if (resp.status != 201)
            break;
        ++fill;
    }

    // Every probe job must now be refused with a usable hint.
    for (int j = 0; j < jobs; ++j) {
        HttpClientResponse resp;
        if (!conn.connected())
            conn = HttpConnection::connect("127.0.0.1",
                                           fx.server.port());
        if (!conn.request("POST", "/v1/jobs", resp, kSubmitNormal))
            continue;
        if (resp.status != 429 && resp.status != 503)
            continue;
        ++report.refusals;
        const int hint = resp.retryAfterSeconds();
        if (hint >= 1) {
            ++report.honored;
            const double h = static_cast<double>(hint);
            report.minHintSeconds = report.minHintSeconds == 0.0
                ? h
                : std::min(report.minHintSeconds, h);
            report.maxHintSeconds =
                std::max(report.maxHintSeconds, h);
        }
    }

    // Honour the hint: resume the engine, back off for the largest
    // suggested interval (bounded for bench sanity), then resubmit.
    fx.engine.resume();
    const double backoff =
        std::min(report.maxHintSeconds > 0.0 ? report.maxHintSeconds
                                             : 1.0,
                 2.0);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(backoff));
    int succeeded = 0;
    for (int j = 0; j < jobs; ++j) {
        HttpClientResponse resp;
        if (!conn.connected())
            conn = HttpConnection::connect("127.0.0.1",
                                           fx.server.port());
        if (conn.request("POST", "/v1/jobs", resp, kSubmitNormal)
            && resp.status == 201)
            ++succeeded;
    }
    report.allSucceeded = succeeded == jobs && report.refusals > 0;
    fx.engine.waitIdle();
    return report;
}

void
writeJson(const std::string &path, bool quick, int iterations,
          const std::vector<ClosedLoopRow> &closed, double capacity,
          const std::vector<OpenLoopRow> &open, const SseReport &sse,
          const RetryReport &retry, u64 connections)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << path << "\n";
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"bench_serve\",\n";
    out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    out << "  \"model\": \"tiny\",\n";
    out << "  \"iterations\": " << iterations << ",\n";
    out << "  \"closed_loop\": [\n";
    for (size_t i = 0; i < closed.size(); ++i) {
        const ClosedLoopRow &r = closed[i];
        out << "    {\"clients\": " << r.clients
            << ", \"completed\": " << r.completed << ", \"errors\": "
            << r.errors << ", \"rps\": " << r.rps
            << ",\n     \"latency_p50_ms\": " << r.p50Ms
            << ", \"latency_p99_ms\": " << r.p99Ms << "}"
            << (i + 1 < closed.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"capacity_rps\": " << capacity << ",\n";
    out << "  \"open_loop\": [\n";
    for (size_t i = 0; i < open.size(); ++i) {
        const OpenLoopRow &r = open[i];
        out << "    {\"target_rps\": " << r.targetRps
            << ", \"senders\": " << r.senders
            << ", \"achieved_offered_rps\": " << r.achievedRps
            << ",\n     \"offered\": " << r.offered
            << ", \"accepted\": " << r.accepted
            << ", \"rejected_429\": " << r.rejected429
            << ", \"rejected_503\": " << r.rejected503
            << ",\n     \"transport_errors\": " << r.transportErrors
            << ", \"submit_p99_ms\": " << r.submitP99Ms
            << ", \"healthz_p99_ms\": " << r.healthzP99Ms
            << ", \"drain_seconds\": " << r.drainSeconds << "}"
            << (i + 1 < open.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"sse\": {\n";
    out << "    \"jobs\": " << sse.jobs << ",\n";
    out << "    \"repeats\": " << sse.repeats << ",\n";
    out << "    \"iterations\": " << sse.iterations << ",\n";
    out << "    \"offered_rps\": " << sse.offeredRps << ",\n";
    out << "    \"events_match\": "
        << (sse.eventsMatch ? "true" : "false") << ",\n";
    out << "    \"failures\": " << sse.failures << ",\n";
    out << "    \"status_polled_wall_ms\": " << sse.polledWallMs
        << ",\n";
    out << "    \"sse_waited_wall_ms\": " << sse.sseWallMs << ",\n";
    out << "    \"added_wall_pct\": " << sse.addedPct() << "\n";
    out << "  },\n";
    out << "  \"retry\": {\n";
    out << "    \"jobs\": " << retry.jobs << ",\n";
    out << "    \"refusals\": " << retry.refusals << ",\n";
    out << "    \"honored_hints\": " << retry.honored << ",\n";
    out << "    \"hint_seconds_min\": " << retry.minHintSeconds
        << ",\n";
    out << "    \"hint_seconds_max\": " << retry.maxHintSeconds
        << ",\n";
    out << "    \"all_succeeded\": "
        << (retry.allSucceeded ? "true" : "false") << "\n";
    out << "  },\n";
    out << "  \"connections_accepted\": " << connections << "\n";
    out << "}\n";
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::quickMode(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--quick") {
            std::cerr << "usage: " << argv[0] << " [--quick]\n";
            return 2;
        }
    }
    const double closedSeconds = quick ? 0.4 : 1.5;
    const double openSeconds = quick ? 1.0 : 2.5;
    const std::vector<int> levels =
        quick ? std::vector<int>{1, 2, 4}
              : std::vector<int>{1, 2, 4, 8};

    Fixture fx;
    const int iterations = makeTinyConfig().iterations;
    std::cout << "serving tiny MLD (" << iterations
              << " iterations) on 127.0.0.1:" << fx.server.port()
              << ", " << fx.engine.workerCount() << " workers\n\n";

    // Closed loop: the latency-under-throughput curve.
    std::cout << "closed loop (" << closedSeconds << "s per level):\n";
    std::vector<ClosedLoopRow> closed;
    double capacity = 0.0;
    for (int clients : levels) {
        closed.push_back(runClosedLoop(fx, clients, closedSeconds));
        const ClosedLoopRow &r = closed.back();
        capacity = std::max(capacity, r.rps);
        std::cout << "  " << r.clients << " clients: " << r.completed
                  << " done, " << r.rps << " req/s, p50 " << r.p50Ms
                  << " ms, p99 " << r.p99Ms << " ms, " << r.errors
                  << " errors\n";
    }

    // Open loop at fractions of the measured capacity.
    std::cout << "\nopen loop (" << openSeconds
              << "s per rate, capacity " << capacity << " req/s):\n";
    std::vector<OpenLoopRow> open;
    for (double factor : {0.5, 1.0, 2.0}) {
        const double rate = std::max(capacity * factor, 1.0);
        open.push_back(runOpenLoop(fx, rate, openSeconds));
        const OpenLoopRow &r = open.back();
        std::cout << "  " << factor << "x (" << r.targetRps
                  << " req/s, " << r.senders << " senders): offered "
                  << r.offered << " (" << r.achievedRps
                  << " req/s), accepted " << r.accepted << ", 429 "
                  << r.rejected429 << ", 503 " << r.rejected503
                  << ", healthz p99 " << r.healthzP99Ms
                  << " ms, drain " << r.drainSeconds << " s\n";
    }

    // SSE cost at fixed load + the per-iteration event contract.
    const SseReport sse =
        runSseScenario(fx, quick ? 32 : 48, quick ? 2 : 3);
    std::cout << "\nSSE (" << sse.jobs << " slow jobs x "
              << sse.repeats << " interleaved repeats at "
              << sse.offeredRps << " req/s): events match "
              << (sse.eventsMatch ? "yes" : "NO")
              << ", status-polled wall " << sse.polledWallMs
              << " ms vs sse-waited " << sse.sseWallMs
              << " ms (added " << sse.addedPct() << "%, "
              << sse.failures << " failures)\n";

    // Refused submissions retried per the server's own hint.
    RetryReport retry = runRetryScenario(fx, quick ? 3 : 4);
    std::cout << "\nretry: " << retry.refusals << " refusals, "
              << retry.honored << " honored hints ("
              << retry.minHintSeconds << ".." << retry.maxHintSeconds
              << " s), resubmits "
              << (retry.allSucceeded ? "all succeeded" : "FAILED")
              << "\n";

    const u64 connections = fx.server.connectionsAccepted();
    writeJson("BENCH_serve.json", quick, iterations, closed, capacity,
              open, sse, retry, connections);

    // ------------------------------------------------------- gates
    bool ok = true;
    for (const ClosedLoopRow &r : closed) {
        if (r.completed == 0 || r.rps <= 0.0 || r.errors > 0) {
            std::cerr << "GATE: closed loop at " << r.clients
                      << " clients: " << r.completed << " done, "
                      << r.errors << " errors\n";
            ok = false;
        }
    }
    for (const OpenLoopRow &r : open) {
        if (r.achievedRps < 0.95 * r.targetRps) {
            std::cerr << "GATE: open loop offered " << r.achievedRps
                      << " req/s of " << r.targetRps
                      << " target — the generator could not keep "
                         "up\n";
            ok = false;
        }
    }
    const OpenLoopRow &overload = open.back();
    if (overload.rejected429 + overload.rejected503 == 0) {
        std::cerr << "GATE: no shedding at 2x capacity (accepted "
                  << overload.accepted << "/" << overload.offered
                  << ") — the server queued without bound\n";
        ok = false;
    }
    if (overload.transportErrors > 0
        || overload.healthzP99Ms > 1000.0) {
        std::cerr << "GATE: server stalled under 2x overload ("
                  << overload.transportErrors
                  << " transport errors, healthz p99 "
                  << overload.healthzP99Ms << " ms)\n";
        ok = false;
    }
    if (!sse.eventsMatch) {
        std::cerr << "GATE: SSE progress events != iterations\n";
        ok = false;
    }
    if (sse.failures > 0) {
        std::cerr << "GATE: " << sse.failures
                  << " SSE-scenario jobs failed\n";
        ok = false;
    }
    if (sse.addedPct() >= 25.0) {
        std::cerr << "GATE: SSE adds " << sse.addedPct()
                  << "% wall-time per job (>= 25%)\n";
        ok = false;
    }
    if (retry.refusals == 0 || retry.honored != retry.refusals
        || !retry.allSucceeded) {
        std::cerr << "GATE: retry path (" << retry.refusals
                  << " refusals, " << retry.honored
                  << " honored, succeeded="
                  << (retry.allSucceeded ? "yes" : "no") << ")\n";
        ok = false;
    }
    const EngineMetrics m = fx.engine.snapshot();
    if (fx.engine.inFlight() != 0) {
        std::cerr << "GATE: engine did not drain (in flight: "
                  << fx.engine.inFlight() << ")\n";
        ok = false;
    }
    std::cout << "\nengine totals: accepted " << m.accepted()
              << ", completed " << m.completed() << ", shed "
              << m.shed() << ", over " << connections
              << " connections\n";
    std::cout << (ok ? "all gates passed\n" : "GATES FAILED\n");
    return ok ? 0 : 1;
}
