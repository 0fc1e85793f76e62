/**
 * @file
 * Tests for the HTTP front door's REST mapping.
 *
 * The golden half drives HttpFront::handle() with hand-built
 * HttpRequest values and a BufferResponseWriter — no sockets — and
 * pins the mapping contract: every RejectReason to its status code
 * and Retry-After header, malformed bodies to 400, unknown models to
 * 404, the job lifecycle (submit / status / cancel) and the SSE
 * event stream. The socket half runs the full server and verifies
 * the two streaming contracts that need a real connection: one
 * progress event per denoising iteration on the wire, and a client
 * disconnect mid-stream cancelling the running job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exion/model/config.h"
#include "exion/net/http_client.h"
#include "exion/net/http_server.h"
#include "exion/serve/batch_engine.h"
#include "exion/serve/http_front.h"

namespace exion
{
namespace
{

HttpRequest
makeRequest(const std::string &method, const std::string &target,
            const std::string &body = "")
{
    HttpRequest req;
    req.method = method;
    req.target = target;
    req.version = "HTTP/1.1";
    req.body = body;
    return req;
}

/** Status code of the one-shot response captured by the writer. */
int
statusOf(const BufferResponseWriter &writer)
{
    const std::string &wire = writer.bytes();
    if (wire.size() < 12 || wire.compare(0, 9, "HTTP/1.1 ") != 0)
        return -1;
    return std::atoi(wire.c_str() + 9);
}

/** Value of a response header, or "" when absent. */
std::string
headerOf(const BufferResponseWriter &writer, const std::string &name)
{
    const std::string needle = "\r\n" + name + ": ";
    const size_t at = writer.bytes().find(needle);
    if (at == std::string::npos)
        return "";
    const size_t begin = at + needle.size();
    const size_t end = writer.bytes().find("\r\n", begin);
    return writer.bytes().substr(begin, end - begin);
}

std::string
bodyOf(const BufferResponseWriter &writer)
{
    const size_t at = writer.bytes().find("\r\n\r\n");
    return at == std::string::npos ? ""
                                   : writer.bytes().substr(at + 4);
}

long long
jsonInt(const std::string &body, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t at = body.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::atoll(body.c_str() + at + needle.size());
}

/** Engine + front over the tiny model, golden-testable. */
struct FrontFixture
{
    BatchEngine engine;
    HttpFront front;

    static BatchEngine::Options options(u64 maxQueued, u64 shedAt)
    {
        BatchEngine::Options opts;
        opts.workers = 2;
        opts.admission.maxQueuedPerClass = maxQueued;
        opts.admission.shedThreshold = shedAt;
        opts.admission.shedBelow = Priority::Normal;
        return opts;
    }

    static HttpFront::Options frontOptions()
    {
        HttpFront::Options opts;
        opts.sseHeartbeatSeconds = 0.05;
        return opts;
    }

    explicit FrontFixture(u64 maxQueued = 0, u64 shedAt = 0)
        : engine(options(maxQueued, shedAt)),
          front(engine, frontOptions())
    {
        engine.addModel(makeTinyConfig());
    }

    int handle(const HttpRequest &req, BufferResponseWriter &writer)
    {
        front.handle(req, writer);
        return statusOf(writer);
    }

    /** Submits one job, returns its id (asserts acceptance). */
    long long submit(const std::string &body =
                         "{\"benchmark\": \"MLD\"}")
    {
        BufferResponseWriter writer;
        EXPECT_EQ(handle(makeRequest("POST", "/v1/jobs", body),
                         writer),
                  201);
        return jsonInt(bodyOf(writer), "id");
    }

    /** Polls GET /v1/jobs/{id} until its state leaves queued/running. */
    std::string waitTerminal(long long id)
    {
        for (int spin = 0; spin < 5000; ++spin) {
            BufferResponseWriter writer;
            handle(makeRequest("GET",
                               "/v1/jobs/" + std::to_string(id)),
                   writer);
            const std::string body = bodyOf(writer);
            if (body.find("\"state\": \"queued\"") == std::string::npos
                && body.find("\"state\": \"running\"")
                    == std::string::npos)
                return body;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        return "<timeout>";
    }
};

// ----------------------------------------------------- plain routes

TEST(HttpFront, HealthzAndMetrics)
{
    FrontFixture fx;
    BufferResponseWriter health;
    EXPECT_EQ(fx.handle(makeRequest("GET", "/healthz"), health), 200);
    EXPECT_EQ(bodyOf(health), "ok\n");

    BufferResponseWriter metrics;
    EXPECT_EQ(fx.handle(makeRequest("GET", "/metrics"), metrics), 200);
    EXPECT_NE(bodyOf(metrics).find("exion_serve_accepted_total"),
              std::string::npos);
    EXPECT_NE(headerOf(metrics, "Content-Type").find("text/plain"),
              std::string::npos);
}

TEST(HttpFront, UnknownRoutesAre404)
{
    FrontFixture fx;
    for (const char *target :
         {"/", "/v2/jobs", "/v1/jobs/abc", "/v1/jobs/1/other",
          "/v1/jobs/999999"}) {
        BufferResponseWriter writer;
        EXPECT_EQ(fx.handle(makeRequest("GET", target), writer), 404)
            << target;
    }
}

TEST(HttpFront, WrongMethodsAre405WithAllow)
{
    FrontFixture fx;
    BufferResponseWriter writer;
    EXPECT_EQ(fx.handle(makeRequest("PUT", "/v1/jobs"), writer), 405);
    EXPECT_EQ(headerOf(writer, "Allow"), "POST");

    BufferResponseWriter health;
    EXPECT_EQ(fx.handle(makeRequest("DELETE", "/healthz"), health),
              405);
    EXPECT_EQ(headerOf(health, "Allow"), "GET");
}

// ------------------------------------------------------- submission

TEST(HttpFront, SubmitAcceptReturns201WithLocation)
{
    FrontFixture fx;
    BufferResponseWriter writer;
    ASSERT_EQ(fx.handle(makeRequest(
                            "POST", "/v1/jobs",
                            "{\"benchmark\": \"MLD\", \"mode\": "
                            "\"exion\", \"seed\": 7, \"priority\": "
                            "\"high\", \"quantize\": true}"),
                        writer),
              201);
    const long long id = jsonInt(bodyOf(writer), "id");
    EXPECT_GT(id, 0);
    EXPECT_EQ(headerOf(writer, "Location"),
              "/v1/jobs/" + std::to_string(id));
    EXPECT_EQ(fx.front.jobCount(), 1u);
    // The submitted attributes come back in the status document.
    const std::string status = fx.waitTerminal(id);
    EXPECT_NE(status.find("\"state\": \"done\""), std::string::npos);
    EXPECT_NE(status.find("\"mode\": \"exion\""), std::string::npos);
    EXPECT_NE(status.find("\"priority\": \"high\""),
              std::string::npos);
    EXPECT_NE(status.find("\"quantize\": true"), std::string::npos);
    EXPECT_NE(status.find("\"seed\": 7"), std::string::npos);
}

TEST(HttpFront, MalformedBodiesAre400)
{
    FrontFixture fx;
    for (const char *body : {
             "",                               // not JSON at all
             "garbage",                        // ditto
             "[1, 2]",                         // not an object
             "{\"benchmark\": \"MLD\"",        // unterminated
             "{\"benchmark\": \"MLD\"} extra", // trailing content
             "{\"benchmark\": {\"x\": 1}}",    // nested value
             "{\"benchmark\": \"MLD\", \"benchmark\": \"MLD\"}",
             "{}",                        // missing benchmark
             "{\"benchmark\": 3}",        // wrong type
             "{\"seed\": -1, \"benchmark\": \"MLD\"}",
             "{\"seed\": 1.5, \"benchmark\": \"MLD\"}",
             "{\"seed\": 1e400, \"benchmark\": \"MLD\"}",
             "{\"seed\": 18446744073709551616, \"benchmark\": \"MLD\"}",
             "{\"seed\": 9007199254740993, \"benchmark\": \"MLD\"}",
             "{\"mode\": \"warp\", \"benchmark\": \"MLD\"}",
             "{\"priority\": \"vip\", \"benchmark\": \"MLD\"}",
             "{\"quantize\": \"yes\", \"benchmark\": \"MLD\"}",
             "{\"deadline_seconds\": -2, \"benchmark\": \"MLD\"}",
             "{\"benchmark\": \"MLD\", \"typo_field\": 1}",
         }) {
        BufferResponseWriter writer;
        EXPECT_EQ(fx.handle(makeRequest("POST", "/v1/jobs", body),
                            writer),
                  400)
            << body;
    }
    EXPECT_EQ(fx.front.jobCount(), 0u);
}

TEST(HttpFront, UnknownModelNameIs404)
{
    FrontFixture fx;
    BufferResponseWriter writer;
    // Not a benchmark name at all.
    EXPECT_EQ(fx.handle(makeRequest("POST", "/v1/jobs",
                                    "{\"benchmark\": \"nonesuch\"}"),
                        writer),
              404);
    // A real benchmark that this engine has not registered: the
    // engine's own UnknownModel rejection, mapped to the same 404.
    BufferResponseWriter writer2;
    EXPECT_EQ(fx.handle(makeRequest("POST", "/v1/jobs",
                                    "{\"benchmark\": \"DiT\"}"),
                        writer2),
              404);
    EXPECT_NE(bodyOf(writer2).find("unknown-model"),
              std::string::npos);
    EXPECT_EQ(fx.front.jobCount(), 0u);
}

// --------------------------------------- admission refusal mapping

TEST(HttpFront, QueueFullIs429WithRetryAfter)
{
    FrontFixture fx(/*maxQueued=*/1, /*shedAt=*/0);
    fx.engine.pause(); // keep submissions queued
    ASSERT_GT(fx.submit(), 0);
    BufferResponseWriter writer;
    EXPECT_EQ(fx.handle(makeRequest("POST", "/v1/jobs",
                                    "{\"benchmark\": \"MLD\"}"),
                        writer),
              429);
    const std::string retry = headerOf(writer, "Retry-After");
    ASSERT_FALSE(retry.empty());
    EXPECT_GE(std::atoi(retry.c_str()), 1);
    EXPECT_NE(bodyOf(writer).find("\"reason\": \"queue-full\""),
              std::string::npos);
    EXPECT_EQ(jsonInt(bodyOf(writer), "retry_after_seconds"),
              std::atoi(retry.c_str()));
    // The refused submission leaves no job behind.
    EXPECT_EQ(fx.front.jobCount(), 1u);
    fx.engine.resume();
    fx.engine.waitIdle();
}

TEST(HttpFront, LoadShedLowIs503WithRetryAfter)
{
    FrontFixture fx(/*maxQueued=*/8, /*shedAt=*/1);
    fx.engine.pause();
    ASSERT_GT(fx.submit(), 0); // backlog reaches the watermark
    BufferResponseWriter writer;
    EXPECT_EQ(fx.handle(makeRequest("POST", "/v1/jobs",
                                    "{\"benchmark\": \"MLD\", "
                                    "\"priority\": \"low\"}"),
                        writer),
              503);
    EXPECT_FALSE(headerOf(writer, "Retry-After").empty());
    EXPECT_NE(bodyOf(writer).find("\"reason\": \"load-shed-low\""),
              std::string::npos);
    fx.engine.resume();
    fx.engine.waitIdle();
}

TEST(HttpFront, StoppedIs503AndClosesTheConnection)
{
    FrontFixture fx;
    fx.engine.shutdown();
    BufferResponseWriter writer;
    EXPECT_EQ(fx.handle(makeRequest("POST", "/v1/jobs",
                                    "{\"benchmark\": \"MLD\"}"),
                        writer),
              503);
    EXPECT_TRUE(writer.connectionClose());
    EXPECT_NE(bodyOf(writer).find("shutting down"),
              std::string::npos);
    // A draining server tells the client not to retry here: no
    // Retry-After on Stopped.
    EXPECT_EQ(headerOf(writer, "Retry-After"), "");
}

// ---------------------------------------------------- job lifecycle

TEST(HttpFront, StatusReportsResultFields)
{
    FrontFixture fx;
    const long long id = fx.submit(
        "{\"benchmark\": \"MLD\", \"mode\": \"dense\"}");
    const std::string status = fx.waitTerminal(id);
    EXPECT_NE(status.find("\"state\": \"done\""), std::string::npos);
    EXPECT_GT(jsonInt(status, "output_rows"), 0);
    EXPECT_GT(jsonInt(status, "output_cols"), 0);
    EXPECT_GT(jsonInt(status, "ops_executed"), 0);
    const ModelConfig cfg = makeTinyConfig();
    EXPECT_EQ(jsonInt(status, "iterations_done"), cfg.iterations);
}

TEST(HttpFront, CancelQueuedJobReportsCancelled)
{
    FrontFixture fx;
    fx.engine.pause(); // the job stays queued, cancel always wins
    const long long id = fx.submit();
    BufferResponseWriter writer;
    EXPECT_EQ(fx.handle(makeRequest("DELETE",
                                    "/v1/jobs/" + std::to_string(id)),
                        writer),
              200);
    EXPECT_NE(bodyOf(writer).find("\"cancelled\": true"),
              std::string::npos);
    fx.engine.resume();
    const std::string status = fx.waitTerminal(id);
    EXPECT_NE(status.find("\"state\": \"cancelled\""),
              std::string::npos);
    const EngineMetrics m = fx.engine.snapshot();
    EXPECT_EQ(m.cancelled(), 1u);
}

TEST(HttpFront, CancelFinishedJobReportsFinished)
{
    FrontFixture fx;
    const long long id = fx.submit();
    fx.waitTerminal(id);
    BufferResponseWriter writer;
    EXPECT_EQ(fx.handle(makeRequest("DELETE",
                                    "/v1/jobs/" + std::to_string(id)),
                        writer),
              200);
    EXPECT_NE(bodyOf(writer).find("\"cancelled\": false"),
              std::string::npos);
    EXPECT_NE(bodyOf(writer).find("\"state\": \"finished\""),
              std::string::npos);
}

/** body with its "seconds" value (six decimals) replaced by S. */
std::string
maskSeconds(const std::string &body)
{
    const std::string key = "\"seconds\": ";
    const size_t at = body.find(key);
    if (at == std::string::npos)
        return body;
    const size_t begin = at + key.size();
    const size_t dot = body.find('.', begin);
    const size_t end = body.find(',', begin);
    if (dot == std::string::npos || end == std::string::npos
        || end - dot != 7)
        return body;
    return body.substr(0, begin) + "S" + body.substr(end);
}

TEST(HttpFront, DoneStatusBodyGolden)
{
    FrontFixture fx;
    const long long id = fx.submit(
        "{\"benchmark\": \"MLD\", \"seed\": 5, \"quantize\": true}");
    const std::string status = fx.waitTerminal(id);

    // The same request straight through the engine gives the result
    // fields the body must report.
    ServeRequest req;
    req.benchmark = Benchmark::MLD;
    req.noiseSeed = 5;
    req.quantize = true;
    const RequestResult r = fx.engine.submit(req).get();
    const std::string want = "{\"id\": " + std::to_string(id)
        + ", \"state\": \"done\", \"benchmark\": \"MLD\", \"mode\": "
          "\"exion\", \"priority\": \"normal\", \"quantize\": true, "
          "\"seed\": 5, \"iterations_done\": "
        + std::to_string(makeTinyConfig().iterations)
        + ", \"seconds\": S, \"output_rows\": "
        + std::to_string(r.output.rows()) + ", \"output_cols\": "
        + std::to_string(r.output.cols()) + ", \"ops_executed\": "
        + std::to_string(r.stats.totalExecuted()) + ", \"ops_dense\": "
        + std::to_string(r.stats.totalDense()) + "}\n";
    EXPECT_EQ(maskSeconds(status), want);

    // The SSE stream of the finished job ends in the same document.
    BufferResponseWriter events;
    ASSERT_EQ(fx.handle(makeRequest("GET", "/v1/jobs/"
                                               + std::to_string(id)
                                               + "/events"),
                        events),
              200);
    EXPECT_NE(events.bytes().find("event: done\ndata: "
                                  + status.substr(0, status.size() - 1)
                                  + "\n\n"),
              std::string::npos);
}

TEST(HttpFront, CancelledStatusAndDeleteBodiesGolden)
{
    FrontFixture fx;
    fx.engine.pause();
    const long long id = fx.submit();
    ASSERT_EQ(id, 1);
    BufferResponseWriter cancel;
    ASSERT_EQ(fx.handle(makeRequest("DELETE", "/v1/jobs/1"), cancel),
              200);
    EXPECT_EQ(bodyOf(cancel),
              "{\"id\": 1, \"cancelled\": true, \"state\": "
              "\"cancelling\"}\n");
    const std::string cancelled =
        "{\"id\": 1, \"state\": \"cancelled\", \"benchmark\": \"MLD\", "
        "\"mode\": \"exion\", \"priority\": \"normal\", \"quantize\": "
        "false, \"seed\": 7, \"iterations_done\": 0}";
    EXPECT_EQ(fx.waitTerminal(id), cancelled + "\n");
    BufferResponseWriter again;
    ASSERT_EQ(fx.handle(makeRequest("DELETE", "/v1/jobs/1"), again),
              200);
    EXPECT_EQ(bodyOf(again),
              "{\"id\": 1, \"cancelled\": false, \"state\": "
              "\"finished\"}\n");
    BufferResponseWriter events;
    ASSERT_EQ(fx.handle(makeRequest("GET", "/v1/jobs/1/events"), events),
              200);
    EXPECT_NE(events.bytes().find("event: done\ndata: " + cancelled
                                  + "\n\n"),
              std::string::npos);
    fx.engine.resume();
}

TEST(HttpFront, FinishedJobsAreEvicted)
{
    BatchEngine engine(FrontFixture::options(0, 0));
    engine.addModel(makeTinyConfig());
    HttpFront::Options opts;
    opts.sseHeartbeatSeconds = 0.05;
    opts.maxFinishedJobs = 2;
    HttpFront front(engine, opts);
    for (int i = 0; i < 6; ++i) {
        BufferResponseWriter writer;
        front.handle(makeRequest("POST", "/v1/jobs",
                                 "{\"benchmark\": \"MLD\"}"),
                     writer);
        ASSERT_EQ(statusOf(writer), 201);
    }
    engine.waitIdle();
    // One more submission triggers eviction of settled jobs.
    BufferResponseWriter writer;
    front.handle(makeRequest("POST", "/v1/jobs",
                             "{\"benchmark\": \"MLD\"}"),
                 writer);
    ASSERT_EQ(statusOf(writer), 201);
    EXPECT_LE(front.jobCount(), 3u);
    engine.waitIdle();
}

// -------------------------------------------------------------- SSE

TEST(HttpFront, HeartbeatMustBeFiniteAndPositive)
{
    // Regression: a zero, negative or NaN heartbeat made every SSE
    // stream spin on a zero wait, writing heartbeat chunks back to
    // back. The front refuses such an interval at construction.
    BatchEngine engine(FrontFixture::options(0, 0));
    for (const double bad : {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        HttpFront::Options opts;
        opts.sseHeartbeatSeconds = bad;
        EXPECT_THROW({ HttpFront front(engine, opts); },
                     std::invalid_argument)
            << "heartbeat " << bad;
    }
    HttpFront::Options opts;
    opts.sseHeartbeatSeconds = 0.05;
    EXPECT_NO_THROW({ HttpFront front(engine, opts); });
}

TEST(HttpFront, SseStreamsOneEventPerIterationGolden)
{
    FrontFixture fx;
    const long long id = fx.submit();
    BufferResponseWriter writer;
    // handle() parks on the stream until the job finishes; the tiny
    // model makes that milliseconds.
    EXPECT_EQ(fx.handle(makeRequest("GET",
                                    "/v1/jobs/" + std::to_string(id)
                                        + "/events"),
                        writer),
              200);
    const std::string &wire = writer.bytes();
    EXPECT_NE(wire.find("Content-Type: text/event-stream"),
              std::string::npos);
    const ModelConfig cfg = makeTinyConfig();
    for (int i = 0; i < cfg.iterations; ++i)
        EXPECT_NE(wire.find("event: progress\ndata: {\"iteration\": "
                            + std::to_string(i) + "}"),
                  std::string::npos)
            << "iteration " << i;
    EXPECT_NE(wire.find("event: done"), std::string::npos);
    EXPECT_NE(wire.find("\"state\": \"done\""), std::string::npos);
    // The stream terminated cleanly (zero-length chunk).
    EXPECT_NE(wire.find("0\r\n\r\n"), std::string::npos);
}

/**
 * Writer whose sends still land in the buffer (the head and
 * heartbeats go out) but whose peerClosed() probe reports the client
 * gone — the shape of a real disconnect noticed between writes.
 */
class DepartedClientWriter : public BufferResponseWriter
{
  public:
    bool peerClosed() override { return true; }
};

TEST(HttpFront, SseDisconnectCancelsTheJobGolden)
{
    FrontFixture fx;
    fx.engine.pause(); // job never progresses; stream idles
    const long long id = fx.submit();
    DepartedClientWriter writer;
    EXPECT_EQ(fx.handle(makeRequest("GET",
                                    "/v1/jobs/" + std::to_string(id)
                                        + "/events"),
                        writer),
              200);
    fx.engine.resume();
    const std::string status = fx.waitTerminal(id);
    EXPECT_NE(status.find("\"state\": \"cancelled\""),
              std::string::npos);
}

// ------------------------------------------------- socket-level SSE

/** Full server over the front for the on-the-wire contracts. */
struct ServerFixture
{
    BatchEngine engine;
    HttpFront front;
    HttpServer server;

    ServerFixture()
        : engine(FrontFixture::options(0, 0)),
          front(engine, FrontFixture::frontOptions()),
          server(HttpServer::Options{},
                 [this](const HttpRequest &req, ResponseWriter &w) {
                     front.handle(req, w);
                 })
    {
        engine.addModel(makeTinyConfig());
        server.start();
    }
};

TEST(HttpFrontSocket, SseDeliversOneEventPerIterationOnTheWire)
{
    ServerFixture fx;
    HttpConnection conn =
        HttpConnection::connect("127.0.0.1", fx.server.port());
    ASSERT_TRUE(conn.connected());
    HttpClientResponse resp;
    ASSERT_TRUE(conn.request("POST", "/v1/jobs", resp,
                             "{\"benchmark\": \"MLD\"}"));
    ASSERT_EQ(resp.status, 201);
    const long long id = jsonInt(resp.body, "id");

    HttpClientResponse head;
    ASSERT_TRUE(conn.startStream(
        "/v1/jobs/" + std::to_string(id) + "/events", head));
    ASSERT_EQ(head.status, 200);
    int progress = 0;
    bool done = false;
    std::string stream, data;
    while (conn.readStreamData(data)) {
        stream += data;
        data.clear();
    }
    size_t at;
    std::string pending = stream;
    while ((at = pending.find("\n\n")) != std::string::npos) {
        const std::string event = pending.substr(0, at);
        pending.erase(0, at + 2);
        if (event.rfind("event: progress", 0) == 0)
            ++progress;
        else if (event.rfind("event: done", 0) == 0)
            done = true;
    }
    EXPECT_EQ(progress, makeTinyConfig().iterations);
    EXPECT_TRUE(done);
}

TEST(HttpFrontSocket, ClientDisconnectMidStreamCancelsTheJob)
{
    ServerFixture fx;
    fx.engine.pause(); // the job stays queued; the stream heartbeats

    HttpConnection submitConn =
        HttpConnection::connect("127.0.0.1", fx.server.port());
    HttpClientResponse resp;
    ASSERT_TRUE(submitConn.request("POST", "/v1/jobs", resp,
                                   "{\"benchmark\": \"MLD\"}"));
    ASSERT_EQ(resp.status, 201);
    const long long id = jsonInt(resp.body, "id");

    HttpConnection streamConn =
        HttpConnection::connect("127.0.0.1", fx.server.port());
    HttpClientResponse head;
    ASSERT_TRUE(streamConn.startStream(
        "/v1/jobs/" + std::to_string(id) + "/events", head));
    ASSERT_EQ(head.status, 200);
    std::string data;
    ASSERT_TRUE(streamConn.readStreamData(data)); // stream is live
    // The client vanishes mid-stream; the next heartbeat notices
    // and cancels the queued job.
    streamConn.close();

    const std::string target = "/v1/jobs/" + std::to_string(id);
    bool cancelled = false;
    for (int spin = 0; spin < 200 && !cancelled; ++spin) {
        HttpClientResponse status;
        ASSERT_TRUE(
            submitConn.request("GET", target, status));
        cancelled = status.body.find("\"state\": \"cancelled\"")
            != std::string::npos;
        if (!cancelled)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(cancelled)
        << "job was not cancelled after client disconnect";
    fx.engine.resume();
    const EngineMetrics m = fx.engine.snapshot();
    EXPECT_EQ(m.cancelled(), 1u);
}

TEST(HttpFrontSocket, ConcurrentSubmitAndStatusOnSeveralConnections)
{
    // Submitters on their own connections poll their jobs while a
    // prober GETs ids that are being published, and a small retention
    // cap makes every submission evict finished jobs other threads
    // just created. Every response must be well formed; run under
    // TSan, the job table must show no data race.
    BatchEngine engine(FrontFixture::options(0, 0));
    HttpFront::Options opts = FrontFixture::frontOptions();
    opts.maxFinishedJobs = 2;
    HttpFront front(engine, opts);
    HttpServer server(HttpServer::Options{},
                      [&front](const HttpRequest &req,
                               ResponseWriter &w) {
                          front.handle(req, w);
                      });
    engine.addModel(makeTinyConfig());
    server.start();

    const int submitters = 3, jobsEach = 6;
    std::atomic<bool> stop{false};
    std::atomic<int> bad{0}, done{0};
    const auto wellFormed = [](const HttpClientResponse &resp) {
        if (resp.status == 404)
            return true;
        return resp.status == 200
            && resp.body.rfind("{\"id\": ", 0) == 0
            && resp.body.find("\"iterations_done\": ")
                != std::string::npos;
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < submitters; ++t) {
        threads.emplace_back([&] {
            HttpConnection conn =
                HttpConnection::connect("127.0.0.1", server.port());
            for (int j = 0; j < jobsEach; ++j) {
                HttpClientResponse resp;
                if (!conn.request("POST", "/v1/jobs", resp,
                                  "{\"benchmark\": \"MLD\"}")
                    || resp.status != 201) {
                    ++bad;
                    continue;
                }
                const std::string target =
                    "/v1/jobs" + std::string("/")
                    + std::to_string(jsonInt(resp.body, "id"));
                for (int spin = 0; spin < 5000; ++spin) {
                    HttpClientResponse status;
                    if (!conn.request("GET", target, status)
                        || !wellFormed(status)) {
                        ++bad;
                        break;
                    }
                    if (status.status == 404
                        || status.body.find("\"state\": \"done\"")
                            != std::string::npos) {
                        ++done;
                        break;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            }
        });
    }
    std::thread prober([&] {
        HttpConnection conn =
            HttpConnection::connect("127.0.0.1", server.port());
        for (int i = 0; !stop; i = (i + 1) % (submitters * jobsEach)) {
            HttpClientResponse status;
            if (!conn.request("GET", "/v1/jobs/" + std::to_string(i + 1),
                              status)
                || !wellFormed(status))
                ++bad;
        }
    });
    for (std::thread &t : threads)
        t.join();
    stop = true;
    prober.join();
    engine.waitIdle();
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(done.load(), submitters * jobsEach);
    EXPECT_LE(front.jobCount(), 3u);
}

// ------------------------------------------- Retry-After round-trip

TEST(HttpClientResponseTest, RetryAfterSecondsParsesTheHeader)
{
    HttpClientResponse resp;
    EXPECT_EQ(resp.retryAfterSeconds(), -1); // absent

    resp.headers.emplace_back("retry-after", "7");
    EXPECT_EQ(resp.retryAfterSeconds(), 7);

    resp.headers.clear();
    resp.headers.emplace_back("retry-after", "0");
    EXPECT_EQ(resp.retryAfterSeconds(), 0);

    // HTTP-date form and other non-numeric values are not usable as
    // a sleep interval: report "no hint" rather than guessing.
    resp.headers.clear();
    resp.headers.emplace_back("retry-after",
                              "Fri, 07 Aug 2026 00:00:00 GMT");
    EXPECT_EQ(resp.retryAfterSeconds(), -1);

    resp.headers.clear();
    resp.headers.emplace_back("retry-after", "");
    EXPECT_EQ(resp.retryAfterSeconds(), -1);

    resp.headers.clear();
    resp.headers.emplace_back("retry-after", "99999999999999999999");
    EXPECT_EQ(resp.retryAfterSeconds(),
              std::numeric_limits<int>::max());
}

TEST(HttpFrontSocket, RetryAfterHintRoundTripsFromTheEngine)
{
    // A full engine whose 429 carries the engine's own backoff hint:
    // the client-side parse must recover exactly the value the front
    // derived from SubmitOutcome::suggestedBackoffSeconds.
    BatchEngine engine(FrontFixture::options(/*maxQueued=*/1,
                                             /*shedAt=*/0));
    HttpFront front(engine, FrontFixture::frontOptions());
    HttpServer server(HttpServer::Options{},
                      [&front](const HttpRequest &req,
                               ResponseWriter &w) {
                          front.handle(req, w);
                      });
    engine.addModel(makeTinyConfig());
    server.start();
    engine.pause(); // the first job stays queued, filling the class

    HttpConnection conn =
        HttpConnection::connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.connected());
    HttpClientResponse first;
    ASSERT_TRUE(conn.request("POST", "/v1/jobs", first,
                             "{\"benchmark\": \"MLD\"}"));
    ASSERT_EQ(first.status, 201);

    // What the engine itself would suggest right now.
    SubmitOutcome probe;
    {
        ServeRequest req;
        req.benchmark = Benchmark::MLD;
        probe = engine.trySubmit(req);
    }
    ASSERT_FALSE(probe.accepted());
    const double hint = probe.suggestedBackoffSeconds;
    const int expected = hint <= 0.0 ? 1
        : static_cast<int>(std::max(1.0, std::ceil(hint)));

    HttpClientResponse refused;
    ASSERT_TRUE(conn.request("POST", "/v1/jobs", refused,
                             "{\"benchmark\": \"MLD\"}"));
    ASSERT_EQ(refused.status, 429);
    EXPECT_EQ(refused.retryAfterSeconds(), expected);
    // With no queue-wait samples yet the hint is the 10 ms floor,
    // which must surface as the minimum whole second.
    EXPECT_EQ(refused.retryAfterSeconds(), 1);

    engine.resume();
    engine.waitIdle();
}

} // namespace
} // namespace exion
