#include "exion/serve/http_front.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "exion/common/logging.h"

namespace exion
{

namespace
{

// ------------------------------------------------------- JSON helpers

/** Escapes a string for embedding in a JSON document. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** One parsed scalar JSON value. */
struct JsonValue
{
    enum class Kind
    {
        Str,
        Num,
        Bool,
        Null
    };
    Kind kind = Kind::Null;
    std::string str;
    double num = 0.0;
    bool boolean = false;
};

/**
 * Parses a flat JSON object of scalar values — exactly the request
 * bodies this API accepts. Nested objects/arrays and \u escapes are
 * rejected (nothing in the API uses them; a strict refusal beats a
 * silent partial parse). Returns false with a diagnostic in err.
 */
bool
parseFlatJsonObject(const std::string &text,
                    std::vector<std::pair<std::string, JsonValue>> &out,
                    std::string &err)
{
    u64 pos = 0;
    const auto skipWs = [&] {
        while (pos < text.size()
               && (text[pos] == ' ' || text[pos] == '\t'
                   || text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    };
    const auto parseString = [&](std::string &s) -> bool {
        if (pos >= text.size() || text[pos] != '"') {
            err = "expected string";
            return false;
        }
        ++pos;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos];
            if (c == '\\') {
                ++pos;
                if (pos >= text.size()) {
                    err = "unterminated escape";
                    return false;
                }
                switch (text[pos]) {
                  case '"':
                    c = '"';
                    break;
                  case '\\':
                    c = '\\';
                    break;
                  case '/':
                    c = '/';
                    break;
                  case 'b':
                    c = '\b';
                    break;
                  case 'f':
                    c = '\f';
                    break;
                  case 'n':
                    c = '\n';
                    break;
                  case 'r':
                    c = '\r';
                    break;
                  case 't':
                    c = '\t';
                    break;
                  default:
                    err = "unsupported escape in string";
                    return false;
                }
            }
            s += c;
            ++pos;
        }
        if (pos >= text.size()) {
            err = "unterminated string";
            return false;
        }
        ++pos; // closing quote
        return true;
    };

    skipWs();
    if (pos >= text.size() || text[pos] != '{') {
        err = "body must be a JSON object";
        return false;
    }
    ++pos;
    skipWs();
    if (pos < text.size() && text[pos] == '}') {
        ++pos;
        skipWs();
        if (pos != text.size()) {
            err = "trailing content after object";
            return false;
        }
        return true;
    }
    while (true) {
        skipWs();
        std::string key;
        if (!parseString(key))
            return false;
        for (const auto &[existing, value] : out) {
            (void)value;
            if (existing == key) {
                err = "duplicate field \"" + key + "\"";
                return false;
            }
        }
        skipWs();
        if (pos >= text.size() || text[pos] != ':') {
            err = "expected ':' after field name";
            return false;
        }
        ++pos;
        skipWs();
        JsonValue value;
        if (pos >= text.size()) {
            err = "missing value";
            return false;
        }
        const char c = text[pos];
        if (c == '"') {
            value.kind = JsonValue::Kind::Str;
            if (!parseString(value.str))
                return false;
        } else if (c == 't' && text.compare(pos, 4, "true") == 0) {
            value.kind = JsonValue::Kind::Bool;
            value.boolean = true;
            pos += 4;
        } else if (c == 'f' && text.compare(pos, 5, "false") == 0) {
            value.kind = JsonValue::Kind::Bool;
            value.boolean = false;
            pos += 5;
        } else if (c == 'n' && text.compare(pos, 4, "null") == 0) {
            value.kind = JsonValue::Kind::Null;
            pos += 4;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            char *end = nullptr;
            value.kind = JsonValue::Kind::Num;
            value.num = std::strtod(text.c_str() + pos, &end);
            if (end == text.c_str() + pos) {
                err = "malformed number";
                return false;
            }
            pos = static_cast<u64>(end - text.c_str());
        } else if (c == '{' || c == '[') {
            err = "nested values are not supported";
            return false;
        } else {
            err = "malformed value";
            return false;
        }
        out.emplace_back(std::move(key), std::move(value));
        skipWs();
        if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
        }
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            skipWs();
            if (pos != text.size()) {
                err = "trailing content after object";
                return false;
            }
            return true;
        }
        err = "expected ',' or '}'";
        return false;
    }
}

// ------------------------------------------------------ name parsing

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (u64 i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i]))
            != std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

bool
parseBenchmarkName(const std::string &name, Benchmark &out)
{
    for (Benchmark b : allBenchmarks()) {
        if (iequals(name, benchmarkName(b))) {
            out = b;
            return true;
        }
    }
    return false;
}

bool
parseExecModeName(const std::string &name, ExecMode &out)
{
    for (ExecMode m : {ExecMode::Dense, ExecMode::FfnReuseOnly,
                       ExecMode::EpOnly, ExecMode::Exion}) {
        if (iequals(name, execModeName(m))) {
            out = m;
            return true;
        }
    }
    return false;
}

bool
parsePriorityName(const std::string &name, Priority &out)
{
    for (Priority p : {Priority::Low, Priority::Normal, Priority::High,
                       Priority::Critical}) {
        if (iequals(name, priorityName(p))) {
            out = p;
            return true;
        }
    }
    return false;
}

// ----------------------------------------------------- response sugar

void
respondJson(ResponseWriter &writer, int status, const std::string &json,
            const ResponseWriter::Headers &extra = {})
{
    writer.respond(status, "application/json", json + "\n", extra);
}

void
respondError(ResponseWriter &writer, int status,
             const std::string &message,
             const ResponseWriter::Headers &extra = {})
{
    respondJson(writer, status,
                "{\"error\": \"" + jsonEscape(message) + "\"}", extra);
}

/** Retry-After value for a load-driven refusal: whole seconds,
    clamped to [1, 3600]. */
int
retryAfterSeconds(double suggestedBackoffSeconds)
{
    if (!(suggestedBackoffSeconds > 0.0))
        return 1;
    const double ceiled = std::ceil(suggestedBackoffSeconds);
    if (ceiled >= 3600.0)
        return 3600;
    return ceiled < 1.0 ? 1 : static_cast<int>(ceiled);
}

} // namespace

// ------------------------------------------------------------- HttpFront

HttpFront::HttpFront(ServeBackend &engine, Options opts)
    : engine_(engine), opts_(opts)
{
    // The front owns the engine's completion slot: the callback wakes
    // SSE streams waiting on the finished job. (Cancelled requests
    // never fire it; their streams notice the settled ticket at the
    // next heartbeat or progress boundary.)
    engine_.setOnComplete(
        [this](const RequestResult &r) { finishJob(r); });
}

HttpFront::~HttpFront()
{
    engine_.setOnComplete(nullptr);
    // A worker may already be inside the old callback; in-flight
    // requests finish before it can be destroyed safely.
    engine_.waitIdle();
}

u64
HttpFront::jobCount() const
{
    std::lock_guard<std::mutex> lock(jobsMutex_);
    return jobs_.size();
}

std::shared_ptr<HttpFront::Job>
HttpFront::findJob(u64 id) const
{
    std::lock_guard<std::mutex> lock(jobsMutex_);
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

void
HttpFront::recordLocked(Job &job, const RequestResult &r)
{
    if (r.cancelled) {
        job.finalState = "cancelled";
    } else if (!r.ok()) {
        job.finalState = "failed";
        job.finalFields = ", \"error\": \"" + jsonEscape(r.error) + "\"";
    } else {
        job.finalState = "done";
        char seconds[32];
        std::snprintf(seconds, sizeof seconds, "%.6f", r.seconds);
        job.finalFields = std::string(", \"seconds\": ") + seconds
            + ", \"output_rows\": " + std::to_string(r.output.rows())
            + ", \"output_cols\": " + std::to_string(r.output.cols())
            + ", \"ops_executed\": "
            + std::to_string(r.stats.totalExecuted())
            + ", \"ops_dense\": " + std::to_string(r.stats.totalDense());
    }
    job.ticket = Ticket();
}

void
HttpFront::settleLocked(Job &job)
{
    if (!job.finalState.empty() || !job.ticket.ready())
        return;
    RequestResult r;
    try {
        r = job.ticket.get();
    } catch (const std::exception &e) {
        r.error = e.what();
    } catch (...) {
        r.error = "unknown error";
    }
    recordLocked(job, r);
}

void
HttpFront::finishJob(const RequestResult &r)
{
    // Runs just before the ticket settles, with the result the ticket
    // will hold; cancelled requests never get here (settleLocked).
    const std::shared_ptr<Job> job = findJob(r.id);
    if (job == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(job->m);
        recordLocked(*job, r);
    }
    job->cv.notify_all();
}

void
HttpFront::evictFinishedLocked()
{
    if (jobs_.size() <= opts_.maxFinishedJobs)
        return;
    u64 excess = jobs_.size() - opts_.maxFinishedJobs;
    for (auto it = jobs_.begin(); excess > 0 && it != jobs_.end();) {
        Job &job = *it->second;
        bool finished;
        {
            std::lock_guard<std::mutex> lock(job.m);
            settleLocked(job);
            finished = !job.finalState.empty();
        }
        if (finished) {
            it = jobs_.erase(it);
            --excess;
        } else {
            ++it;
        }
    }
}

void
HttpFront::handle(const HttpRequest &req, ResponseWriter &writer)
{
    // Strip any query string; the API carries everything in the path
    // and body.
    std::string path = req.target;
    if (const u64 q = path.find('?'); q != std::string::npos)
        path.resize(q);

    if (path == "/healthz") {
        if (req.method != "GET")
            return respondError(writer, 405, "method not allowed",
                                {{"Allow", "GET"}});
        writer.respond(200, "text/plain", "ok\n");
        return;
    }
    if (path == "/metrics") {
        if (req.method != "GET")
            return respondError(writer, 405, "method not allowed",
                                {{"Allow", "GET"}});
        handleMetrics(writer);
        return;
    }
    if (path == "/v1/jobs") {
        if (req.method != "POST")
            return respondError(writer, 405, "method not allowed",
                                {{"Allow", "POST"}});
        handleSubmit(req, writer);
        return;
    }
    if (path.rfind("/v1/jobs/", 0) == 0) {
        std::string rest = path.substr(9);
        bool events = false;
        if (const u64 slash = rest.find('/');
            slash != std::string::npos) {
            if (rest.substr(slash) != "/events")
                return respondError(writer, 404, "not found");
            events = true;
            rest.resize(slash);
        }
        if (rest.empty()
            || rest.find_first_not_of("0123456789")
                != std::string::npos)
            return respondError(writer, 404, "not found");
        const u64 id = std::strtoull(rest.c_str(), nullptr, 10);
        const std::shared_ptr<Job> job = findJob(id);
        if (job == nullptr)
            return respondError(writer, 404,
                                "no such job " + rest);
        if (events) {
            if (req.method != "GET")
                return respondError(writer, 405, "method not allowed",
                                    {{"Allow", "GET"}});
            handleEvents(*job, writer);
        } else if (req.method == "GET") {
            handleStatus(*job, writer);
        } else if (req.method == "DELETE") {
            handleCancel(*job, writer);
        } else {
            respondError(writer, 405, "method not allowed",
                         {{"Allow", "GET, DELETE"}});
        }
        return;
    }
    respondError(writer, 404, "not found");
}

void
HttpFront::handleSubmit(const HttpRequest &req, ResponseWriter &writer)
{
    std::vector<std::pair<std::string, JsonValue>> fields;
    std::string err;
    if (!parseFlatJsonObject(req.body, fields, err))
        return respondError(writer, 400, "malformed body: " + err);

    ServeRequest serve;
    bool haveBenchmark = false;
    for (const auto &[key, value] : fields) {
        const bool isStr = value.kind == JsonValue::Kind::Str;
        const bool isNum = value.kind == JsonValue::Kind::Num;
        const bool isBool = value.kind == JsonValue::Kind::Bool;
        if (key == "benchmark") {
            if (!isStr)
                return respondError(writer, 400,
                                    "\"benchmark\" must be a string");
            if (!parseBenchmarkName(value.str, serve.benchmark))
                return respondError(writer, 404,
                                    "unknown model '" + value.str
                                        + "'");
            haveBenchmark = true;
        } else if (key == "mode") {
            if (!isStr || !parseExecModeName(value.str, serve.mode))
                return respondError(
                    writer, 400,
                    "\"mode\" must be one of dense, ffn-reuse, ep, "
                    "exion");
        } else if (key == "priority") {
            if (!isStr
                || !parsePriorityName(value.str, serve.priority))
                return respondError(
                    writer, 400,
                    "\"priority\" must be one of low, normal, high, "
                    "critical");
        } else if (key == "quantize") {
            if (!isBool)
                return respondError(writer, 400,
                                    "\"quantize\" must be a boolean");
            serve.quantize = value.boolean;
        } else if (key == "track_conmerge") {
            if (!isBool)
                return respondError(
                    writer, 400,
                    "\"track_conmerge\" must be a boolean");
            serve.trackConMerge = value.boolean;
        } else if (key == "seed") {
            if (!isNum || value.num < 0.0
                || value.num != std::floor(value.num))
                return respondError(
                    writer, 400,
                    "\"seed\" must be a non-negative integer");
            serve.noiseSeed = static_cast<u64>(value.num);
        } else if (key == "deadline_seconds") {
            if (!isNum || !(value.num >= 0.0))
                return respondError(
                    writer, 400,
                    "\"deadline_seconds\" must be a non-negative "
                    "number");
            serve.deadlineSeconds = value.num;
        } else {
            return respondError(writer, 400,
                                "unknown field \"" + key + "\"");
        }
    }
    if (!haveBenchmark)
        return respondError(writer, 400,
                            "missing required field \"benchmark\"");

    // Create the job before submitting: the progress hook starts
    // firing the moment a worker picks the request up.
    auto job = std::make_shared<Job>();
    job->benchmark = serve.benchmark;
    job->mode = serve.mode;
    job->priority = serve.priority;
    job->quantize = serve.quantize;
    job->seed = serve.noiseSeed;
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        job->id = nextJobId_++;
        evictFinishedLocked();
        jobs_.emplace(job->id, job);
    }
    serve.id = job->id;
    const std::weak_ptr<Job> weak = job;
    serve.onProgress = [weak](int iteration) {
        if (const std::shared_ptr<Job> j = weak.lock()) {
            {
                std::lock_guard<std::mutex> lock(j->m);
                j->iterationsDone = iteration;
            }
            j->cv.notify_all();
        }
    };

    const SubmitOutcome outcome = engine_.trySubmit(serve);
    if (!outcome.accepted()) {
        {
            std::lock_guard<std::mutex> lock(jobsMutex_);
            jobs_.erase(job->id);
        }
        const std::string reason = rejectReasonName(*outcome.reason);
        switch (*outcome.reason) {
          case RejectReason::QueueFull:
          case RejectReason::LoadShedLow: {
            const int retry =
                retryAfterSeconds(outcome.suggestedBackoffSeconds);
            respondJson(
                writer,
                *outcome.reason == RejectReason::QueueFull ? 429 : 503,
                "{\"error\": \"rejected: " + reason
                    + "\", \"reason\": \"" + reason
                    + "\", \"retry_after_seconds\": "
                    + std::to_string(retry) + "}",
                {{"Retry-After", std::to_string(retry)}});
            return;
          }
          case RejectReason::UnknownModel:
            respondJson(writer, 404,
                        "{\"error\": \"unknown model "
                            + benchmarkName(serve.benchmark)
                            + "\", \"reason\": \"" + reason + "\"}");
            return;
          case RejectReason::Stopped:
            // The engine is draining for shutdown; tell the client
            // not to reuse the connection.
            writer.setConnectionClose();
            respondJson(writer, 503,
                        "{\"error\": \"server is shutting down\", "
                        "\"reason\": \""
                            + reason + "\"}");
            return;
        }
        respondError(writer, 500, "unhandled reject reason");
        return;
    }
    {
        // A quick request may have finished (and been recorded)
        // already; its ticket is not needed then.
        std::lock_guard<std::mutex> lock(job->m);
        if (job->finalState.empty())
            job->ticket = outcome.ticket;
    }
    respondJson(writer, 201,
                "{\"id\": " + std::to_string(job->id)
                    + ", \"state\": \"queued\"}",
                {{"Location",
                  "/v1/jobs/" + std::to_string(job->id)}});
}

std::string
HttpFront::statusJson(Job &job) const
{
    int done = -1;
    std::string state;
    std::string tail;
    {
        std::lock_guard<std::mutex> lock(job.m);
        settleLocked(job);
        done = job.iterationsDone;
        state = job.finalState;
        tail = job.finalFields;
    }
    if (state.empty())
        state = done >= 0 ? "running" : "queued";
    return "{\"id\": " + std::to_string(job.id) + ", \"state\": \""
        + state + "\", \"benchmark\": \""
        + benchmarkName(job.benchmark) + "\", \"mode\": \""
        + execModeName(job.mode) + "\", \"priority\": \""
        + priorityName(job.priority) + "\", \"quantize\": "
        + (job.quantize ? "true" : "false") + ", \"seed\": "
        + std::to_string(job.seed) + ", \"iterations_done\": "
        + std::to_string(done + 1) + tail + "}";
}

void
HttpFront::handleStatus(Job &job, ResponseWriter &writer)
{
    respondJson(writer, 200, statusJson(job));
}

void
HttpFront::handleCancel(Job &job, ResponseWriter &writer)
{
    Ticket ticket;
    {
        std::lock_guard<std::mutex> lock(job.m);
        ticket = job.ticket;
    }
    const bool signalled = ticket.cancel();
    // Wake SSE streams so they notice the settled (or settling)
    // ticket promptly instead of at the next heartbeat.
    job.cv.notify_all();
    respondJson(writer, 200,
                "{\"id\": " + std::to_string(job.id)
                    + ", \"cancelled\": "
                    + (signalled ? "true" : "false") + ", \"state\": "
                    + "\""
                    + (signalled ? "cancelling" : "finished")
                    + "\"}");
}

void
HttpFront::handleEvents(Job &job, ResponseWriter &writer)
{
    if (!writer.beginChunked(200, "text/event-stream",
                             {{"Cache-Control", "no-cache"}}))
        return;
    const auto heartbeat =
        std::chrono::duration<double>(opts_.sseHeartbeatSeconds);
    int sent = -1; // last iteration index already emitted
    while (true) {
        int avail = -1;
        bool settled = false;
        {
            std::unique_lock<std::mutex> lock(job.m);
            job.cv.wait_for(lock, heartbeat, [&] {
                return job.iterationsDone > sent
                    || !job.finalState.empty();
            });
            avail = job.iterationsDone;
            // A cancelled job settles without a wakeup: noticed here
            // at the latest on the next heartbeat.
            settleLocked(job);
            settled = !job.finalState.empty();
        }
        bool alive = true;
        for (int i = sent + 1; i <= avail && alive; ++i) {
            alive = writer.writeChunk(
                "event: progress\ndata: {\"iteration\": "
                + std::to_string(i) + "}\n\n");
            if (alive)
                sent = i;
        }
        if (alive && !settled && avail <= sent) {
            // Idle wakeup: heartbeat, which doubles as the probe
            // that notices a departed client.
            alive = writer.writeChunk(": heartbeat\n\n");
        }
        if (!alive || writer.peerClosed()) {
            // The client went away mid-stream: release the engine
            // capacity it was consuming.
            Ticket ticket;
            {
                std::lock_guard<std::mutex> lock(job.m);
                ticket = job.ticket;
            }
            ticket.cancel();
            job.cv.notify_all();
            return;
        }
        if (settled) {
            // The job may have finished between the locked read of
            // iterationsDone and the settled probe above; flush the
            // progress events that landed in that window so the
            // stream still delivers one event per iteration.
            int finalAvail;
            {
                std::lock_guard<std::mutex> lock(job.m);
                finalAvail = job.iterationsDone;
            }
            for (int i = sent + 1; i <= finalAvail && alive; ++i) {
                alive = writer.writeChunk(
                    "event: progress\ndata: {\"iteration\": "
                    + std::to_string(i) + "}\n\n");
                if (alive)
                    sent = i;
            }
            writer.writeChunk("event: done\ndata: "
                              + statusJson(job) + "\n\n");
            writer.endChunked();
            return;
        }
    }
}

void
HttpFront::handleMetrics(ResponseWriter &writer)
{
    writer.respond(200,
                   "text/plain; version=0.0.4; charset=utf-8",
                   engine_.metricsText());
}

} // namespace exion
