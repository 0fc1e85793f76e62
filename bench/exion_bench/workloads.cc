#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "exion/model/weight_store.h"
#include "exion/net/http_client.h"
#include "exion/net/http_server.h"
#include "exion/serve/http_front.h"
#include "json.h"
#include "knobs.h"
#include "recorder.h"
#include "replay.h"
#include "stats.h"
#include "trace_events.h"

namespace exion::bench
{

namespace
{

/** Rows one cohort steps at most (BatchEngine's default). */
constexpr Index kCohortRows = 8;
/** Requests of one staged burst: 4 cohorts of kCohortRows. */
constexpr size_t kBurstSize = 32;
/**
 * Full-scale MDM iterations: FFN-Reuse (N = 5 on MDM) computes
 * iteration 0 densely and reuses on 1-5, the 1:5 dense:sparse ratio of
 * a 50-step run.
 */
constexpr int kMdmIterations = 6;
/**
 * Keys a closed loop draws at a time, shuffled: the smallest block that
 * holds every workload's key mix exactly.
 */
constexpr size_t kKeyBlock = 8;
/** Any single wait on the engine longer than this is a hang. */
constexpr std::chrono::seconds kStallLimit{90};

struct Key
{
    Benchmark benchmark = Benchmark::MLD;
    ExecMode mode = ExecMode::Exion;
};

std::string
keyName(const Key &k)
{
    return benchmarkName(k.benchmark) + "/" + execModeName(k.mode);
}

/** How a workload offers its load. */
enum class Load
{
    Bursts,     //!< staged bursts: pause(), submit all, resume()
    ClosedLoop, //!< clients that each send the next on completion
};

/** Everything that defines a workload besides its name. */
struct Spec
{
    std::vector<ModelConfig> models;
    std::vector<Key> keys;
    /** Share of each key in every burst and kKeyBlock requests (exact). */
    std::vector<double> keyWeights{1.0};
    Load load = Load::Bursts;
    /** Closed loop: clients per engine worker (at least one client). */
    double clientsPerWorker = 1.0;
    /** Closed loop: unmeasured load before the measured phase. */
    double warmupSeconds = 0.0;
    bool cohort = false;
    bool http = false;
    /** Outputs hashed into output_digest: the first this many issued. */
    size_t digestRequests = 8;
    /** Requests of each key the --trace replay reruns. */
    size_t replayPerKey = 2;
};

/** A serving deployment, built by one set-up. */
struct Served
{
    Recorder rec; // outlives the engine that reports to it
    std::vector<std::shared_ptr<const WeightStore>> stores;
    std::unique_ptr<RecordingEngine> engine;
    std::unique_ptr<HttpFront> front;
    std::unique_ptr<HttpServer> server;
    HttpConnection conn;
    u64 nextId = 1;
};

std::unique_ptr<Served>
setUp(const Spec &spec, const RunConfig &rc)
{
    auto s = std::make_unique<Served>();
    BatchEngine::Options opts;
    opts.workers = rc.workers;
    opts.cohortBatching = spec.cohort;
    opts.cohortMaxRows = kCohortRows;
    if (spec.http)
        opts.admission.maxQueuedPerClass = 16; // exion_serve's default
    useEngineDefaults(opts);
    s->engine = std::make_unique<RecordingEngine>(opts, s->rec);
    for (const ModelConfig &cfg : spec.models) {
        s->stores.push_back(WeightStore::build(cfg));
        s->engine->registerModel(cfg.benchmark, s->stores.back());
    }
    if (spec.http) {
        s->front = std::make_unique<HttpFront>(*s->engine);
        s->server = std::make_unique<HttpServer>(
            HttpServer::Options{},
            [front = s->front.get()](const HttpRequest &req,
                                     ResponseWriter &w) {
                front->handle(req, w);
            });
        s->server->start();
        s->conn = HttpConnection::connect("127.0.0.1", s->server->port());
        if (!s->conn.connected())
            throw std::runtime_error("cannot connect to 127.0.0.1:"
                                     + std::to_string(s->server->port()));
    }
    return s;
}

/** One request the bench issued. */
struct Issued
{
    u64 id = 0; //!< ServeRequest id (the job id over HTTP)
    size_t key = 0;
    u64 noiseSeed = 0;
    Clock::time_point due;    //!< when the generator meant to send it
    Clock::time_point origin; //!< latency is measured from here
    Clock::time_point callStart, callEnd; //!< the submit round trip
    bool refused = false;
    int client = -1; //!< closed-loop client, -1 for other loads
};

struct Burst
{
    Clock::time_point release;
    size_t begin = 0;
    size_t end = 0;
};

/** One measured phase: what was issued and what the engine saw. */
struct Phase
{
    Clock::time_point start;
    std::vector<Issued> issued;
    std::vector<Burst> bursts;
    std::map<u64, RequestRecord> records;

    /** The engine record of an issued request, if it completed. */
    const RequestRecord *record(const Issued &is) const
    {
        if (is.refused)
            return nullptr;
        const auto it = records.find(is.id);
        return it != records.end() && it->second.done ? &it->second
                                                      : nullptr;
    }
};

/** Submits one request in-process; returns whether it was admitted. */
bool
submitInProcess(Served &s, const Spec &spec, Issued &is)
{
    ServeRequest req;
    req.id = is.id;
    req.benchmark = spec.keys[is.key].benchmark;
    req.mode = spec.keys[is.key].mode;
    req.noiseSeed = is.noiseSeed;
    is.callStart = Clock::now();
    is.refused = !s.engine->trySubmit(req).accepted();
    is.callEnd = Clock::now();
    return !is.refused;
}

/** Submits one request as POST /v1/jobs; fills in its job id. */
bool
submitHttp(Served &s, const Spec &spec, Issued &is)
{
    const Key &key = spec.keys[is.key];
    const std::string body = "{\"benchmark\": \""
        + benchmarkName(key.benchmark) + "\", \"mode\": \""
        + execModeName(key.mode)
        + "\", \"seed\": " + std::to_string(is.noiseSeed) + "}";
    HttpClientResponse resp;
    is.callStart = Clock::now();
    const bool sent = s.conn.request("POST", "/v1/jobs", resp, body);
    is.callEnd = Clock::now();
    Json parsed;
    std::string err;
    if (sent && resp.status == 201 && parseJson(resp.body, parsed, err)) {
        is.id = static_cast<u64>(parsed.numberOr("id", 0.0));
        return true;
    }
    is.refused = true;
    if (!sent) // keep the generator going on a fresh connection
        s.conn = HttpConnection::connect("127.0.0.1", s.server->port());
    return false;
}

bool
submit(Served &s, const Spec &spec, Issued &is)
{
    return spec.http ? submitHttp(s, spec, is) : submitInProcess(s, spec, is);
}

Issued
nextRequest(Served &s, size_t key, SeedStream &rng, Clock::time_point due)
{
    Issued is;
    is.id = s.nextId++;
    is.key = key;
    is.noiseSeed = rng.requestSeed();
    is.due = due;
    return is;
}

void
waitAll(Served &s, const std::vector<Issued> &issued, size_t begin)
{
    std::vector<u64> ids;
    for (size_t i = begin; i < issued.size(); ++i)
        if (!issued[i].refused)
            ids.push_back(issued[i].id);
    if (!s.rec.awaitAll(ids, Clock::now() + kStallLimit))
        throw std::runtime_error("requests did not complete within "
                                 + std::to_string(kStallLimit.count())
                                 + " s");
}

void
runBurst(Served &s, const Spec &spec, SeedStream &rng, Phase &ph)
{
    const size_t begin = ph.issued.size();
    const Clock::time_point due = Clock::now();
    s.engine->pause();
    for (const size_t key : keyOrder(spec.keyWeights, kBurstSize, rng)) {
        ph.issued.push_back(nextRequest(s, key, rng, due));
        submitInProcess(s, spec, ph.issued.back());
    }
    s.engine->resume();
    const Clock::time_point release = Clock::now();
    for (size_t i = begin; i < ph.issued.size(); ++i)
        ph.issued[i].origin = release;
    ph.bursts.push_back({release, begin, ph.issued.size()});
    waitAll(s, ph.issued, begin);
}

/**
 * Closed loop from this thread: each client sends its next request as
 * soon as its previous one completes, until `seconds` have passed. The
 * n-th request issued has the same key and noise seed whatever the
 * timing, because both are drawn in issue order.
 */
void
runClosedLoop(Served &s, const Spec &spec, SeedStream &rng, int clients,
              double seconds, Phase &ph)
{
    std::map<u64, int> clientOf;
    size_t outstanding = 0;
    std::vector<size_t> keys;
    const auto issue = [&](int client, Clock::time_point due) {
        if (keys.empty())
            keys = keyOrder(spec.keyWeights, kKeyBlock, rng);
        const size_t key = keys.back();
        keys.pop_back();
        ph.issued.push_back(nextRequest(s, key, rng, due));
        Issued &is = ph.issued.back();
        is.client = client;
        if (submit(s, spec, is)) {
            is.origin = is.callStart;
            clientOf[is.id] = client;
            ++outstanding;
        }
    };
    for (int c = 0; c < clients; ++c)
        issue(c, ph.start);
    size_t cursor = 0;
    while (outstanding > 0) {
        const auto done =
            s.rec.awaitCompletions(cursor, Clock::now() + kStallLimit);
        if (done.empty())
            throw std::runtime_error("closed loop stalled");
        for (const auto &[id, completed] : done) {
            --outstanding;
            if (secondsBetween(ph.start, Clock::now()) < seconds)
                issue(clientOf.at(id), completed);
        }
    }
}

int
closedLoopClients(const Spec &spec, const RunConfig &rc)
{
    return std::max(1, static_cast<int>(spec.clientsPerWorker * rc.workers));
}

/**
 * Unmeasured load first: caches, allocator arenas, connections. A
 * closed loop warms for spec.warmupSeconds, which is 0 where requests
 * run for seconds each, far longer than anything left to warm.
 */
void
warmUp(Served &s, const Spec &spec, const RunConfig &rc)
{
    SeedStream rng(rc.seed ^ 0x5eed5eed5eed5eedULL);
    Phase ph;
    ph.start = Clock::now();
    switch (spec.load) {
      case Load::Bursts:
        runBurst(s, spec, rng, ph); // every worker warms
        break;
      case Load::ClosedLoop:
        if (spec.warmupSeconds > 0.0)
            runClosedLoop(s, spec, rng, closedLoopClients(spec, rc),
                          spec.warmupSeconds, ph);
        break;
    }
    (void)s.rec.take();
}

/**
 * One measured phase. Each phase draws its requests from a fresh
 * stream seeded by --seed, so the traced phase replays the same
 * requests as the untraced one.
 */
Phase
measure(Served &s, const Spec &spec, const RunConfig &rc, bool traced)
{
    s.rec.setTraceProgress(traced);
    SeedStream rng(rc.seed);
    Phase ph;
    ph.start = Clock::now();
    switch (spec.load) {
      case Load::Bursts:
        do {
            runBurst(s, spec, rng, ph);
        } while (secondsBetween(ph.start, Clock::now()) < rc.seconds);
        break;
      case Load::ClosedLoop:
        runClosedLoop(s, spec, rng, closedLoopClients(spec, rc), rc.seconds,
                      ph);
        break;
    }
    ph.records = s.rec.take();
    s.rec.setTraceProgress(false);
    return ph;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Latencies of the completed requests among issued[begin, end). */
std::vector<double>
latenciesMs(const Phase &ph, size_t begin, size_t end)
{
    std::vector<double> ms;
    for (size_t i = begin; i < end; ++i)
        if (const RequestRecord *r = ph.record(ph.issued[i]); r && r->ok)
            ms.push_back(secondsBetween(ph.issued[i].origin, r->completed)
                         * 1e3);
    return ms;
}

/**
 * The p-th percentile of request latency. Staged bursts: the median
 * over bursts of each burst's percentile, as for throughput. A burst's
 * cohorts complete together, so all bursts hold only a few dozen
 * distinct latencies, and one slow cohort set the p95 over all of them.
 * Closed loop: over all requests.
 */
double
latencyMs(const Phase &ph, double p)
{
    if (ph.bursts.empty())
        return percentile(latenciesMs(ph, 0, ph.issued.size()), p);
    std::vector<double> perBurst;
    for (const Burst &b : ph.bursts)
        if (const auto ms = latenciesMs(ph, b.begin, b.end); !ms.empty())
            perBurst.push_back(percentile(ms, p));
    return median(perBurst);
}

/**
 * Requests per second. Staged bursts: the median over bursts of burst
 * size over makespan (release to last completion), so one burst a
 * noisy neighbour slowed does not move it. Closed loop: the sum over
 * clients of each client's completions over its own busy span (first
 * send to last completion), so clients that finish early do not dilute
 * the others.
 */
double
throughput(const Phase &ph)
{
    struct Span
    {
        Clock::time_point from;
        Clock::time_point last;
        double n = 0.0;
    };
    const auto add = [&](Span &sp, const Issued &is) {
        if (const RequestRecord *r = ph.record(is); r && r->ok) {
            sp.last = std::max(sp.last, r->completed);
            sp.n += 1.0;
        }
    };
    if (!ph.bursts.empty()) {
        std::vector<double> perBurst;
        for (const Burst &b : ph.bursts) {
            Span sp{b.release, b.release};
            for (size_t i = b.begin; i < b.end; ++i)
                add(sp, ph.issued[i]);
            perBurst.push_back(
                ratio(sp.n, secondsBetween(sp.from, sp.last)));
        }
        return median(perBurst);
    }
    std::map<int, Span> clients;
    for (const Issued &is : ph.issued)
        add(clients
                .try_emplace(is.client, Span{is.callStart, is.callStart})
                .first->second,
            is);
    double rps = 0.0;
    for (const auto &[client, sp] : clients)
        rps += ratio(sp.n, secondsBetween(sp.from, sp.last));
    return rps;
}

/** Refused, errored and never-completed requests of a phase. */
u64
failures(const Phase &ph)
{
    u64 n = 0;
    for (const Issued &is : ph.issued) {
        const RequestRecord *r = ph.record(is);
        n += (r == nullptr || !r->ok) ? 1 : 0;
    }
    return n;
}

u64
outputDigest(const Phase &ph, size_t count)
{
    u64 h = kFnvOffset;
    for (size_t i = 0; i < std::min(count, ph.issued.size()); ++i) {
        const RequestRecord *r = ph.record(ph.issued[i]);
        if (r == nullptr || !r->ok) {
            const char missing = 0;
            h = fnv1a(&missing, 1, h);
            continue;
        }
        const auto data = r->output.data();
        h = fnv1a(data.data(), data.size() * sizeof(float), h);
    }
    return h;
}

/**
 * Recomputes the first two completed requests of every key with a solo
 * DiffusionPipeline::run on the engine's own pipeline and executor
 * options, outside any timed region; returns how many differ from the
 * engine's output in any byte.
 */
u64
checkOutputs(const Served &s, const Spec &spec, const Phase &ph,
             int threads, std::vector<std::string> &notes)
{
    struct Job
    {
        const Issued *is;
        const RequestRecord *rec;
    };
    std::vector<Job> jobs;
    for (size_t k = 0; k < spec.keys.size(); ++k) {
        std::vector<Job> done;
        for (const Issued &is : ph.issued)
            if (const RequestRecord *r = ph.record(is);
                is.key == k && r && r->ok)
                done.push_back({&is, r});
        std::sort(done.begin(), done.end(), [](const Job &a, const Job &b) {
            return a.rec->completed < b.rec->completed;
        });
        done.resize(std::min<size_t>(done.size(), 2));
        jobs.insert(jobs.end(), done.begin(), done.end());
    }
    std::atomic<size_t> next{0};
    std::atomic<u64> mismatches{0};
    std::vector<std::exception_ptr> errors(threads);
    {
        std::vector<std::jthread> pool;
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                try {
                    for (size_t j; (j = next++) < jobs.size();) {
                        const Key &key = spec.keys[jobs[j].is->key];
                        const DiffusionPipeline &pipe =
                            s.engine->pipeline(key.benchmark);
                        SparseExecutor exec(
                            engineExecOptions(pipe.config(), key.mode));
                        RunOptions opts;
                        opts.noiseSeed = jobs[j].is->noiseSeed;
                        if (!sameBytes(pipe.run(exec, opts),
                                       jobs[j].rec->output))
                            ++mismatches;
                    }
                } catch (...) {
                    errors[t] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    notes.push_back("checked " + std::to_string(jobs.size())
                    + " outputs against solo runs: "
                    + std::to_string(mismatches.load()) + " differ");
    return mismatches.load();
}

/** A worker's back-to-back progress callbacks: one engine step. */
struct Step
{
    int worker = 0;
    Clock::time_point start;
    Clock::time_point end;
    double rows = 0.0;
};

/**
 * Groups progress marks into engine steps: on one worker thread, marks
 * closer together than 200 us are the members of one cohort step (a
 * solo step takes far longer than that). A step starts where the
 * worker's previous step ended, or at the earliest member's execution
 * start.
 */
std::vector<Step>
engineSteps(const Phase &ph)
{
    struct Mark
    {
        int worker;
        Clock::time_point t;
        Clock::time_point execStart;
    };
    std::vector<Mark> marks;
    for (const auto &[id, r] : ph.records) {
        const auto execStart = r.completed
            - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(r.execSeconds));
        for (const auto &[t, worker] : r.progress)
            marks.push_back({worker, t, execStart});
    }
    std::sort(marks.begin(), marks.end(), [](const Mark &a, const Mark &b) {
        return a.worker != b.worker ? a.worker < b.worker : a.t < b.t;
    });
    std::vector<Step> steps;
    for (size_t i = 0; i < marks.size(); ++i) {
        const Mark &m = marks[i];
        const bool joins = i > 0 && marks[i - 1].worker == m.worker
            && m.t - marks[i - 1].t < std::chrono::microseconds(200);
        if (joins) {
            steps.back().end = m.t;
            steps.back().rows += 1.0;
            continue;
        }
        Step st{m.worker, m.execStart, m.t, 1.0};
        if (!steps.empty() && steps.back().worker == m.worker)
            st.start = std::max(st.start, steps.back().end);
        steps.push_back(st);
    }
    return steps;
}

/** Engine-run, generator and ExecStats metrics of the traced phase. */
void
engineLayerMetrics(const Phase &ph, WorkloadOutcome &out,
                   TraceWriter &trace, const Spec &spec)
{
    std::vector<double> wait, exec, rtt, lag, gaps;
    double refused = 0.0;
    ExecStats stats;
    trace.threadName(0, "load generator");
    for (const Issued &is : ph.issued) {
        rtt.push_back(secondsBetween(is.callStart, is.callEnd) * 1e3);
        lag.push_back(secondsBetween(is.due, is.callStart) * 1e3);
        trace.span("submit", "generator", 0, is.callStart, is.callEnd);
        refused += is.refused ? 1.0 : 0.0;
        const RequestRecord *r = ph.record(is);
        if (r == nullptr || !r->ok)
            continue;
        const auto execStart = r->completed
            - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(r->execSeconds));
        wait.push_back(secondsBetween(r->submitted, execStart) * 1e3);
        exec.push_back(r->execSeconds * 1e3);
        stats.merge(r->stats);
        for (size_t i = 1; i < r->progress.size(); ++i)
            gaps.push_back(secondsBetween(r->progress[i - 1].first,
                                          r->progress[i].first)
                           * 1e3);
        const std::string name = "request " + keyName(spec.keys[is.key]);
        trace.asyncSpan(name, "engine", is.id, r->submitted, r->completed,
                        "{\"id\": " + std::to_string(is.id) + "}");
        trace.asyncSpan("queue", "engine", is.id, r->submitted, execStart);
        trace.asyncSpan("exec", "engine", is.id, execStart, r->completed);
    }
    double rows = 0.0;
    const std::vector<Step> steps = engineSteps(ph);
    for (size_t i = 0; i < steps.size(); ++i) {
        const Step &st = steps[i];
        rows += st.rows;
        if (i == 0 || steps[i - 1].worker != st.worker)
            trace.threadName(1 + st.worker,
                             "engine worker " + std::to_string(st.worker));
        trace.span("step", "engine", 1 + st.worker, st.start, st.end,
                   "{\"rows\": " + formatNumber(st.rows) + "}");
    }

    const double n = static_cast<double>(ph.issued.size());
    auto &m = out.metrics;
    m.emplace_back("serve.queue_wait_ms_p50", percentile(wait, 50.0));
    m.emplace_back("serve.queue_wait_ms_p95", percentile(wait, 95.0));
    m.emplace_back("serve.exec_ms_p50", percentile(exec, 50.0));
    m.emplace_back("serve.cohort_rows_mean",
                   ratio(rows, static_cast<double>(steps.size())));
    m.emplace_back("serve.refused_frac", ratio(refused, n));
    m.emplace_back("net.submit_rtt_ms_p50", percentile(rtt, 50.0));
    m.emplace_back("net.submit_rtt_ms_p95", percentile(rtt, 95.0));
    m.emplace_back("net.gen_lag_ms_p95", percentile(lag, 95.0));
    m.emplace_back("model.iter_ms_p50", percentile(gaps, 50.0));
    m.emplace_back(
        "ep.proj_skip_frac",
        ratio(static_cast<double>(stats.qRowsSkipped + stats.kColsSkipped
                                  + stats.vColsSkipped),
              static_cast<double>(stats.qRowsTotal + stats.kColsTotal
                                  + stats.vColsTotal)));
    m.emplace_back(
        "attn.ops_executed_frac",
        ratio(static_cast<double>(stats.qkvOpsExecuted
                                  + stats.attnOpsExecuted),
              static_cast<double>(stats.qkvOpsDense + stats.attnOpsDense)));
    m.emplace_back("attn.score_sparsity", stats.meanScoreSparsity());
    m.emplace_back("ffn.ops_executed_frac",
                   ratio(static_cast<double>(stats.ffnOpsExecuted),
                         static_cast<double>(stats.ffnOpsDense)));
    m.emplace_back("ffn.mask_sparsity", stats.meanFfnSparsity());
    out.notes.push_back(
        "traced phase: " + std::to_string(wait.size()) + " completed, "
        + std::to_string(gaps.size()) + " iteration gaps, "
        + std::to_string(steps.size()) + " engine steps");
}

/** Replays a sample of the traced phase and adds its metrics. */
void
replayLayerMetrics(const Served &s, const Spec &spec, const Phase &ph,
                   const RunConfig &rc, WorkloadOutcome &out,
                   TraceWriter &trace)
{
    std::vector<std::vector<ReplayItem>> byKey(spec.keys.size());
    for (const Issued &is : ph.issued) {
        const RequestRecord *r = ph.record(is);
        if (r == nullptr || !r->ok || byKey[is.key].size() >= spec.replayPerKey)
            continue;
        const Key &key = spec.keys[is.key];
        byKey[is.key].push_back(
            {key.benchmark, key.mode, is.noiseSeed, &r->output});
    }
    std::vector<std::vector<ReplayItem>> groups;
    if (spec.cohort) {
        for (const auto &items : byKey)
            for (size_t i = 0; i < items.size(); i += kCohortRows)
                groups.emplace_back(
                    items.begin() + i,
                    items.begin() + std::min(items.size(), i + kCohortRows));
    } else {
        groups.resize(static_cast<size_t>(rc.workers));
        size_t next = 0;
        for (const auto &items : byKey)
            for (const ReplayItem &item : items)
                groups[next++ % groups.size()].push_back(item);
    }
    const ReplayTotals t =
        replayRequests(*s.engine, groups, spec.cohort, trace);
    if (t.mismatches > 0)
        out.correct = false;
    out.failed += t.mismatches;

    const double perIter = 1e3 / std::max(t.memberIters, 1.0);
    auto &m = out.metrics;
    m.emplace_back("model.other_ms_per_iter",
                   (t.iterSeconds - t.attnSeconds - t.ffnSeconds) * perIter);
    m.emplace_back("attn.ms_per_iter", t.attnSeconds * perIter);
    m.emplace_back("attn.dense_equiv_ms_per_iter",
                   t.denseAttnSeconds * perIter);
    m.emplace_back("ep.quantize_ms_per_iter", t.epQuantizeSeconds * perIter);
    m.emplace_back("ep.predict_ms_per_iter", t.epPredictSeconds * perIter);
    m.emplace_back("ffn.ms_per_iter.dense_iter",
                   ratio(t.ffnDenseIterSeconds, t.denseMemberIters) * 1e3);
    m.emplace_back("ffn.ms_per_iter.sparse_iter",
                   ratio(t.ffnSparseIterSeconds, t.sparseMemberIters) * 1e3);
    m.emplace_back("ffn.dense_equiv_ms_per_iter",
                   t.denseFfnSeconds * perIter);
    m.emplace_back("attn.gflops", ratio(t.attnOps, t.attnSeconds) / 1e9);
    m.emplace_back("ffn.gflops", ratio(t.ffnOps, t.ffnSeconds) / 1e9);
    char share[32];
    std::snprintf(share, sizeof share, "%.3f", t.worstChildShare);
    out.notes.push_back(
        "replay: " + std::to_string(t.replayed) + " requests on "
        + std::to_string(groups.size()) + " threads, "
        + formatNumber(t.memberIters) + " request-iterations, "
        + std::to_string(t.mismatches) + " outputs differ from the engine; "
        + "largest (attention + ffn) / iteration span " + share);
}

WorkloadOutcome
runSpec(const Spec &spec, const RunConfig &rc)
{
    WorkloadOutcome out;

    // Set-up is timed several times and reported as the median; the
    // last deployment is the one measured.
    std::vector<double> setups;
    std::unique_ptr<Served> served;
    double setupTotal = 0.0;
    for (int rep = 0; rep < 9; ++rep) {
        served.reset();
        const auto t0 = Clock::now();
        served = setUp(spec, rc);
        setups.push_back(secondsBetween(t0, Clock::now()));
        setupTotal += setups.back();
        if (rc.quick || (rep >= 2 && setupTotal >= 1.0))
            break;
    }
    Served &s = *served;

    if (!rc.quick)
        warmUp(s, spec, rc);
    Phase untraced = measure(s, spec, rc, /*traced=*/false);
    const std::vector<double> lat =
        latenciesMs(untraced, 0, untraced.issued.size());
    if (lat.empty())
        throw std::runtime_error("no request of the phase completed");
    const double rps = throughput(untraced);

    Phase traced;
    if (rc.trace)
        traced = measure(s, spec, rc, /*traced=*/true);
    const Phase &checked = rc.trace ? traced : untraced;

    out.attempted = untraced.issued.size() + traced.issued.size();
    out.failed = failures(untraced) + failures(traced);
    out.digest = outputDigest(checked, spec.digestRequests);
    out.latencySamples = lat.size();
    if (rc.trace && outputDigest(untraced, spec.digestRequests) != out.digest) {
        out.correct = false;
        out.notes.push_back("untraced and traced phases disagree on outputs");
    }
    const u64 mismatches =
        checkOutputs(s, spec, checked, rc.workers, out.notes);
    out.failed += mismatches;
    out.correct = out.correct && mismatches == 0;
    std::vector<double> lag;
    for (const Issued &is : untraced.issued)
        lag.push_back(secondsBetween(is.due, is.callStart) * 1e3);
    const double lagP95 = percentile(lag, 95.0);
    char lagText[32];
    std::snprintf(lagText, sizeof lagText, "%.3g", lagP95);
    out.notes.push_back(
        "measured phase: " + std::to_string(untraced.issued.size())
        + " issued, " + std::to_string(lat.size()) + " latency samples"
        + (percentileSupported(lat.size(), 95.0)
               ? ""
               : " (fewer than the 200 a p95 needs)")
        + ", " + std::to_string(setups.size())
        + " set-ups, generator lag p95 " + lagText + " ms"
        + (lagP95 > 5.0 ? " (over 5 ms: the generator sent late)" : ""));

    if (!rc.trace) {
        out.metrics = {
            {"setup_s", median(setups)},
            {"throughput_rps", rps},
            {"latency_p50_ms", latencyMs(untraced, 50.0)},
            {"latency_p95_ms", latencyMs(untraced, 95.0)},
        };
        return out;
    }

    TraceWriter trace(rc.tracePid, untraced.start);
    engineLayerMetrics(traced, out, trace, spec);
    replayLayerMetrics(s, spec, traced, rc, out, trace);
    double storeBytes = 0.0;
    for (const auto &store : s.stores)
        storeBytes += static_cast<double>(store->sizeBytes());
    out.metrics.emplace_back("weights.store_mb", storeBytes / 1e6);
    // What recording progress costs throughput.
    out.metrics.emplace_back("trace.overhead_pct",
                             100.0 * ratio(rps - throughput(traced), rps));
    out.traceEvents = trace.take();
    return out;
}

Spec
mldBatch(ExecMode mode)
{
    ModelConfig cfg = makeConfig(Benchmark::MLD, Scale::Full);
    // 20 iterations keep FFN-Reuse's 1:9 dense:sparse ratio of a
    // 50-step run (dense at 0 and 10).
    cfg.iterations = 20;
    Spec s;
    s.models = {cfg};
    s.keys = {{Benchmark::MLD, mode}};
    s.load = Load::Bursts;
    s.cohort = true;
    s.replayPerKey = kBurstSize;
    return s;
}

Spec
mdmInteractive()
{
    ModelConfig cfg = makeConfig(Benchmark::MDM, Scale::Full);
    cfg.iterations = kMdmIterations;
    Spec s;
    s.models = {cfg};
    s.keys = {{Benchmark::MDM, ExecMode::Exion}};
    s.load = Load::ClosedLoop;
    s.digestRequests = 4;
    s.replayPerKey = 4;
    return s;
}

Spec
serveHttpMix()
{
    Spec s;
    s.models = {makeConfig(Benchmark::MLD, Scale::Reduced),
                makeConfig(Benchmark::MDM, Scale::Reduced)};
    s.keys = {{Benchmark::MLD, ExecMode::Dense},
              {Benchmark::MLD, ExecMode::Exion},
              {Benchmark::MDM, ExecMode::Dense},
              {Benchmark::MDM, ExecMode::Exion}};
    // Sorted by latency the keys fill 0-25 %, 25-75 %, 75-87.5 % and
    // 87.5-100 % of the requests, so the median is the middle of the
    // MLD-r EXION mode and the p95 lies inside the MDM-r EXION mode,
    // not on the gap between two modes.
    s.keyWeights = {0.25, 0.5, 0.125, 0.125};
    s.load = Load::ClosedLoop;
    // At most half the workers busy: nothing queues, and the HTTP and
    // generator threads, or a neighbour on the host, find an idle core.
    s.clientsPerWorker = 0.5;
    s.warmupSeconds = 2.0;
    s.http = true;
    return s;
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"mld-batch-dense",
         "full-scale MLD, dense, 32-request bursts in 8-row cohorts: "
         "tall GEMMs over cache-spilling weights dominate and sparsity "
         "does no work, the control for sparsity changes",
         [](const RunConfig &rc) {
             return runSpec(mldBatch(ExecMode::Dense), rc);
         }},
        {"mld-batch-exion",
         "the same requests in EXION mode: the per-member sparse cohort "
         "path and FFN-Reuse masked kernels dominate; compare "
         "throughput_rps with mld-batch-dense",
         [](const RunConfig &rc) {
             return runSpec(mldBatch(ExecMode::Exion), rc);
         }},
        {"mdm-interactive-exion",
         "full-scale MDM (196 tokens) in EXION mode, 6 iterations (1 dense, "
         "5 FFN-Reuse), one closed-loop client per worker: EP over 196 "
         "tokens dominates, nothing queues",
         [](const RunConfig &rc) { return runSpec(mdmInteractive(), rc); }},
        {"serve-http-mix",
         "reduced MLD/MDM 3:1 mix, dense and EXION, from one closed-loop "
         "client per two workers over one HTTP connection: the only "
         "workload through admission and the HTTP front",
         [](const RunConfig &rc) { return runSpec(serveHttpMix(), rc); }},
    };
    return defs;
}

} // namespace exion::bench
