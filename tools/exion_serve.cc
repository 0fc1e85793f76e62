/**
 * @file
 * exion_serve — the HTTP serving daemon.
 *
 * Boots a BatchEngine over serialized EXWS weight stores (or built-in
 * seeded models), mounts the HttpFront REST API on an HttpServer and
 * runs until SIGINT/SIGTERM, then drains gracefully: the listener
 * closes first (new connections refused, streaming clients
 * disconnected), then every request the engine already accepted runs
 * to completion before the process exits.
 *
 * Usage:
 *   exion_serve [--port N] [--models DIR] [--builtin NAME[,NAME...]]
 *               [--scale full|reduced] [--iterations N]
 *               [--pin-weights] [--workers N]
 *               [--shards N] [--shard-workers N] [--route POLICY]
 *               [--numa]
 *               [--max-queued N] [--shed-threshold N]
 *               [--block-timeout SECONDS] [--sse-heartbeat SECONDS]
 *               [--simd scalar|exact]
 *
 *   --port N          listen port on 127.0.0.1 (default 8080;
 *                     0 = ephemeral, the chosen port is printed)
 *   --models DIR      register every *.exws store in DIR
 *                     (exion_convert writes them)
 *   --builtin NAMES   comma-separated benchmark names to build
 *                     in-process instead of loading from disk
 *   --scale           model scale for --builtin (default reduced)
 *   --iterations N    denoising-iteration override for --builtin
 *   --pin-weights     mlock() loaded stores (best-effort; a failed
 *                     pin warns and serves unpinned)
 *   --workers N       engine worker threads (default: hardware;
 *                     ignored when --shards > 1 — see --shard-workers)
 *   --shards N        replica shards: N BatchEngines sharing the
 *                     same weight stores behind a snapshot-routed
 *                     ShardRouter (default 1 = solo engine)
 *   --shard-workers N worker threads per shard (default: hardware
 *                     split evenly across shards)
 *   --route POLICY    placement policy: least-depth (default),
 *                     deadline-aware, cohort-affinity
 *   --numa            pin shard workers round-robin across NUMA
 *                     nodes (best-effort; warns and serves unpinned
 *                     when the host has no topology; no effect
 *                     without --shards > 1)
 *   --max-queued N    admission: ready-queue bound per priority
 *                     class (QueueFull -> HTTP 429; default 16)
 *   --shed-threshold N admission: total backlog at which Low-class
 *                     work is shed (LoadShedLow -> HTTP 503;
 *                     default 0 = shedding off)
 *   --block-timeout S admission: block this long for a queue slot
 *                     before rejecting (default 0 = reject at once)
 *   --sse-heartbeat S SSE heartbeat interval (default 5)
 *
 * The API itself is documented in serve/http_front.h; README.md has
 * curl examples.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>

#include "exion/model/config.h"
#include "exion/net/http_server.h"
#include "exion/serve/batch_engine.h"
#include "exion/serve/http_front.h"
#include "exion/serve/shard_router.h"
#include "exion/tensor/kernel_flags.h"

namespace
{

using namespace exion;

volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--port N] [--models DIR] [--builtin NAME[,...]]\n"
        "          [--scale full|reduced] [--iterations N]\n"
        "          [--pin-weights] [--workers N] [--max-queued N]\n"
        "          [--shards N] [--shard-workers N] [--route POLICY]\n"
        "          [--numa] [--shed-threshold N]\n"
        "          [--block-timeout SECONDS]\n"
        "          [--sse-heartbeat SECONDS] %s\n",
        argv0, kernelFlagsUsage());
    return 2;
}

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i]))
            != std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

bool
parseBenchmark(const std::string &name, Benchmark &out)
{
    for (Benchmark b : allBenchmarks()) {
        if (iequals(name, benchmarkName(b))) {
            out = b;
            return true;
        }
    }
    return false;
}

/** All *.exws files under dir, sorted for deterministic registration. */
std::vector<std::string>
storeFiles(const std::string &dir)
{
    std::vector<std::string> files;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return files;
    while (const dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() > 5
            && name.compare(name.size() - 5, 5, ".exws") == 0)
            files.push_back(dir + "/" + name);
    }
    ::closedir(d);
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    int port = 8080;
    std::string modelDir;
    std::string builtin;
    Scale scale = Scale::Reduced;
    int iterations = 0;
    bool pinWeights = false;
    int shards = 1;
    int shardWorkers = 0;
    RoutePolicy route = RoutePolicy::LeastDepth;
    bool numa = false;
    KernelFlags kernels;
    BatchEngine::Options engineOpts;
    engineOpts.admission.maxQueuedPerClass = 16;
    // The HTTP front observes completions through tickets and the
    // completion callback; an unread result queue would only hold
    // every output alive.
    engineOpts.queueResults = false;
    HttpFront::Options frontOpts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string err;
        const KernelFlagStatus ks =
            tryConsumeKernelFlag(argc, argv, i, kernels, err);
        if (ks == KernelFlagStatus::Error) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 2;
        }
        if (ks == KernelFlagStatus::Consumed)
            continue;
        const KernelFlagStatus rs =
            tryConsumeRouteFlag(argc, argv, i, route, err);
        if (rs == KernelFlagStatus::Error) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 2;
        }
        if (rs == KernelFlagStatus::Consumed)
            continue;
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--port" && (v = value()))
            port = std::atoi(v);
        else if (arg == "--models" && (v = value()))
            modelDir = v;
        else if (arg == "--builtin" && (v = value()))
            builtin = v;
        else if (arg == "--scale" && (v = value())) {
            if (iequals(v, "full"))
                scale = Scale::Full;
            else if (iequals(v, "reduced"))
                scale = Scale::Reduced;
            else
                return usage(argv[0]);
        } else if (arg == "--iterations" && (v = value()))
            iterations = std::atoi(v);
        else if (arg == "--pin-weights")
            pinWeights = true;
        else if (arg == "--workers" && (v = value()))
            engineOpts.workers = std::atoi(v);
        else if (arg == "--shards" && (v = value()))
            shards = std::atoi(v);
        else if (arg == "--shard-workers" && (v = value()))
            shardWorkers = std::atoi(v);
        else if (arg == "--numa")
            numa = true;
        else if (arg == "--max-queued" && (v = value()))
            engineOpts.admission.maxQueuedPerClass =
                static_cast<u64>(std::atoll(v));
        else if (arg == "--shed-threshold" && (v = value()))
            engineOpts.admission.shedThreshold =
                static_cast<u64>(std::atoll(v));
        else if (arg == "--block-timeout" && (v = value()))
            engineOpts.admission.blockTimeoutSeconds = std::atof(v);
        else if (arg == "--sse-heartbeat" && (v = value()))
            frontOpts.sseHeartbeatSeconds = std::atof(v);
        else
            return usage(argv[0]);
    }
    if (modelDir.empty() && builtin.empty()) {
        std::fprintf(stderr,
                     "error: no models (need --models DIR and/or "
                     "--builtin NAMES)\n");
        return usage(argv[0]);
    }
    if (port < 0 || port > 65535)
        return usage(argv[0]);
    if (shards < 1) {
        std::fprintf(stderr, "error: --shards must be >= 1\n");
        return 2;
    }
    engineOpts.simdTier = kernels.simd;

    // One engine when unsharded (no router indirection to pay for),
    // a snapshot-routed ShardRouter otherwise — both serve the same
    // ServeBackend surface, so everything downstream is shared.
    std::unique_ptr<BatchEngine> soloEngine;
    std::unique_ptr<ShardRouter> router;
    if (shards > 1) {
        ShardRouter::Options routerOpts;
        routerOpts.shards = shards;
        routerOpts.shardWorkers = shardWorkers;
        routerOpts.policy = route;
        routerOpts.engine = engineOpts;
        routerOpts.numa = numa;
        router = std::make_unique<ShardRouter>(routerOpts);
    } else {
        if (numa)
            std::fprintf(stderr,
                         "warning: --numa has no effect without "
                         "--shards > 1\n");
        soloEngine = std::make_unique<BatchEngine>(engineOpts);
    }
    ServeBackend &backend =
        router ? static_cast<ServeBackend &>(*router)
               : static_cast<ServeBackend &>(*soloEngine);
    const auto registerFromFile = [&](const std::string &path) {
        if (router)
            router->registerModelFromFile(path, pinWeights);
        else
            soloEngine->registerModelFromFile(path, pinWeights);
    };
    const auto registerBuiltin = [&](const ModelConfig &cfg) {
        if (router)
            router->addModel(cfg);
        else
            soloEngine->addModel(cfg);
    };

    if (!modelDir.empty()) {
        const std::vector<std::string> files = storeFiles(modelDir);
        if (files.empty()) {
            std::fprintf(stderr, "error: no *.exws stores in %s\n",
                         modelDir.c_str());
            return 1;
        }
        for (const std::string &path : files) {
            registerFromFile(path);
            std::printf("registered %s%s\n", path.c_str(),
                        pinWeights ? " (pin requested)" : "");
        }
    }
    for (size_t at = 0; at < builtin.size();) {
        size_t comma = builtin.find(',', at);
        if (comma == std::string::npos)
            comma = builtin.size();
        const std::string name = builtin.substr(at, comma - at);
        at = comma + 1;
        if (name.empty())
            continue;
        Benchmark b = Benchmark::MLD;
        if (!parseBenchmark(name, b)) {
            std::fprintf(stderr, "error: unknown benchmark '%s'\n",
                         name.c_str());
            return 1;
        }
        ModelConfig cfg = makeConfig(b, scale);
        if (iterations > 0)
            cfg.iterations = iterations;
        registerBuiltin(cfg);
        std::printf("registered built-in %s (%s scale)\n",
                    benchmarkName(b).c_str(),
                    scale == Scale::Full ? "full" : "reduced");
    }

    HttpFront front(backend, frontOpts);
    HttpServer::Options serverOpts;
    serverOpts.port = static_cast<u16>(port);
    HttpServer server(serverOpts,
                      [&front](const HttpRequest &req,
                               ResponseWriter &writer) {
                          front.handle(req, writer);
                      });
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%d: %s\n",
                     port, e.what());
        return 1;
    }

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    if (router)
        std::printf("exion_serve listening on 127.0.0.1:%u "
                    "(%d shards x %d workers, route=%s%s, simd=%s)\n",
                    server.port(), router->shardCount(),
                    router->shard(0).workerCount(),
                    routePolicyName(route).c_str(),
                    numa ? ", numa" : "",
                    simdTierName(kernels.simd));
    else
        std::printf("exion_serve listening on 127.0.0.1:%u "
                    "(%d workers, simd=%s)\n",
                    server.port(), backend.workerCount(),
                    simdTierName(kernels.simd));
    std::fflush(stdout);

    while (g_signal == 0 && server.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Graceful drain: stop the front door first — the listener
    // closes and streaming clients are disconnected (which cancels
    // their jobs cooperatively) — then run everything the engine
    // already accepted to completion.
    std::printf("\nsignal %d: draining (in-flight: %llu)\n",
                static_cast<int>(g_signal),
                static_cast<unsigned long long>(backend.inFlight()));
    std::fflush(stdout);
    server.stop();
    backend.shutdown();
    const EngineMetrics m = backend.snapshot();
    std::printf("drained: %llu completed, %llu cancelled, "
                "%llu shed, %llu connections served\n",
                static_cast<unsigned long long>(m.completed()),
                static_cast<unsigned long long>(m.cancelled()),
                static_cast<unsigned long long>(m.shed()),
                static_cast<unsigned long long>(
                    server.connectionsAccepted()));
    return 0;
}
