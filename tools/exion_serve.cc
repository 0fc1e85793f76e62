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
 *               [--pin-weights] [--workers N] [--numa]
 *               [--max-queued N] [--shed-threshold N]
 *               [--block-timeout SECONDS] [--sse-heartbeat SECONDS]
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
 *   --workers N       engine worker threads, at most 1024 (default 0:
 *                     one per hardware thread)
 *   --numa            pin worker i to NUMA node i mod N (best-effort;
 *                     warns and serves unpinned when the host exposes
 *                     fewer than two nodes)
 *   --max-queued N    admission: ready-queue bound per priority
 *                     class (QueueFull -> HTTP 429; default 16)
 *   --shed-threshold N admission: total backlog at which Low-class
 *                     work is shed (LoadShedLow -> HTTP 503;
 *                     default 0 = shedding off)
 *   --block-timeout S admission: block this long for a queue slot
 *                     before rejecting (default 0 = reject at once)
 *   --sse-heartbeat S SSE heartbeat interval, > 0 (default 5)
 *
 * A numeric flag whose value is not entirely a number in its range
 * (text, trailing characters, a negative count, a port above 65535,
 * more than 1024 workers, a non-finite time) stops the daemon with
 * exit status 2. A store in --models DIR that cannot be loaded or
 * registered (corrupt, or its tensors or config inconsistent) stops it
 * with exit status 1. EXION_SIMD caps the kernel level
 * (simd_dispatch.h); the startup line prints the level in effect.
 *
 * The API itself is documented in serve/http_front.h; README.md has
 * curl examples.
 */

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <dirent.h>

#include "exion/common/logging.h"
#include "exion/common/numa.h"
#include "exion/model/config.h"
#include "exion/net/http_server.h"
#include "exion/serve/batch_engine.h"
#include "exion/serve/http_front.h"
#include "exion/tensor/simd_dispatch.h"

namespace
{

using namespace exion;

volatile std::sig_atomic_t g_signal = 0;

/** Most engine worker threads --workers may ask for. */
constexpr int kMaxWorkers = 1024;

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
        "          [--numa] [--shed-threshold N]\n"
        "          [--block-timeout SECONDS]\n"
        "          [--sse-heartbeat SECONDS]\n"
        "--workers takes 0..%d (0 = one per hardware thread)\n",
        argv0, kMaxWorkers);
    return 2;
}

/**
 * Parses text, the value of flag, as a T in [lo, hi]. The whole
 * string must be the number: no sign on an unsigned T, no whitespace
 * or trailing characters; NaN and infinities fall outside any range.
 * Otherwise prints an error naming the flag and what it needs.
 */
template <class T>
bool
parseNumber(const std::string &flag, const char *text, const char *what,
            std::type_identity_t<T> lo, std::type_identity_t<T> hi,
            T &out)
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
        std::fprintf(stderr, "error: %s needs %s, got '%s'\n",
                     flag.c_str(), what, text);
        return false;
    }
    out = value;
    return true;
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
    bool numa = false;
    BatchEngine::Options engineOpts;
    engineOpts.admission.maxQueuedPerClass = 16;
    HttpFront::Options frontOpts;

    constexpr int kMaxInt = std::numeric_limits<int>::max();
    constexpr u64 kMaxU64 = std::numeric_limits<u64>::max();
    constexpr double kMaxSeconds = std::numeric_limits<double>::max();
    const char *const kCount = "a whole number >= 0";
    const std::string workerRange =
        "a whole number in 0.." + std::to_string(kMaxWorkers);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        bool ok = true;
        if (arg == "--port" && (v = value()))
            ok = parseNumber(arg, v, "a port in 0..65535", 0, 65535, port);
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
            ok = parseNumber(arg, v, kCount, 0, kMaxInt, iterations);
        else if (arg == "--pin-weights")
            pinWeights = true;
        else if (arg == "--workers" && (v = value()))
            ok = parseNumber(arg, v, workerRange.c_str(), 0, kMaxWorkers,
                             engineOpts.workers);
        else if (arg == "--numa")
            numa = true;
        else if (arg == "--max-queued" && (v = value()))
            ok = parseNumber(arg, v, kCount, 0, kMaxU64,
                             engineOpts.admission.maxQueuedPerClass);
        else if (arg == "--shed-threshold" && (v = value()))
            ok = parseNumber(arg, v, kCount, 0, kMaxU64,
                             engineOpts.admission.shedThreshold);
        else if (arg == "--block-timeout" && (v = value()))
            ok = parseNumber(arg, v, "a finite number of seconds >= 0",
                             0.0, kMaxSeconds,
                             engineOpts.admission.blockTimeoutSeconds);
        else if (arg == "--sse-heartbeat" && (v = value()))
            // HttpFront refuses a non-positive interval too; checking
            // here reports it before any model is built.
            ok = parseNumber(arg, v, "a finite number of seconds > 0",
                             std::numeric_limits<double>::denorm_min(),
                             kMaxSeconds, frontOpts.sseHeartbeatSeconds);
        else
            return usage(argv[0]);
        if (!ok)
            return 2;
    }
    if (modelDir.empty() && builtin.empty()) {
        std::fprintf(stderr,
                     "error: no models (need --models DIR and/or "
                     "--builtin NAMES)\n");
        return usage(argv[0]);
    }
    // Resolving the level here makes a bad EXION_SIMD fail at boot.
    const SimdLevel simd = activeSimdLevel();

    BatchEngine engine(engineOpts);
    if (numa) {
        // Every worker reads the one weight store, so pinning places
        // threads on nodes, not weights.
        const std::vector<std::vector<int>> nodes = numaNodeCpus();
        if (nodes.size() < 2)
            EXION_WARN("--numa requested but the host exposes ",
                       nodes.size(),
                       " NUMA node(s); workers stay floating");
        else
            EXION_INFORM("pinned ", engine.pinWorkers(nodes), " of ",
                         engine.workerCount(), " workers across ",
                         nodes.size(), " NUMA nodes");
    }

    if (!modelDir.empty()) {
        const std::vector<std::string> files = storeFiles(modelDir);
        if (files.empty()) {
            std::fprintf(stderr, "error: no *.exws stores in %s\n",
                         modelDir.c_str());
            return 1;
        }
        for (const std::string &path : files) {
            try {
                engine.registerModelFromFile(path, pinWeights);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "error: cannot register %s: %s\n",
                             path.c_str(), e.what());
                return 1;
            }
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
        engine.addModel(cfg);
        std::printf("registered built-in %s (%s scale)\n",
                    benchmarkName(b).c_str(),
                    scale == Scale::Full ? "full" : "reduced");
    }

    HttpFront front(engine, frontOpts);
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

    std::printf("exion_serve listening on 127.0.0.1:%u "
                "(%d workers, simd=%s)\n",
                server.port(), engine.workerCount(), simdLevelName(simd));
    std::fflush(stdout);

    while (g_signal == 0 && server.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Graceful drain: stop the front door first — the listener
    // closes and streaming clients are disconnected (which cancels
    // their jobs cooperatively) — then run everything the engine
    // already accepted to completion.
    std::printf("\nsignal %d: draining (in-flight: %llu)\n",
                static_cast<int>(g_signal),
                static_cast<unsigned long long>(engine.inFlight()));
    std::fflush(stdout);
    server.stop();
    engine.shutdown();
    const EngineMetrics m = engine.snapshot();
    std::printf("drained: %llu completed, %llu cancelled, "
                "%llu shed, %llu connections served\n",
                static_cast<unsigned long long>(m.completed()),
                static_cast<unsigned long long>(m.cancelled()),
                static_cast<unsigned long long>(m.shed()),
                static_cast<unsigned long long>(
                    server.connectionsAccepted()));
    return 0;
}
