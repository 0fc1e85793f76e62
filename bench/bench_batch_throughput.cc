/**
 * @file
 * Serving throughput and tail latency of the batched engine:
 * requests/sec versus the single-stream path, swept over batch size
 * and worker count, with p50/p99 per-request completion latency
 * (submit -> result delivered) measured through the async path.
 *
 * The single-stream baseline is the repository's pre-engine serving
 * path: one thread, one request at a time, a fresh pipeline (weight
 * build) per request — exactly what every example binary did before
 * the BatchEngine existed. The engine amortises weight construction
 * across the batch and schedules requests over the pool, highest
 * priority first.
 *
 * Every seed is fixed (request noise seeds, pool seed), so the
 * numbers are reproducible run-to-run up to OS scheduling noise in
 * the wall-clock columns.
 *
 * A second scenario drives the engine into overload (offered load
 * beyond worker capacity) under an AdmissionConfig with class-bounded
 * queues and a Low-shedding watermark, and reports accept/shed rates
 * and per-class deadline-miss percentages straight from
 * EngineMetrics — the trajectory CI tracks for the serving layer.
 *
 * A third scenario compares cohort batching off vs on for the
 * paper-scale MLD workload, gated on the dense row: stacking
 * same-model latents must beat the request-at-a-time path.
 *
 * A fourth scenario compares the SIMD tiers under cohort batching
 * on the same workload: the Exact tier (host vector table, golden
 * accumulation order, bit-identical to Scalar) must not lose to the
 * forced-Scalar tier whenever a vector table is active — the gate
 * that keeps the kernel layer an actual wall-clock win.
 *
 * A fifth scenario measures weight-store sharing: the full-scale
 * model's store is built once and registered with two engines; the
 * JSON's weights section records per-model store sizes and the RSS
 * each registration added, gated on the second engine costing < 20%
 * of the weight RSS (borrowed views, not a copy).
 *
 * Exits nonzero if any measured throughput is not positive, a gated
 * comparison regresses, or the overload accounting does not
 * reconcile, so CI can use a quick run as a smoke check.
 *
 *   ./build/bench/bench_batch_throughput [--quick]
 *                                        [--simd scalar|exact]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exion/serve/batch_engine.h"
#include "exion/tensor/kernel_flags.h"

using namespace exion;

namespace
{

/** Fixed seeds: identical request streams on every run. */
constexpr u64 kNoiseSeedBase = 42;
constexpr u64 kPoolSeed = 0x5eed5eed5eed5eedULL;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<ServeRequest>
makeBatch(int n)
{
    std::vector<ServeRequest> batch;
    for (int i = 0; i < n; ++i) {
        ServeRequest req;
        req.id = static_cast<u64>(i);
        req.benchmark = Benchmark::MLD;
        req.mode = i % 4 == 3 ? ExecMode::Dense : ExecMode::Exion;
        req.noiseSeed = kNoiseSeedBase + static_cast<u64>(i);
        batch.push_back(req);
    }
    return batch;
}

/** Pre-engine path: fresh pipeline + executor per request, 1 thread. */
double
runSingleStream(const ModelConfig &cfg,
                const std::vector<ServeRequest> &batch)
{
    const double start = now();
    for (const ServeRequest &req : batch) {
        DiffusionPipeline pipe(cfg);
        if (req.mode == ExecMode::Dense) {
            DenseExecutor exec;
            pipe.run(exec, req.noiseSeed);
        } else {
            SparseExecutor exec(SparseExecutor::fromConfig(
                cfg, /*use_ffn_reuse=*/true, /*use_ep=*/true,
                /*quantize=*/false));
            pipe.run(exec, req.noiseSeed);
        }
    }
    return now() - start;
}

struct EngineRun
{
    double seconds = 0.0; //!< makespan of the whole batch
    double p50 = 0.0;     //!< median completion latency (s)
    double p99 = 0.0;     //!< p99 completion latency (s)
};

/** Latency at a percentile (0..100) of an ascending-sorted sample. */
double
percentile(const std::vector<double> &samples, double pct)
{
    if (samples.empty())
        return 0.0;
    const double rank =
        pct / 100.0 * static_cast<double>(samples.size() - 1);
    const Index lo = static_cast<Index>(rank);
    const Index hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

/**
 * Engine path: shared weights, W workers, async submit/complete.
 * Completion latency is measured per request from its submit() to the
 * completion callback firing.
 */
EngineRun
runEngine(const ModelConfig &cfg,
          const std::vector<ServeRequest> &batch, int workers,
          SimdTier simd)
{
    BatchEngine::Options opts;
    opts.workers = workers;
    opts.poolSeed = kPoolSeed;
    opts.simdTier = simd;
    // Latency is taken from the callback; don't accumulate results.
    opts.queueResults = false;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex mutex;
    std::vector<double> submit_time(batch.size(), 0.0);
    std::vector<double> latencies;
    latencies.reserve(batch.size());
    engine.setOnComplete([&](const RequestResult &r) {
        const double done = now();
        std::lock_guard<std::mutex> lock(mutex);
        latencies.push_back(done - submit_time[r.id]);
    });

    const double start = now();
    for (const ServeRequest &req : batch) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            submit_time[req.id] = now();
        }
        engine.submit(req);
    }
    engine.waitIdle();
    EngineRun run;
    run.seconds = now() - start;
    std::sort(latencies.begin(), latencies.end());
    run.p50 = percentile(latencies, 50.0);
    run.p99 = percentile(latencies, 99.0);
    return run;
}

/**
 * Overload scenario: a submission burst well beyond what the workers
 * can start, pushed through trySubmit() under a shedding admission
 * policy. Everything the policy admits runs; the report shows how the
 * boundary behaved, per class, from the engine's own snapshot().
 *
 * @return whether the snapshot reconciled with the observed outcomes
 */
bool
runOverload(const ModelConfig &cfg, bool quick)
{
    const int offered = quick ? 24 : 60;
    BatchEngine::Options opts;
    opts.workers = 2;
    opts.poolSeed = kPoolSeed;
    opts.queueResults = false;
    opts.admission.maxQueuedPerClass = 8;
    opts.admission.shedThreshold = 12;
    opts.admission.shedBelow = Priority::Normal;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::cout << "\n== overload: " << offered
              << " requests offered in one burst, 2 workers, "
              << "class bound 8, shed watermark 12 ==\n";

    // 2:1 Low:High mix; Low deadlines are tight enough that queueing
    // behind the burst misses them, High generous enough to hold.
    std::array<u64, kNumPriorityClasses> observed_accepted{};
    std::array<u64, kNumPriorityClasses> observed_rejected{};
    std::vector<Ticket> tickets;
    for (int i = 0; i < offered; ++i) {
        ServeRequest req;
        req.id = static_cast<u64>(i);
        req.benchmark = cfg.benchmark;
        req.mode = ExecMode::Exion;
        req.noiseSeed = kNoiseSeedBase + static_cast<u64>(i);
        const bool low = i % 3 != 2;
        req.priority = low ? Priority::Low : Priority::High;
        req.deadlineSeconds = low ? 0.02 : 5.0;
        const SubmitOutcome outcome = engine.trySubmit(req);
        if (outcome.accepted()) {
            ++observed_accepted[classIndex(req.priority)];
            tickets.push_back(outcome.ticket);
        } else {
            ++observed_rejected[classIndex(req.priority)];
        }
    }
    engine.waitIdle();

    const EngineMetrics m = engine.snapshot();
    std::cout << std::left << std::setw(10) << "class" << std::setw(9)
              << "offered" << std::setw(10) << "accepted"
              << std::setw(7) << "shed" << std::setw(12)
              << "queue-full" << std::setw(11) << "completed"
              << "deadline-miss\n";
    bool reconciled = true;
    for (int c = 0; c < kNumPriorityClasses; ++c) {
        const ClassMetrics &cm = m.perClass[c];
        const u64 class_offered =
            observed_accepted[c] + observed_rejected[c];
        if (class_offered == 0)
            continue;
        const double miss_pct = cm.completed == 0 ? 0.0
            : 100.0 * static_cast<double>(cm.deadlineMisses)
                / static_cast<double>(cm.completed);
        std::ostringstream miss;
        miss << std::fixed << std::setprecision(1) << miss_pct << " %";
        std::cout << std::left << std::setw(10)
                  << priorityName(static_cast<Priority>(c))
                  << std::setw(9) << class_offered << std::setw(10)
                  << cm.accepted << std::setw(7) << cm.shed
                  << std::setw(12) << cm.rejectedQueueFull
                  << std::setw(11) << cm.completed << miss.str()
                  << "\n";
        reconciled &= cm.accepted == observed_accepted[c];
        reconciled &= cm.rejected() == observed_rejected[c];
        reconciled &= cm.completed == cm.accepted;
    }
    const double accept_rate = 100.0
        * static_cast<double>(m.accepted())
        / static_cast<double>(offered);
    std::cout << std::fixed << std::setprecision(1) << "accept rate "
              << accept_rate << " %, shed rate "
              << 100.0 * static_cast<double>(m.shed())
            / static_cast<double>(offered)
              << " %, queue wait p50/p99 " << std::setprecision(1)
              << m.queueWaitP50 * 1e3 << "/" << m.queueWaitP99 * 1e3
              << " ms\n";
    for (Ticket &t : tickets)
        reconciled &= t.get().ok();
    if (!reconciled)
        std::cerr << "error: snapshot does not reconcile with "
                     "observed admission outcomes\n";
    return reconciled;
}

/** One cohort-on/off comparison row of the JSON artifact. */
struct CohortComparison
{
    std::string mode;
    int requests = 0;
    int workers = 1;
    Index maxRows = 8;
    double offRps = 0.0;
    double onRps = 0.0;

    double speedup() const
    {
        return offRps > 0.0 ? onRps / offRps : 0.0;
    }
};

/**
 * Same-benchmark load through the engine with cohort batching off vs
 * on, single worker: every request traverses the same weights, so
 * the cohort path's stacked iterations amortise weight traversal and
 * per-iteration fixed costs across members. Wall time is the
 * submit-burst -> all-complete makespan.
 */
double
runCohortLoad(const ModelConfig &cfg, ExecMode mode, int n,
              int workers, bool cohort, Index max_rows, SimdTier simd)
{
    BatchEngine::Options opts;
    opts.workers = workers;
    opts.poolSeed = kPoolSeed;
    opts.queueResults = false;
    opts.cohortBatching = cohort;
    opts.cohortMaxRows = max_rows;
    opts.simdTier = simd;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause(); // stage the burst so both paths see a full queue
    std::vector<Ticket> tickets;
    tickets.reserve(n);
    for (int i = 0; i < n; ++i) {
        ServeRequest req;
        req.id = static_cast<u64>(i);
        req.benchmark = cfg.benchmark;
        req.mode = mode;
        req.noiseSeed = kNoiseSeedBase + static_cast<u64>(i);
        tickets.push_back(engine.submit(req));
    }
    const double start = now();
    engine.resume();
    for (Ticket &t : tickets)
        t.wait();
    const double seconds = now() - start;
    for (Ticket &t : tickets) {
        if (!t.get().ok())
            return 0.0;
    }
    return seconds;
}

CohortComparison
compareCohort(const ModelConfig &cfg, ExecMode mode, int n,
              Index max_rows, int reps, SimdTier simd)
{
    CohortComparison cmp;
    cmp.mode = execModeName(mode);
    cmp.requests = n;
    cmp.maxRows = max_rows;
    // Interleaved best-of-N: the makespans are short enough that a
    // single OS scheduling hiccup would swamp the structural gap, so
    // each path keeps its fastest run (the least-disturbed one).
    double off = 0.0;
    double on = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double off_s = runCohortLoad(cfg, mode, n, /*workers=*/1,
                                           false, max_rows, simd);
        const double on_s = runCohortLoad(cfg, mode, n, /*workers=*/1,
                                          true, max_rows, simd);
        if (off_s > 0.0)
            off = off == 0.0 ? off_s : std::min(off, off_s);
        if (on_s > 0.0)
            on = on == 0.0 ? on_s : std::min(on, on_s);
    }
    cmp.offRps = off > 0.0 ? n / off : 0.0;
    cmp.onRps = on > 0.0 ? n / on : 0.0;
    return cmp;
}

/** Resident-set size from /proc/self/status, in KiB (0 if absent). */
long
rssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/** Weight-memory accounting of the JSON artifact's weights section. */
struct WeightsReport
{
    /** (model name, serialized store bytes) for every benchmark. */
    std::vector<std::pair<std::string, u64>> storeSizes;
    /** Store the two engines below share. */
    u64 sharedStoreBytes = 0;
    long storeRssKb = 0;        //!< RSS delta of building the store
    long firstEngineRssKb = 0;  //!< delta of engine 1 registering it
    long secondEngineRssKb = 0; //!< delta of engine 2 registering it
    bool measured = false;      //!< false when /proc is unavailable
};

/**
 * Measures what weight sharing saves: builds the full-scale store
 * once, registers it with two engines in turn, and reads the RSS
 * growth each step causes. The second engine borrows views into the
 * same image, so its growth must be a small fraction of the weight
 * RSS — the gate that keeps "N engines, one weight copy" true.
 */
WeightsReport
measureWeightSharing(const ModelConfig &cfg)
{
    WeightsReport report;
    for (Benchmark b : allBenchmarks()) {
        const ModelConfig rc = makeConfig(b, Scale::Reduced);
        report.storeSizes.emplace_back(
            rc.name, WeightStore::build(rc)->sizeBytes());
    }

    BatchEngine::Options eopts;
    eopts.workers = 1;
    eopts.poolSeed = kPoolSeed;
    eopts.queueResults = false;

    const long base = rssKb();
    const auto store = WeightStore::build(cfg);
    report.sharedStoreBytes = store->sizeBytes();
    const long after_build = rssKb();
    BatchEngine first(eopts);
    first.registerModel(cfg.benchmark, store);
    const long after_first = rssKb();
    BatchEngine second(eopts);
    second.registerModel(cfg.benchmark, store);
    const long after_second = rssKb();

    report.storeRssKb = after_build - base;
    report.firstEngineRssKb = after_first - after_build;
    report.secondEngineRssKb = after_second - after_first;
    report.measured = base > 0 && report.storeRssKb > 0;
    return report;
}

/** Cohort-on SIMD tier comparison row of the JSON artifact. */
struct SimdComparison
{
    std::string mode;
    int requests = 0;
    double scalarRps = 0.0;
    double exactRps = 0.0;

    double speedup() const
    {
        return scalarRps > 0.0 ? exactRps / scalarRps : 0.0;
    }
};

/**
 * Cohort-on, Scalar vs Exact SIMD tier (interleaved best-of-N): the
 * same stacked load with only the kernel table swapped — the tiers
 * are bit-identical by construction, so any gap is pure wall clock.
 */
SimdComparison
compareSimdTiers(const ModelConfig &cfg, ExecMode mode, int n,
                 Index max_rows, int reps)
{
    SimdComparison cmp;
    cmp.mode = execModeName(mode);
    cmp.requests = n;
    double scalar = 0.0;
    double exact = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double scalar_s = runCohortLoad(
            cfg, mode, n, /*workers=*/1, true, max_rows, SimdTier::Scalar);
        const double exact_s = runCohortLoad(
            cfg, mode, n, /*workers=*/1, true, max_rows, SimdTier::Exact);
        if (scalar_s > 0.0)
            scalar = scalar == 0.0 ? scalar_s
                                   : std::min(scalar, scalar_s);
        if (exact_s > 0.0)
            exact = exact == 0.0 ? exact_s : std::min(exact, exact_s);
    }
    cmp.scalarRps = scalar > 0.0 ? n / scalar : 0.0;
    cmp.exactRps = exact > 0.0 ? n / exact : 0.0;
    return cmp;
}

/** Machine-readable artifact tracking the cohort perf trajectory. */
void
writeBenchJson(const std::string &path, const ModelConfig &cfg,
               bool quick, const std::vector<CohortComparison> &rows,
               const std::vector<SimdComparison> &simd_rows,
               const WeightsReport &weights)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << path << "\n";
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"bench_batch_throughput\",\n";
    out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    out << "  \"model\": \"" << cfg.name << "\",\n";
    out << "  \"iterations\": " << cfg.iterations << ",\n";
    out << "  \"cohort\": [\n";
    for (Index i = 0; i < rows.size(); ++i) {
        const CohortComparison &c = rows[i];
        out << "    {\"mode\": \"" << c.mode << "\", \"requests\": "
            << c.requests << ", \"workers\": " << c.workers
            << ", \"max_rows\": " << c.maxRows << ",\n"
            << "     \"off_rps\": " << c.offRps << ", \"on_rps\": "
            << c.onRps << ", \"speedup\": " << c.speedup() << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"simd\": {\n";
    out << "    \"level\": \"" << simdLevelName(activeSimdLevel())
        << "\",\n";
    out << "    \"rows\": [\n";
    for (Index i = 0; i < simd_rows.size(); ++i) {
        const SimdComparison &sc = simd_rows[i];
        out << "      {\"mode\": \"" << sc.mode
            << "\", \"requests\": " << sc.requests
            << ", \"cohort\": true,\n"
            << "       \"scalar_rps\": " << sc.scalarRps
            << ", \"exact_rps\": " << sc.exactRps
            << ", \"speedup\": " << sc.speedup() << "}"
            << (i + 1 < simd_rows.size() ? "," : "") << "\n";
    }
    out << "    ]\n";
    out << "  },\n";
    out << "  \"weights\": {\n";
    out << "    \"stores\": [\n";
    for (Index i = 0; i < weights.storeSizes.size(); ++i)
        out << "      {\"model\": \"" << weights.storeSizes[i].first
            << "\", \"bytes\": " << weights.storeSizes[i].second << "}"
            << (i + 1 < weights.storeSizes.size() ? "," : "") << "\n";
    out << "    ],\n";
    out << "    \"shared_store_bytes\": " << weights.sharedStoreBytes
        << ",\n";
    out << "    \"measured\": "
        << (weights.measured ? "true" : "false") << ",\n";
    out << "    \"rss_kb\": {\"store\": " << weights.storeRssKb
        << ", \"first_engine\": " << weights.firstEngineRssKb
        << ", \"second_engine\": " << weights.secondEngineRssKb
        << "}\n";
    out << "  }\n";
    out << "}\n";
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::quickMode(argc, argv);

    // --simd: kernel tier for the main throughput sweep and the
    // cohort on/off comparison (the SIMD comparison below always
    // measures both tiers).
    KernelFlags sweep_kernels;
    for (int i = 1; i < argc; ++i) {
        std::string err;
        if (tryConsumeKernelFlag(argc, argv, i, sweep_kernels, err)
            == KernelFlagStatus::Error) {
            std::cerr << "error: " << err << "\n";
            return 1;
        }
    }
    const SimdTier sweep_simd = sweep_kernels.simd;

    ModelConfig cfg = makeConfig(Benchmark::MLD, Scale::Reduced);
    cfg.iterations = quick ? 6 : 12;

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::cout << "model " << cfg.name << ", " << cfg.iterations
              << " iterations, " << hw << " hardware threads, seeds "
              << "fixed (noise base " << kNoiseSeedBase << "), simd "
              << simdTierName(sweep_simd) << " (level "
              << simdLevelName(activeSimdLevel()) << ")\n\n";

    std::vector<int> batches = {1, 4, 8};
    if (!quick)
        batches.push_back(16);
    std::vector<int> workers = {1, 2, 4};
    if (hw > 4)
        workers.push_back(static_cast<int>(hw));

    std::cout << std::left << std::setw(8) << "batch" << std::setw(16)
              << "single-stream";
    for (int w : workers)
        std::cout << std::setw(26) << ("engine w=" + std::to_string(w));
    std::cout << "best speedup\n";
    std::cout << std::setw(8) << "" << std::setw(16) << "(req/s)";
    for (size_t i = 0; i < workers.size(); ++i)
        std::cout << std::setw(26) << "(req/s, p50/p99 ms)";
    std::cout << "\n";

    bool healthy = true;
    for (int n : batches) {
        const auto batch = makeBatch(n);
        const double base_s = runSingleStream(cfg, batch);
        const double base_rps = n / base_s;
        healthy &= base_rps > 0.0;
        std::cout << std::left << std::setw(8) << n << std::fixed
                  << std::setprecision(2) << std::setw(16) << base_rps;
        double best = 0.0;
        for (int w : workers) {
            const EngineRun run = runEngine(cfg, batch, w, sweep_simd);
            const double rps = n / run.seconds;
            healthy &= rps > 0.0;
            best = std::max(best, rps);
            std::ostringstream cell;
            cell << std::fixed << std::setprecision(2) << rps << ", "
                 << std::setprecision(1) << run.p50 * 1e3 << "/"
                 << run.p99 * 1e3;
            std::cout << std::setw(26) << cell.str();
        }
        std::cout << std::setprecision(2) << best / base_rps << "x\n";
    }

    std::cout << "\nSpeedup sources: shared weight construction "
                 "(amortised across the batch)\nand worker "
                 "parallelism (scales with hardware threads). p50/p99 "
                 "are per-request\nsubmit->completion latencies "
                 "through the async path; the batch tail no longer\n"
                 "gates early completions, so p50 stays low even when "
                 "a slow dense request\nstretches the makespan.\n";
    if (!healthy)
        std::cerr << "error: measured non-positive throughput\n";

    // Cohort batching: same-benchmark load, one worker, off vs on.
    // Paper-scale MLD (8 tokens x 256 dim, 9 blocks, ~28 MB of
    // weights) is the shape cohort batching exists for: each solo
    // iteration drags every weight matrix through the cache for just
    // 8 activation rows, so stacking same-model latents amortises the
    // traversal across the whole cohort.
    ModelConfig cohort_cfg = makeConfig(Benchmark::MLD, Scale::Full);
    cohort_cfg.iterations = quick ? 4 : 8;
    const int cohort_n = quick ? 12 : 16;
    std::cout << "\n== cohort batching: " << cohort_n
              << " same-model " << cohort_cfg.name
              << " (full-scale) requests, " << cohort_cfg.iterations
              << " iterations, 1 worker, max rows 8 ==\n";
    std::vector<CohortComparison> cohort_rows;
    for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
        // The dense row is the pass/fail gate; give it extra
        // repetitions so a noisy CI runner cannot flip the verdict.
        const int reps = mode == ExecMode::Dense ? 5 : 3;
        CohortComparison cmp =
            compareCohort(cohort_cfg, mode, cohort_n, /*max_rows=*/8,
                          reps, sweep_simd);
        std::cout << std::left << std::setw(8) << cmp.mode
                  << std::fixed << std::setprecision(2)
                  << "cohort-off " << std::setw(10) << cmp.offRps
                  << "cohort-on " << std::setw(10) << cmp.onRps
                  << "speedup " << cmp.speedup() << "x\n";
        healthy &= cmp.onRps > 0.0 && cmp.offRps > 0.0;
        cohort_rows.push_back(std::move(cmp));
    }
    // The acceptance gate: stacking same-model latents must beat the
    // request-at-a-time path on the dense GEMM-amortising load.
    if (cohort_rows[0].onRps <= cohort_rows[0].offRps) {
        std::cerr << "error: cohort batching did not improve dense "
                     "same-model throughput\n";
        healthy = false;
    }

    // SIMD tiers under cohort batching: the kernels with the scalar
    // table forced vs the host vector table under the Exact
    // (bit-identical) contract. Gated only when a vector table is
    // actually active — on a scalar-only host (or under
    // EXION_SIMD=scalar) both rows run the same code and noise would
    // decide the verdict.
    std::cout << "\n== SIMD tiers, cohort-on: "
              << cohort_n << " same-model " << cohort_cfg.name
              << " (full-scale) requests, " << cohort_cfg.iterations
              << " iterations, 1 worker, max rows 8 (level "
              << simdLevelName(activeSimdLevel()) << ") ==\n";
    std::vector<SimdComparison> simd_rows;
    for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
        const int reps = mode == ExecMode::Dense ? 5 : 3;
        SimdComparison cmp = compareSimdTiers(
            cohort_cfg, mode, cohort_n, /*max_rows=*/8, reps);
        std::cout << std::left << std::setw(8) << cmp.mode
                  << std::fixed << std::setprecision(2) << "scalar "
                  << std::setw(10) << cmp.scalarRps << "exact "
                  << std::setw(10) << cmp.exactRps << "speedup "
                  << cmp.speedup() << "x\n";
        healthy &= cmp.scalarRps > 0.0 && cmp.exactRps > 0.0;
        simd_rows.push_back(std::move(cmp));
    }
    // The acceptance gate: with a vector table active, dispatching
    // the dense cohort load onto it must not lose to forced scalar.
    if (activeSimdLevel() != SimdLevel::Scalar
        && simd_rows[0].exactRps < simd_rows[0].scalarRps) {
        std::cerr << "error: Exact-tier vector kernels lost to the "
                     "forced-scalar tier on cohort-on dense "
                     "throughput\n";
        healthy = false;
    }
    // Weight sharing: the store built once, registered with two
    // engines; the second engine must borrow, not copy.
    const WeightsReport weights = measureWeightSharing(cohort_cfg);
    std::cout << "\n== weight store sharing: " << cohort_cfg.name
              << " (full-scale), "
              << weights.sharedStoreBytes / (1024 * 1024)
              << " MiB store, 2 engines ==\n";
    if (weights.measured) {
        const double frac = static_cast<double>(weights.secondEngineRssKb)
            / static_cast<double>(weights.storeRssKb);
        std::cout << std::fixed << std::setprecision(1)
                  << "store RSS " << weights.storeRssKb
                  << " KiB, first engine +" << weights.firstEngineRssKb
                  << " KiB, second engine +"
                  << weights.secondEngineRssKb << " KiB ("
                  << std::setprecision(1) << frac * 100.0
                  << "% of weight RSS, gate < 20%)\n";
        // The acceptance gate: a second engine over the same store
        // must cost a small fraction of the weights it would have
        // duplicated before the store existed.
        if (weights.secondEngineRssKb
            >= weights.storeRssKb / 5) {
            std::cerr << "error: second engine sharing the weight "
                         "store grew RSS by "
                      << weights.secondEngineRssKb << " KiB, >= 20% "
                         "of the " << weights.storeRssKb
                      << " KiB weight RSS — weights are being "
                         "copied, not shared\n";
            healthy = false;
        }
    } else {
        std::cout << "RSS not measurable on this platform; size-only "
                     "report\n";
    }

    writeBenchJson("BENCH_batch.json", cohort_cfg, quick, cohort_rows,
                   simd_rows, weights);

    healthy &= runOverload(cfg, quick);
    return healthy ? 0 : 1;
}
