/**
 * @file
 * Serving throughput of the batched engine, in four gated scenarios.
 *
 * Every request noise seed is fixed, so the numbers are reproducible
 * run-to-run up to OS scheduling noise in the wall-clock columns.
 *
 * Cohort batching: cohort batching off vs on for the paper-scale MLD
 * workload, gated on the dense row: stacked cohorts of up to 8
 * same-model requests must beat cohorts of one (the
 * request-at-a-time schedule cohort batching off gives). EXION's
 * cohort-on throughput over dense's is printed and written to the
 * JSON as a report, not a gate.
 *
 * SIMD: the same cohort-on load on the process's kernel table vs on
 * the scalar reference table in a child process (this binary re-run
 * under EXION_SIMD=scalar, see common/rerun_self.h), reps
 * interleaved. The tables are bit-identical by construction, so any
 * gap is pure wall clock; whenever a vector table is active it must
 * not lose to the scalar child on the dense row — the gate that keeps
 * the kernel layer an actual wall-clock win.
 *
 * Weight-store sharing: the full-scale model's store is built once
 * and registered with two engines; the JSON's weights section
 * records per-model store sizes and the RSS each registration added,
 * gated on the second engine costing < 20% of the weight RSS
 * (borrowed views, not a copy).
 *
 * Overload: a burst beyond worker capacity under an AdmissionConfig
 * with class-bounded queues and a Low-shedding watermark, reporting
 * accept/shed rates and per-class deadline-miss percentages straight
 * from EngineMetrics — the trajectory CI tracks for the serving
 * layer.
 *
 * Exits nonzero if any measured throughput is not positive, a gated
 * comparison regresses, or the overload accounting does not
 * reconcile, so CI can use a quick run as a smoke check. Any argument
 * other than --quick (and the scalar child's own) is refused.
 *
 *   ./build/bench/bench_batch_throughput [--quick]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "exion/common/rerun_self.h"
#include "exion/model/weight_store.h"
#include "exion/serve/batch_engine.h"
#include "exion/tensor/simd_dispatch.h"

using namespace exion;

namespace
{

/** Fixed seed: identical request streams on every run. */
constexpr u64 kNoiseSeedBase = 42;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
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
runOverload(bool quick)
{
    ModelConfig cfg = makeConfig(Benchmark::MLD, Scale::Reduced);
    cfg.iterations = quick ? 6 : 12;
    const int offered = quick ? 24 : 60;
    BatchEngine::Options opts;
    opts.workers = 2;
    opts.admission.maxQueuedPerClass = 8;
    opts.admission.shedThreshold = 12;
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
 * EXION's cohort-on throughput over dense's, from the cohort rows
 * (dense first, then EXION); 0 when either is missing. A report, not
 * a gate.
 */
double
exionOverDenseCohortOn(const std::vector<CohortComparison> &rows)
{
    return rows.size() == 2 && rows[0].onRps > 0.0
        ? rows[1].onRps / rows[0].onRps
        : 0.0;
}

/**
 * Same-benchmark load through a one-worker engine with cohort
 * batching off (cohorts of one) or on: every request traverses the
 * same weights, so stacked iterations amortise weight traversal and
 * per-iteration fixed costs across members. Wall time is the
 * submit-burst -> all-complete makespan.
 */
double
runCohortLoad(const ModelConfig &cfg, ExecMode mode, int n, bool cohort,
              Index max_rows)
{
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = cohort;
    opts.cohortMaxRows = max_rows;
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
              Index max_rows, int reps)
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
        const double off_s = runCohortLoad(cfg, mode, n, false, max_rows);
        const double on_s = runCohortLoad(cfg, mode, n, true, max_rows);
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

/** Cohort-on scalar-child vs active-table row of the JSON artifact. */
struct SimdComparison
{
    std::string mode;
    int requests = 0;
    double scalarRps = 0.0; //!< scalar table, in a child process
    double activeRps = 0.0; //!< this process's table

    double speedup() const
    {
        return scalarRps > 0.0 ? activeRps / scalarRps : 0.0;
    }
};

/** The cohort and SIMD gates' model: paper-scale MLD. */
ModelConfig
cohortConfig(bool quick)
{
    ModelConfig cfg = makeConfig(Benchmark::MLD, Scale::Full);
    cfg.iterations = quick ? 4 : 8;
    return cfg;
}

/** Requests in each of the cohort and SIMD gates' bursts. */
int
cohortRequests(bool quick)
{
    return quick ? 12 : 16;
}

/** Argument that makes this binary the SIMD gate's scalar child. */
constexpr char kScalarChildArg[] = "--scalar-child";

/** Prefix of the line the scalar child reports its makespan on. */
constexpr char kChildSecondsPrefix[] = "scalar-child seconds ";

/**
 * The scalar child's side of the SIMD gate: one cohort-on run of the
 * named mode on the scalar table, its makespan printed on stdout.
 */
int
runScalarChild(const std::string &mode_name, bool quick)
{
    if (activeSimdLevel() != SimdLevel::Scalar) {
        std::cerr << "error: scalar child runs at level "
                  << simdLevelName(activeSimdLevel()) << "\n";
        return 1;
    }
    ExecMode mode = ExecMode::Dense;
    if (mode_name == execModeName(ExecMode::Exion))
        mode = ExecMode::Exion;
    else if (mode_name != execModeName(ExecMode::Dense)) {
        std::cerr << "error: unknown scalar-child mode '" << mode_name
                  << "'\n";
        return 2;
    }
    const double seconds =
        runCohortLoad(cohortConfig(quick), mode, cohortRequests(quick),
                      true, /*max_rows=*/8);
    std::cout << kChildSecondsPrefix << std::setprecision(17) << seconds
              << "\n";
    return seconds > 0.0 ? 0 : 1;
}

/** One scalar child's cohort-on makespan (0 if the child failed). */
double
scalarChildSeconds(ExecMode mode, bool quick)
{
    std::vector<std::string> args = {kScalarChildArg, execModeName(mode)};
    if (quick)
        args.emplace_back("--quick");
    const ChildRun child = rerunSelf(args);
    const size_t at = child.out.find(kChildSecondsPrefix);
    if (child.status != 0 || at == std::string::npos) {
        std::cerr << "error: scalar child failed (status "
                  << child.status << "): " << child.err << "\n";
        return 0.0;
    }
    return std::strtod(
        child.out.c_str() + at + std::strlen(kChildSecondsPrefix),
        nullptr);
}

/**
 * Cohort-on, scalar child vs this process (interleaved best-of-N):
 * the same stacked load with only the kernel table swapped.
 */
SimdComparison
compareWithScalarChild(ExecMode mode, int reps, bool quick)
{
    const ModelConfig cfg = cohortConfig(quick);
    const int n = cohortRequests(quick);
    SimdComparison cmp;
    cmp.mode = execModeName(mode);
    cmp.requests = n;
    double scalar = 0.0;
    double active = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double scalar_s = scalarChildSeconds(mode, quick);
        const double active_s =
            runCohortLoad(cfg, mode, n, true, /*max_rows=*/8);
        if (scalar_s > 0.0)
            scalar = scalar == 0.0 ? scalar_s
                                   : std::min(scalar, scalar_s);
        if (active_s > 0.0)
            active = active == 0.0 ? active_s : std::min(active, active_s);
    }
    cmp.scalarRps = scalar > 0.0 ? n / scalar : 0.0;
    cmp.activeRps = active > 0.0 ? n / active : 0.0;
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
    out << "  \"exion_over_dense_cohort_on\": "
        << exionOverDenseCohortOn(rows) << ",\n";
    out << "  \"simd\": {\n";
    out << "    \"level\": \"" << simdLevelName(activeSimdLevel())
        << "\",\n";
    out << "    \"rows\": [\n";
    for (Index i = 0; i < simd_rows.size(); ++i) {
        const SimdComparison &sc = simd_rows[i];
        out << "      {\"mode\": \"" << sc.mode
            << "\", \"requests\": " << sc.requests
            << ", \"cohort\": true,\n"
            << "       \"scalar_child_rps\": " << sc.scalarRps
            << ", \"active_rps\": " << sc.activeRps
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
    bool quick = false;
    const char *child_mode = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == kScalarChildArg && i + 1 < argc) {
            child_mode = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0] << " [--quick]\n";
            return 2;
        }
    }
    if (child_mode != nullptr)
        return runScalarChild(child_mode, quick);

    std::cout << std::thread::hardware_concurrency()
              << " hardware threads, seeds fixed (noise base "
              << kNoiseSeedBase << "), simd level "
              << simdLevelName(activeSimdLevel()) << "\n";

    // Cohort batching: same-benchmark load, one worker, off vs on.
    // Paper-scale MLD (8 tokens x 256 dim, 9 blocks, ~28 MB of
    // weights) is the shape cohort batching exists for: each solo
    // iteration drags every weight matrix through the cache for just
    // 8 activation rows, so stacking same-model latents amortises the
    // traversal across the whole cohort.
    const ModelConfig cohort_cfg = cohortConfig(quick);
    const int cohort_n = cohortRequests(quick);
    std::cout << "\n== cohort batching: " << cohort_n
              << " same-model " << cohort_cfg.name
              << " (full-scale) requests, " << cohort_cfg.iterations
              << " iterations, 1 worker, max rows 8 ==\n";
    bool healthy = true;
    std::vector<CohortComparison> cohort_rows;
    for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
        // The dense row is the pass/fail gate; give it extra
        // repetitions so a noisy CI runner cannot flip the verdict.
        const int reps = mode == ExecMode::Dense ? 5 : 3;
        CohortComparison cmp = compareCohort(cohort_cfg, mode, cohort_n,
                                             /*max_rows=*/8, reps);
        std::cout << std::left << std::setw(8) << cmp.mode
                  << std::fixed << std::setprecision(2)
                  << "cohort-off " << std::setw(10) << cmp.offRps
                  << "cohort-on " << std::setw(10) << cmp.onRps
                  << "speedup " << cmp.speedup() << "x\n";
        healthy &= cmp.onRps > 0.0 && cmp.offRps > 0.0;
        cohort_rows.push_back(std::move(cmp));
    }
    std::cout << "EXION / dense, cohort-on: " << std::fixed
              << std::setprecision(2)
              << exionOverDenseCohortOn(cohort_rows)
              << "x (reported, not gated)\n";
    // The acceptance gate: stacked cohorts must beat cohorts of one
    // on the dense GEMM-amortising load.
    if (cohort_rows[0].onRps <= cohort_rows[0].offRps) {
        std::cerr << "error: cohort batching did not improve dense "
                     "same-model throughput\n";
        healthy = false;
    }

    // SIMD under cohort batching: this process's table vs the scalar
    // table in a child process. Gated only when a vector table is
    // actually active — on a scalar-only host (or under
    // EXION_SIMD=scalar) both sides run the same code and noise would
    // decide the verdict.
    std::cout << "\n== SIMD, cohort-on: " << cohort_n << " same-model "
              << cohort_cfg.name << " (full-scale) requests, "
              << cohort_cfg.iterations
              << " iterations, 1 worker, max rows 8, level "
              << simdLevelName(activeSimdLevel())
              << " vs a scalar child ==\n";
    std::vector<SimdComparison> simd_rows;
    for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
        const int reps = mode == ExecMode::Dense ? 5 : 3;
        SimdComparison cmp = compareWithScalarChild(mode, reps, quick);
        std::cout << std::left << std::setw(8) << cmp.mode
                  << std::fixed << std::setprecision(2)
                  << "scalar-child " << std::setw(10) << cmp.scalarRps
                  << simdLevelName(activeSimdLevel()) << " "
                  << std::setw(10) << cmp.activeRps << "speedup "
                  << cmp.speedup() << "x\n";
        healthy &= cmp.scalarRps > 0.0 && cmp.activeRps > 0.0;
        simd_rows.push_back(std::move(cmp));
    }
    // The acceptance gate: with a vector table active, the dense
    // cohort load must not lose to the scalar child.
    if (activeSimdLevel() != SimdLevel::Scalar
        && simd_rows[0].activeRps < simd_rows[0].scalarRps) {
        std::cerr << "error: the " << simdLevelName(activeSimdLevel())
                  << " kernels lost to the scalar child on cohort-on "
                     "dense throughput\n";
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

    healthy &= runOverload(quick);
    return healthy ? 0 : 1;
}
