/**
 * @file
 * Microbenchmarks of the hot kernels: eager prediction of one
 * attention head at full-scale MLD and MDM shapes, CVG block
 * merging, bitmask extraction, quantised matmul and the dense GEMM
 * kernel against its Reference oracle. Not a paper artefact; standard
 * performance tracking for the library itself.
 *
 * Two build modes:
 *  - With Google Benchmark (EXION_HAVE_GBENCH): the usual
 *    benchmark-registered suite.
 *  - Without it: a self-timed fallback (best-of-N wall clock per
 *    kernel) so CI environments without libbenchmark still measure
 *    kernels instead of silently skipping the target.
 *
 * Both modes run the Blocked-vs-Reference comparison on the
 * paper-scale tall cohort MMULs (a stacked cohort of 8 x 8-token
 * members against full-scale MLD weight shapes) and **exit nonzero if
 * the Blocked kernel does not reach Reference throughput** — the
 * regression gate for the cache-blocked kernel.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "exion/accel/functional_device.h"
#include "exion/common/rng.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/sparsity/mask_synth.h"
#include "exion/tensor/gemm.h"
#include "exion/tensor/ops.h"

#ifdef EXION_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace exion
{
namespace
{

/**
 * Paper-scale tall cohort shapes: 8 members x 8 tokens stacked into
 * 64 activation rows against the full-scale MLD projection (256x256)
 * and FFN (256x1024, 1024x256) weights.
 */
struct GemmShape
{
    const char *name;
    Index m, k, n;
};

constexpr GemmShape kTallShapes[] = {
    {"qkv_64x256x256", 64, 256, 256},
    {"ffn1_64x256x1024", 64, 256, 1024},
    {"ffn2_64x1024x256", 64, 1024, 256},
};

/**
 * One head of eager prediction as the executor runs it: t tokens of
 * width d through the LD projections onto a d x dh head slice of Wq
 * and Wk, then the LD scores (t x dh by dh x t).
 */
struct EpHeadShape
{
    const char *name;
    Index t, d, dh;

    /** Ops of one prediction (MAC = 2): two projections, scores. */
    double ops() const
    {
        return 2.0 * (2.0 * t * d * dh + static_cast<double>(t) * t * dh);
    }
};

constexpr EpHeadShape kEpHeadShapes[] = {
    {"ep_head_mld_8x256x64", 8, 256, 64},
    {"ep_head_mdm_196x512x64", 196, 512, 64},
};

/** Int12 operands of one EpHeadShape: x, Wq head, Wk head. */
struct EpHeadOperands
{
    QuantMatrix x, wq, wk;

    explicit EpHeadOperands(const EpHeadShape &s)
    {
        Rng rng(9);
        Matrix xf(s.t, s.d), wqf(s.d, s.dh), wkf(s.d, s.dh);
        xf.fillNormal(rng, 0.0f, 1.0f);
        wqf.fillNormal(rng, 0.0f, 0.05f);
        wkf.fillNormal(rng, 0.0f, 0.05f);
        x = QuantMatrix::fromFloat(xf, IntWidth::Int12);
        wq = QuantMatrix::fromFloat(wqf, IntWidth::Int12);
        wk = QuantMatrix::fromFloat(wkf, IntWidth::Int12);
    }

    Matrix predict() const
    {
        return predictHeadScore(x, wq, wk, LodMode::TwoStep);
    }
};

/** Keeps timed results observable without Google Benchmark's
    DoNotOptimize. */
volatile float g_sink = 0.0f;

/** Name of the kernel a `blocked` flag selects below. */
const char *
kernelName(bool blocked)
{
    return blocked ? "blocked" : "reference";
}

/** A*B through the production kernel or its Reference oracle. */
Matrix
matmulBy(const Matrix &a, const Matrix &b, bool blocked)
{
    return blocked ? matmul(a, b) : matmulReference(a, b);
}

/**
 * Best-of-N wall-clock seconds for one A*B with the given kernel.
 * Best-of (not mean) because a scheduling hiccup only ever adds time.
 */
double
timeMatmul(const Matrix &a, const Matrix &b, bool blocked, int reps)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const Matrix c = matmulBy(a, b, blocked);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
        g_sink = g_sink + c(0, 0);
    }
    return best;
}

/**
 * The regression gate shared by both build modes: Blocked must reach
 * Reference throughput on the tall cohort MMULs, summed over the
 * three shapes (best-of-reps each, so one noisy run cannot flip the
 * verdict).
 *
 * @return true when Blocked >= Reference throughput
 */
bool
gateBlockedGemm(int reps)
{
    Rng rng(42);
    double ref_total = 0.0;
    double blocked_total = 0.0;
    std::printf("\n== Blocked GEMM gate: paper-scale tall cohort "
                "MMULs (best of %d) ==\n",
                reps);
    for (const GemmShape &s : kTallShapes) {
        Matrix a(s.m, s.k), b(s.k, s.n);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        const double ref = timeMatmul(a, b, /*blocked=*/false, reps);
        const double blocked = timeMatmul(a, b, /*blocked=*/true, reps);
        ref_total += ref;
        blocked_total += blocked;
        std::printf("%-20s reference %8.3f ms   blocked %8.3f ms   "
                    "speedup %.2fx\n",
                    s.name, ref * 1e3, blocked * 1e3, ref / blocked);
    }
    std::printf("%-20s reference %8.3f ms   blocked %8.3f ms   "
                "speedup %.2fx\n",
                "total", ref_total * 1e3, blocked_total * 1e3,
                ref_total / blocked_total);
    if (blocked_total > ref_total) {
        std::fprintf(stderr,
                     "error: Blocked GEMM kernel is slower than "
                     "Reference on the tall cohort MMULs\n");
        return false;
    }
    return true;
}

} // namespace
} // namespace exion

#ifdef EXION_HAVE_GBENCH

namespace exion
{
namespace
{

void
BM_EpHead(benchmark::State &state)
{
    const EpHeadShape &shape = kEpHeadShapes[state.range(0)];
    const EpHeadOperands ops(shape);
    for (auto _ : state) {
        Matrix scores = ops.predict();
        benchmark::DoNotOptimize(scores.data().data());
    }
    state.counters["GOP/s"] = benchmark::Counter(
        shape.ops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
    state.SetLabel(shape.name);
}
BENCHMARK(BM_EpHead)->Arg(0)->Arg(1);

void
BM_QuantMatmul(benchmark::State &state)
{
    const Index n = state.range(0);
    const bool blocked = state.range(1) != 0;
    Rng rng(3);
    Matrix a(n, n), b(n, n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    for (auto _ : state) {
        Matrix c = blocked ? matmulQuant(qa, qb)
                           : matmulQuantReference(qa, qb);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_QuantMatmul)
    ->ArgsProduct({{64, 128}, {0, 1}})
    ->ArgNames({"n", "blocked"});

/** Dense float GEMM vs its oracle on the tall cohort shapes. */
void
BM_GemmTall(benchmark::State &state)
{
    const GemmShape &shape = kTallShapes[state.range(0)];
    const bool blocked = state.range(1) != 0;
    Rng rng(7);
    Matrix a(shape.m, shape.k), b(shape.k, shape.n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        Matrix c = matmulBy(a, b, blocked);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * shape.m * shape.k
                            * shape.n);
    state.SetLabel(std::string(shape.name) + "/" + kernelName(blocked));
}
BENCHMARK(BM_GemmTall)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"shape", "blocked"});

/** A * B^T (attention scores) vs its oracle. */
void
BM_GemmTransposed(benchmark::State &state)
{
    const Index n = state.range(0);
    const bool blocked = state.range(1) != 0;
    Rng rng(8);
    Matrix a(n, 256), b(n, 256);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        Matrix c = blocked ? matmulTransposed(a, b)
                           : matmulTransposedReference(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * 256);
}
BENCHMARK(BM_GemmTransposed)
    ->ArgsProduct({{64, 128}, {0, 1}})
    ->ArgNames({"rows", "blocked"});

void
BM_ConMergeGroup(benchmark::State &state)
{
    const double density = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(4);
    FfnMaskParams params;
    params.density = density;
    params.deadColFraction = 0.3;
    params.hotColFraction = 0.02;
    const Bitmask2D mask = synthFfnMask(16, 1024, params, rng);
    ConMergePipeline pipeline;
    for (auto _ : state) {
        GroupResult group = pipeline.processGroup(mask, 0);
        benchmark::DoNotOptimize(group.positionsUsed);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ConMergeGroup)->Arg(3)->Arg(10)->Arg(30);

void
BM_SparseMatmulViaConMerge(benchmark::State &state)
{
    Rng rng(5);
    Matrix input(64, 64), weight(64, 256);
    input.fillNormal(rng, 0.0f, 1.0f);
    weight.fillNormal(rng, 0.0f, 1.0f);
    Bitmask2D mask(64, 256);
    for (Index r = 0; r < 64; ++r)
        for (Index c = 0; c < 256; ++c)
            if (rng.bernoulli(0.1))
                mask.set(r, c, true);
    for (auto _ : state) {
        SparseMatmulResult result =
            sparseMatmulViaConMerge(input, weight, mask);
        benchmark::DoNotOptimize(result.output.data().data());
    }
}
BENCHMARK(BM_SparseMatmulViaConMerge);

void
BM_BitmaskColumnSlice(benchmark::State &state)
{
    Rng rng(6);
    Bitmask2D mask(256, 4096);
    for (int i = 0; i < 40000; ++i)
        mask.set(rng.uniformInt(256), rng.uniformInt(4096), true);
    for (auto _ : state) {
        u64 acc = 0;
        for (Index c = 0; c < 4096; ++c)
            acc += mask.columnSlice16(c, 64);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BitmaskColumnSlice);

} // namespace
} // namespace exion

int
main(int argc, char **argv)
{
    // Accept (and strip) the repo-wide --quick flag so CI can invoke
    // every bench target uniformly; Google Benchmark would reject it.
    bool quick = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--quick")
            quick = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return exion::gateBlockedGemm(quick ? 3 : 5) ? 0 : 1;
}

#else // !EXION_HAVE_GBENCH

namespace exion
{
namespace
{

/** Best-of-N wall-clock seconds of fn. */
template <typename Fn>
double
bestOf(int reps, Fn &&fn)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/** Best-of-N wall-clock timing of fn, printed as one table row. */
template <typename Fn>
void
timeKernel(const char *name, u64 items, int reps, Fn &&fn)
{
    const double best = bestOf(reps, fn);
    std::printf("%-32s %10.3f ms   %8.1f Mitems/s\n", name, best * 1e3,
                static_cast<double>(items) / best / 1e6);
}

void
runFallbackSuite(int reps)
{
    std::printf("bench_kernels: self-timed fallback (Google Benchmark "
                "not available at build time), best of %d\n\n",
                reps);

    for (const EpHeadShape &s : kEpHeadShapes) {
        const EpHeadOperands ops(s);
        const double best = bestOf(reps, [&] {
            const Matrix scores = ops.predict();
            g_sink = g_sink + scores(0, 0);
        });
        std::printf("%-32s %10.3f ms   %8.2f GOP/s\n", s.name,
                    best * 1e3, s.ops() / best / 1e9);
    }

    for (Index n : {Index{64}, Index{128}}) {
        Rng rng(3);
        Matrix a(n, n), b(n, n);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
        const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
        for (bool blocked : {false, true}) {
            char name[64];
            std::snprintf(name, sizeof(name), "quant_matmul/%zu/%s",
                          static_cast<size_t>(n), kernelName(blocked));
            timeKernel(name, n * n * n, reps, [&] {
                const Matrix c = blocked ? matmulQuant(qa, qb)
                                         : matmulQuantReference(qa, qb);
                g_sink = g_sink + c(0, 0);
            });
        }
    }

    for (const GemmShape &s : kTallShapes) {
        Rng rng(7);
        Matrix a(s.m, s.k), b(s.k, s.n);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        for (bool blocked : {false, true}) {
            char name[64];
            std::snprintf(name, sizeof(name), "gemm_%s/%s", s.name,
                          kernelName(blocked));
            timeKernel(name, s.m * s.k * s.n, reps, [&] {
                const Matrix c = matmulBy(a, b, blocked);
                g_sink = g_sink + c(0, 0);
            });
        }
    }

    {
        Rng rng(4);
        FfnMaskParams params;
        params.density = 0.1;
        params.deadColFraction = 0.3;
        params.hotColFraction = 0.02;
        const Bitmask2D mask = synthFfnMask(16, 1024, params, rng);
        ConMergePipeline pipeline;
        timeKernel("conmerge_group/density_10", 1024, reps, [&] {
            GroupResult group = pipeline.processGroup(mask, 0);
            g_sink = g_sink + static_cast<float>(group.positionsUsed);
        });
    }
}

} // namespace
} // namespace exion

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--quick")
            quick = true;
    const int reps = quick ? 3 : 5;
    exion::runFallbackSuite(reps);
    return exion::gateBlockedGemm(reps) ? 0 : 1;
}

#endif // EXION_HAVE_GBENCH
