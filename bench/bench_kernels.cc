/**
 * @file
 * Microbenchmarks of the hot kernels: eager prediction of one
 * attention head at full-scale MLD and MDM shapes (as the executor
 * runs it, against the block's cached weight images, decisions
 * included), CVG block merging, bitmask extraction, quantised matmul,
 * the dense GEMM kernel against its Reference oracle, and the integer
 * GEMM, the masked dots and the Int12 element loops against the scalar
 * table. Not a paper artefact; standard performance tracking for the
 * library itself.
 *
 * Two build modes:
 *  - With Google Benchmark (EXION_HAVE_GBENCH): the usual
 *    benchmark-registered suite.
 *  - Without it: a self-timed fallback (best-of-N wall clock per
 *    kernel) so CI environments without libbenchmark still measure
 *    kernels instead of silently skipping the target.
 *
 * Both modes run the kernel-vs-Reference comparison on the gate
 * shapes (a stacked cohort of 8 x 8-token members against full-scale
 * MLD weight shapes, MDM's 196-token projections and FFN linears,
 * MDM's score product, eager prediction's per-head projections and a
 * reduced-scale request's FFN product), print GMAC/s per shape, and
 * **exit nonzero if the GEMM kernel does not reach Reference
 * throughput** over them — the regression gate for gemmF32. They then
 * time the active table's gemmInt12 against the scalar table's on
 * eager prediction's integer GEMM shapes, print GMAC/s per shape, and
 * **exit nonzero if the vector total is slower** — the gate for
 * gemmInt12. Then they time
 * the active table's dotRowsF32 against the scalar entry on the masked
 * dots of FFN-Reuse's reuse iteration (MDM and MLD) and of EP's kept
 * scores, with the same verdict — the gate for dotRowsF32. Last, the
 * active table's quantizeF32 and dequantizeI64 against the scalar
 * entries on eager prediction's element counts, with the same verdict
 * — the gate for the Int12 element loops.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exion/accel/functional_device.h"
#include "exion/common/rng.h"
#include "exion/model/config.h"
#include "exion/model/transformer_block.h"
#include "exion/model/weight_store.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/sparsity/log_domain.h"
#include "exion/sparsity/mask_synth.h"
#include "exion/tensor/gemm.h"
#include "exion/tensor/ops.h"
#include "exion/tensor/simd_dispatch.h"

#ifdef EXION_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace exion
{
namespace
{

/**
 * The gate's GEMM shapes: m x k times k x n, or m x k times (n x k)^T
 * for a score product.
 */
struct GemmShape
{
    const char *name;
    Index m, k, n;
    bool transposed; //!< A * B^T (matmulTransposed) instead of A * B

    double macs() const { return static_cast<double>(m) * k * n; }
};

/**
 * 8 MLD members x 8 tokens stacked into 64 activation rows against the
 * full-scale MLD projection (256x256) and FFN (256x1024, 1024x256)
 * weights; MDM's 196 tokens against its projection (512x512) and FFN
 * (512x2048, 2048x512) weights, where the k-blocking matters; MDM's
 * per-head score product (196 x 64 against 196 x 64 keys); eager
 * prediction's per-head projections, the rows a head needs against
 * one 64-column head of the weight (176 of MDM's 196 rows, 56 of an
 * 8-member MLD cohort's 64); and one reduced-scale MLD request's
 * 8 tokens against a 64 x 256 FFN weight.
 */
constexpr GemmShape kGateShapes[] = {
    {"qkv_64x256x256", 64, 256, 256, false},
    {"ffn1_64x256x1024", 64, 256, 1024, false},
    {"ffn2_64x1024x256", 64, 1024, 256, false},
    {"proj_196x512x512", 196, 512, 512, false},
    {"ffn1_196x512x2048", 196, 512, 2048, false},
    {"ffn2_196x2048x512", 196, 2048, 512, false},
    {"score_196x64x196", 196, 64, 196, true},
    {"ep_proj_176x512x64", 176, 512, 64, false},
    {"ep_proj_56x256x64", 56, 256, 64, false},
    {"reduced_8x64x256", 8, 64, 256, false},
};

/** Normal operands of one GemmShape: B is n x k when transposed. */
struct GemmOperands
{
    Matrix a, b;

    GemmOperands(const GemmShape &s, Rng &rng)
        : a(s.m, s.k),
          b(s.transposed ? s.n : s.k, s.transposed ? s.k : s.n)
    {
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
    }
};

/**
 * One head of eager prediction as the executor runs it: t tokens of
 * width d are quantised to Int12 and LOD-transformed, projected
 * against head 0's cached Wq and Wk images (d x dh each, built once
 * per block), scored (t x dh by dh x t) and turned into keep
 * decisions with the benchmark's q_th and top-k.
 */
struct EpHeadShape
{
    const char *name;
    Index t, d, dh;
    EpConfig ep;

    /** Ops of one prediction (MAC = 2): two projections, scores. */
    double ops() const
    {
        return 2.0 * (2.0 * t * d * dh + static_cast<double>(t) * t * dh);
    }
};

const EpHeadShape kEpHeadShapes[] = {
    {"ep_head_mld_8x256x64", 8, 256, 64, {0.3, 0.7}},
    {"ep_head_mdm_196x512x64", 196, 512, 64, {0.3, 0.05}},
};

/**
 * A block of one EpHeadShape viewing a WeightStore::build store
 * (weight images cached), and its input.
 */
struct EpHeadOperands
{
    std::shared_ptr<const WeightStore> store;
    TransformerBlock blk;
    Matrix x;
    EpConfig ep;

    explicit EpHeadOperands(const EpHeadShape &s)
        : store(WeightStore::build(blockConfig(s))),
          blk(0, store->config().stages.front(), false, *store),
          x(s.t, s.d), ep(s.ep)
    {
        Rng rng(9);
        x.fillNormal(rng, 0.0f, 1.0f);
        blk.epWeightImages(LodMode::TwoStep);
    }

    /** One stage of one block in s's shape. */
    static ModelConfig
    blockConfig(const EpHeadShape &s)
    {
        ModelConfig cfg;
        cfg.stages = {{s.t, s.d, s.d / s.dh, 1, 1, 0}};
        cfg.latentTokens = s.t;
        cfg.latentDim = s.d;
        cfg.seed = 9;
        return cfg;
    }

    /**
     * x's Int12 codes and their images in one pass (quantizeF32), the
     * head's two projections, its score (predictScoreInto, the
     * executor's per-head routine) and its decisions.
     */
    HeadDecision predict(ScoreScratch &scratch) const
    {
        const QuantParams params =
            chooseQuantParams(x.data(), IntWidth::Int12);
        std::vector<i32> codes(x.size());
        activeKernels().quantizeF32(x.data().data(), x.size(), params.scale,
                                    intWidthMax(IntWidth::Int12),
                                    LodMode::TwoStep, codes.data());
        const QuantMatrix x_img = QuantMatrix::borrowStrided(
            codes.data(), x.rows(), x.cols(), x.cols(), params);
        const EpWeightImages &img = blk.epWeightImages(LodMode::TwoStep);
        const Matrix q_est = ldImageMatmul({&x_img, 1}, {&img.wq[0], 1});
        const Matrix k_est = ldImageMatmul({&x_img, 1}, {&img.wk[0], 1});
        return decideFromPrediction(
            predictScoreInto(q_est, k_est, LodMode::TwoStep,
                             static_cast<float>(blk.scoreTemp()), scratch),
            ep);
    }
};

/**
 * Eager prediction's integer GEMM shapes (m x k times k x n): the x
 * image against every head's weight image and one head's score
 * product, at full-scale MDM (196 tokens, d = 512), full-scale MLD
 * (8 tokens, d = 256, alone and as the stacked image of an 8-member
 * cohort) and reduced MDM (48 tokens, d = 64, 4 heads).
 */
constexpr GemmShape kInt12Shapes[] = {
    {"proj_196x512x512", 196, 512, 512, false},
    {"score_196x64x196", 196, 64, 196, false},
    {"proj_cohort_64x256x256", 64, 256, 256, false},
    {"proj_8x256x256", 8, 256, 256, false},
    {"score_8x64x8", 8, 64, 8, false},
    {"proj_48x64x64", 48, 64, 64, false},
    {"score_48x16x48", 48, 16, 48, false},
};

/** Int12 LOD-image-range operands of one kInt12Shapes entry. */
struct Int12Operands
{
    std::vector<i32> a, b;
    std::vector<i64> c;

    Int12Operands(const GemmShape &s, Rng &rng)
        : a(s.m * s.k), b(s.k * s.n), c(s.m * s.n)
    {
        for (i32 &v : a)
            v = static_cast<i32>(rng.uniformInt(4097)) - 2048;
        for (i32 &v : b)
            v = static_cast<i32>(rng.uniformInt(4097)) - 2048;
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

/**
 * One shape's product through the production kernel or its Reference
 * oracle.
 */
Matrix
matmulBy(const GemmShape &s, const GemmOperands &ops, bool blocked)
{
    if (s.transposed)
        return blocked ? matmulTransposed(ops.a, ops.b)
                       : matmulTransposedReference(ops.a, ops.b);
    return blocked ? matmul(ops.a, ops.b) : matmulReference(ops.a, ops.b);
}

/**
 * Best-of-N wall-clock seconds for one product with the given kernel.
 * Best-of (not mean) because a scheduling hiccup only ever adds time.
 */
double
timeMatmul(const GemmShape &s, const GemmOperands &ops, bool blocked,
           int reps)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const Matrix c = matmulBy(s, ops, blocked);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
        g_sink = g_sink + c(0, 0);
    }
    return best;
}

/**
 * The regression gate shared by both build modes: the GEMM kernel
 * must reach Reference throughput over the gate shapes, summed
 * (best-of-reps each, so one noisy run cannot flip the verdict).
 *
 * @return true when kernel >= Reference throughput
 */
bool
gateGemmKernel(int reps)
{
    Rng rng(42);
    double ref_total = 0.0;
    double kernel_total = 0.0;
    std::printf("\n== GEMM kernel gate: matmul vs Reference on the "
                "cohort, MDM, EP and reduced shapes (best of %d) ==\n",
                reps);
    for (const GemmShape &s : kGateShapes) {
        const GemmOperands ops(s, rng);
        const double ref = timeMatmul(s, ops, /*blocked=*/false, reps);
        const double kernel = timeMatmul(s, ops, /*blocked=*/true, reps);
        ref_total += ref;
        kernel_total += kernel;
        std::printf("%-20s reference %8.3f ms %6.2f GMAC/s   kernel "
                    "%8.3f ms %6.2f GMAC/s   speedup %.2fx\n",
                    s.name, ref * 1e3, s.macs() / ref / 1e9,
                    kernel * 1e3, s.macs() / kernel / 1e9,
                    ref / kernel);
    }
    std::printf("%-20s reference %8.3f ms                 kernel "
                "%8.3f ms                 speedup %.2fx\n",
                "total", ref_total * 1e3, kernel_total * 1e3,
                ref_total / kernel_total);
    if (kernel_total > ref_total) {
        std::fprintf(stderr,
                     "error: the GEMM kernel is slower than Reference "
                     "on the gate shapes\n");
        return false;
    }
    return true;
}

/** Best-of-N wall-clock seconds of one table's gemmInt12. */
double
timeGemmInt12(const SimdKernels &table, const GemmShape &s,
              Int12Operands &ops, int reps)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        table.gemmInt12(ops.a.data(), s.k, ops.b.data(), s.n,
                        ops.c.data(), s.n, s.m, s.k, s.n);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
        g_sink = g_sink + static_cast<float>(ops.c[0]);
    }
    return best;
}

/**
 * The integer-GEMM gate: the active table's gemmInt12 must not be
 * slower than the scalar table's over eager prediction's shapes,
 * summed (best-of-reps each). Under EXION_SIMD=scalar both sides run
 * the same kernel, so only noise separates them; the verdict then
 * says nothing and always passes.
 *
 * @return true when the active table >= scalar throughput
 */
bool
gateGemmInt12Kernel(int reps)
{
    const SimdKernels &active = activeKernels();
    Rng rng(43);
    double scalar_total = 0.0;
    double active_total = 0.0;
    std::printf("\n== Integer GEMM gate: gemmInt12 %s vs scalar on eager "
                "prediction's shapes (best of %d) ==\n",
                active.name, reps);
    for (const GemmShape &s : kInt12Shapes) {
        Int12Operands ops(s, rng);
        const double scalar =
            timeGemmInt12(simd::scalarTable(), s, ops, reps);
        const double vec = timeGemmInt12(active, s, ops, reps);
        scalar_total += scalar;
        active_total += vec;
        std::printf("%-22s scalar %8.3f ms %6.2f GMAC/s   %-6s %8.3f ms "
                    "%6.2f GMAC/s   speedup %.2fx\n",
                    s.name, scalar * 1e3, s.macs() / scalar / 1e9,
                    active.name, vec * 1e3, s.macs() / vec / 1e9,
                    scalar / vec);
    }
    std::printf("%-22s scalar %8.3f ms                 %-6s %8.3f ms "
                "                speedup %.2fx\n",
                "total", scalar_total * 1e3, active.name,
                active_total * 1e3, scalar_total / active_total);
    if (&active != &simd::scalarTable() && active_total > scalar_total) {
        std::fprintf(stderr,
                     "error: the %s gemmInt12 is slower than the scalar "
                     "table on eager prediction's shapes\n",
                     active.name);
        return false;
    }
    return true;
}

/**
 * The masked-dot gate's shapes: each of `rows` x rows (d wide) is
 * dotted against `kept` distinct rows, ascending, of a `pool`-row
 * operand whose rows sit ld apart, as the sparse paths call
 * dotRowsF32 once per x row.
 */
struct DotRowsShape
{
    std::string name;
    Index rows, pool, kept, d, ld;

    /** A shape named by its tag and its sizes. */
    DotRowsShape(const char *tag, Index rows, Index pool, Index kept,
                 Index d, Index ld)
        : name(std::string(tag) + "_" + std::to_string(rows) + "x"
               + std::to_string(d) + "_" + std::to_string(kept) + "of"
               + std::to_string(pool)),
          rows(rows), pool(pool), kept(kept), d(d), ld(ld)
    {
    }

    double macs() const { return static_cast<double>(rows) * kept * d; }
};

/**
 * FFN-Reuse's reuse iteration on one full-scale benchmark: every
 * token's x row against the rows of the block's W1^T its recompute
 * mask keeps, (1 - target sparsity) of the hidden width.
 */
DotRowsShape
ffnReuseShape(const char *tag, Benchmark b)
{
    const ModelConfig cfg = makeConfig(b, Scale::Full);
    const StageConfig &st = cfg.stages.front();
    const Index hid = st.ffnMult * st.dModel;
    const auto kept = static_cast<Index>(
        (1.0 - cfg.ffnReuse.targetSparsity) * static_cast<double>(hid));
    return {tag, st.tokens, hid, kept, st.dModel, st.dModel};
}

/**
 * Eager prediction's kept scores on one full-scale benchmark: every
 * query row of one head against the ceil(topK * t) keys
 * decideFromPrediction keeps in a row that is not one-hot, read in
 * place from K's head slice (rows dModel floats apart).
 */
DotRowsShape
epKeptShape(const char *tag, Benchmark b)
{
    const ModelConfig cfg = makeConfig(b, Scale::Full);
    const StageConfig &st = cfg.stages.front();
    const auto kept = static_cast<Index>(
        std::ceil(cfg.ep.topK * static_cast<double>(st.tokens)));
    return {tag, st.tokens, st.tokens, kept, st.dModel / st.nHeads,
            st.dModel};
}

/**
 * FFN-Reuse's reuse iteration on full-scale MDM and MLD, and eager
 * prediction's kept scores on MDM, from the benchmarks' configs.
 */
std::vector<DotRowsShape>
dotRowsShapes()
{
    return {ffnReuseShape("ffn1_reuse_mdm", Benchmark::MDM),
            ffnReuseShape("ffn1_reuse_mld", Benchmark::MLD),
            epKeptShape("ep_kept_mdm", Benchmark::MDM)};
}

/** Normal operands and ascending kept indices of one DotRowsShape. */
struct DotRowsOperands
{
    std::vector<float> x, b, out;
    std::vector<Index> idx; //!< rows * kept, each row's run ascending

    DotRowsOperands(const DotRowsShape &s, Rng &rng)
        : x(s.rows * s.d), b(s.pool * s.ld), out(s.kept),
          idx(s.rows * s.kept)
    {
        for (float &v : x)
            v = static_cast<float>(rng.normal());
        for (float &v : b)
            v = static_cast<float>(rng.normal());
        std::vector<Index> pool(s.pool);
        for (Index r = 0; r < s.rows; ++r) {
            for (Index i = 0; i < s.pool; ++i)
                pool[i] = i;
            for (Index i = 0; i < s.kept; ++i)
                std::swap(pool[i], pool[i + rng.uniformInt(s.pool - i)]);
            std::sort(pool.begin(), pool.begin() + s.kept);
            std::copy(pool.begin(), pool.begin() + s.kept,
                      idx.begin() + r * s.kept);
        }
    }
};

/** Best-of-N wall-clock seconds of one table's dotRowsF32 per shape. */
double
timeDotRows(const SimdKernels &table, const DotRowsShape &s,
            DotRowsOperands &ops, int reps)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (Index r = 0; r < s.rows; ++r)
            table.dotRowsF32(ops.x.data() + r * s.d, ops.b.data(), s.ld,
                             ops.idx.data() + r * s.kept, s.kept, s.d,
                             ops.out.data());
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
        g_sink = g_sink + ops.out[0];
    }
    return best;
}

/**
 * The masked-dot gate: the active table's dotRowsF32 must not be
 * slower than the scalar table's one-chain-per-index entry over the
 * sparse paths' shapes, summed (best-of-reps each). Under
 * EXION_SIMD=scalar both sides run the same kernel, and the verdict
 * always passes.
 *
 * @return true when the active table >= scalar throughput
 */
bool
gateDotRowsKernel(int reps)
{
    const SimdKernels &active = activeKernels();
    Rng rng(44);
    double scalar_total = 0.0;
    double active_total = 0.0;
    std::printf("\n== Masked-dot gate: dotRowsF32 %s vs scalar on "
                "FFN-Reuse's and EP's shapes (best of %d) ==\n",
                active.name, reps);
    for (const DotRowsShape &s : dotRowsShapes()) {
        DotRowsOperands ops(s, rng);
        const double scalar =
            timeDotRows(simd::scalarTable(), s, ops, reps);
        const double vec = timeDotRows(active, s, ops, reps);
        scalar_total += scalar;
        active_total += vec;
        std::printf("%-33s scalar %8.3f ms %6.2f GMAC/s   %-6s %8.3f ms "
                    "%6.2f GMAC/s   speedup %.2fx\n",
                    s.name.c_str(), scalar * 1e3, s.macs() / scalar / 1e9,
                    active.name, vec * 1e3, s.macs() / vec / 1e9,
                    scalar / vec);
    }
    std::printf("%-33s scalar %8.3f ms                 %-6s %8.3f ms "
                "                speedup %.2fx\n",
                "total", scalar_total * 1e3, active.name,
                active_total * 1e3, scalar_total / active_total);
    if (&active != &simd::scalarTable() && active_total > scalar_total) {
        std::fprintf(stderr,
                     "error: the %s dotRowsF32 is slower than the scalar "
                     "table on the sparse paths' shapes\n",
                     active.name);
        return false;
    }
    return true;
}

/**
 * Eager prediction's element loops at full scale, as the executor
 * calls them: `calls` calls of n elements each. Int12 quantisation
 * with the two-step LOD image: MDM's 196 x 512 x image (one call),
 * one head's 196 x 64 Q or K block (one call per row) and an
 * 8-member MLD cohort's stacked 64 x 256 image (one call per member).
 * Dequantisation: MDM's 196 x 512 estimates and the cohort's 64 x 256
 * (one call per row and head of 64), and MDM's 196 x 196 head scores
 * (one call per row).
 */
struct ElementShape
{
    const char *name;
    Index calls, n;
    bool quantize; //!< quantizeF32, else dequantizeI64

    Index elements() const { return calls * n; }
};

constexpr ElementShape kElementShapes[] = {
    {"quantize_x_mdm_196x512", 1, 196 * 512, true},
    {"quantize_head_mdm_196x64", 196, 64, true},
    {"quantize_x_mld_cohort_64x256", 8, 8 * 256, true},
    {"dequantize_est_mdm_196x512", 196 * 8, 64, false},
    {"dequantize_est_mld_cohort_64x256", 64 * 4, 64, false},
    {"dequantize_scores_mdm_196x196", 196, 196, false},
};

/** Normal floats and their Int12 scale, or i64 sums of EP's range. */
struct ElementOperands
{
    std::vector<float> x, f_out;
    std::vector<i64> s;
    std::vector<i32> i_out;
    double scale;

    ElementOperands(const ElementShape &e, Rng &rng)
        : x(e.elements()), f_out(e.elements()), s(e.elements()),
          i_out(e.elements())
    {
        for (float &v : x)
            v = static_cast<float>(rng.normal());
        for (i64 &v : s)
            v = static_cast<i64>(rng.uniformInt(u64{1} << 30))
                - (i64{1} << 29);
        scale = chooseQuantParams(x, IntWidth::Int12).scale;
    }
};

/** Calls of one shape's element loop per timed rep. */
constexpr int kElementInner = 8;

/** Best-of-N wall-clock seconds of one table's entry on one shape. */
double
timeElements(const SimdKernels &table, const ElementShape &e,
             ElementOperands &ops, int reps)
{
    const i32 q_max = intWidthMax(IntWidth::Int12);
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int inner = 0; inner < kElementInner; ++inner)
            for (Index c = 0; c < e.calls; ++c) {
                if (e.quantize)
                    table.quantizeF32(ops.x.data() + c * e.n, e.n, ops.scale,
                                      q_max, LodMode::TwoStep,
                                      ops.i_out.data() + c * e.n);
                else
                    table.dequantizeI64(ops.s.data() + c * e.n, e.n,
                                        ops.scale,
                                        ops.f_out.data() + c * e.n);
            }
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count()
                            / kElementInner);
        g_sink = g_sink + ops.f_out[0] + static_cast<float>(ops.i_out[0]);
    }
    return best;
}

/**
 * The element-loop gate: the active table's quantizeF32 and
 * dequantizeI64 together must not be slower than the scalar table's
 * over eager prediction's element counts, summed (best-of-reps each).
 * Under EXION_SIMD=scalar both sides run the same entries, and the
 * verdict always passes; the AVX2 table's dequantisation is the scalar
 * entry, so its rows only add noise to both sides.
 *
 * @return true when the active table >= scalar throughput
 */
bool
gateElementKernels(int reps)
{
    const SimdKernels &active = activeKernels();
    Rng rng(45);
    double scalar_total = 0.0;
    double active_total = 0.0;
    std::printf("\n== Element-loop gate: quantizeF32 and dequantizeI64 %s "
                "vs scalar on eager prediction's element counts (best of "
                "%d) ==\n",
                active.name, reps);
    for (const ElementShape &e : kElementShapes) {
        ElementOperands ops(e, rng);
        const double scalar = timeElements(simd::scalarTable(), e, ops, reps);
        const double vec = timeElements(active, e, ops, reps);
        scalar_total += scalar;
        active_total += vec;
        const double n = static_cast<double>(e.elements());
        std::printf("%-33s scalar %8.3f ms %7.1f M/s   %-6s %8.3f ms "
                    "%7.1f M/s   speedup %.2fx\n",
                    e.name, scalar * 1e3, n / scalar / 1e6, active.name,
                    vec * 1e3, n / vec / 1e6, scalar / vec);
    }
    std::printf("%-33s scalar %8.3f ms                %-6s %8.3f ms "
                "               speedup %.2fx\n",
                "total", scalar_total * 1e3, active.name,
                active_total * 1e3, scalar_total / active_total);
    if (&active != &simd::scalarTable() && active_total > scalar_total) {
        std::fprintf(stderr,
                     "error: the %s quantizeF32 and dequantizeI64 are "
                     "slower than the scalar table on eager prediction's "
                     "element counts\n",
                     active.name);
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
    ScoreScratch scratch;
    for (auto _ : state) {
        HeadDecision dec = ops.predict(scratch);
        benchmark::DoNotOptimize(dec.oneHot.data());
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

/** Dense float GEMM vs its oracle on the gate shapes. */
void
BM_GemmTall(benchmark::State &state)
{
    const GemmShape &shape = kGateShapes[state.range(0)];
    const bool blocked = state.range(1) != 0;
    Rng rng(7);
    const GemmOperands ops(shape, rng);
    for (auto _ : state) {
        Matrix c = matmulBy(shape, ops, blocked);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * shape.m * shape.k
                            * shape.n);
    state.SetLabel(std::string(shape.name) + "/" + kernelName(blocked));
}
BENCHMARK(BM_GemmTall)
    ->ArgsProduct({benchmark::CreateDenseRange(
                       0, std::size(kGateShapes) - 1, 1),
                   {0, 1}})
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
    const int reps = quick ? 3 : 5;
    const bool gemm_ok = exion::gateGemmKernel(reps);
    const bool int12_ok = exion::gateGemmInt12Kernel(reps);
    const bool dots_ok = exion::gateDotRowsKernel(reps);
    const bool elements_ok = exion::gateElementKernels(reps);
    return gemm_ok && int12_ok && dots_ok && elements_ok ? 0 : 1;
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
        ScoreScratch scratch;
        const double best = bestOf(reps, [&] {
            const HeadDecision dec = ops.predict(scratch);
            g_sink = g_sink + static_cast<float>(dec.oneHotCount());
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

    for (const GemmShape &s : kGateShapes) {
        Rng rng(7);
        const GemmOperands ops(s, rng);
        for (bool blocked : {false, true}) {
            char name[64];
            std::snprintf(name, sizeof(name), "gemm_%s/%s", s.name,
                          kernelName(blocked));
            timeKernel(name, s.m * s.k * s.n, reps, [&] {
                const Matrix c = matmulBy(s, ops, blocked);
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
    const bool gemm_ok = exion::gateGemmKernel(reps);
    const bool int12_ok = exion::gateGemmInt12Kernel(reps);
    const bool dots_ok = exion::gateDotRowsKernel(reps);
    const bool elements_ok = exion::gateElementKernels(reps);
    return gemm_ok && int12_ok && dots_ok && elements_ok ? 0 : 1;
}

#endif // EXION_HAVE_GBENCH
