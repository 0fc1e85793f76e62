/**
 * @file
 * Tests for the combined EXION execution strategy (FFN-Reuse + EP).
 * Eager-prediction attention, with its per-head projections, is held
 * bit for bit against a plain in-test oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "exion/common/rng.h"
#include "exion/metrics/metrics.h"
#include "exion/model/pipeline.h"
#include "exion/sparsity/sparse_executor.h"
#include "exion/tensor/ops.h"
#include "standalone_layers.h"

namespace exion
{
namespace
{

SparseExecutor::Options
baseOptions()
{
    SparseExecutor::Options opt;
    opt.useFfnReuse = false;
    opt.useEp = false;
    opt.quantize = false;
    opt.ffnReuse = {3, 0.9};
    opt.ep = {0.5, 0.5};
    return opt;
}

TEST(SparseExecutor, DisabledFeaturesMatchDense)
{
    Rng rng(1);
    StandaloneBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(10, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    DenseExecutor dense;
    SparseExecutor sparse(baseOptions());
    EXPECT_EQ(blk.forward(x, dense), blk.forward(x, sparse));
}

TEST(SparseExecutor, EpKeepAllMatchesDenseClosely)
{
    // k = 1 and an unreachable q_th disable all skips; the only
    // difference is the kept-position arithmetic path.
    Rng rng(2);
    StandaloneBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(12, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    opt.ep = {1e9, 1.0};
    DenseExecutor dense;
    SparseExecutor sparse(opt);
    const Matrix a = blk.forward(x, dense);
    const Matrix b = blk.forward(x, sparse);
    EXPECT_LT(relativeError(a, b), 1e-4);
}

TEST(SparseExecutor, EpSkipsReduceExecutedOps)
{
    Rng rng(3);
    StandaloneBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(24, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    opt.ep = {0.4, 0.25};
    SparseExecutor sparse(opt);
    blk.forward(x, sparse);
    const ExecStats &s = sparse.stats();
    EXPECT_LT(s.attnOpsExecuted, s.attnOpsDense);
    EXPECT_LE(s.qkvOpsExecuted, s.qkvOpsDense);
    EXPECT_GT(s.scoreSparsitySamples, 0u);
    EXPECT_GT(s.meanScoreSparsity(), 0.4);
}

TEST(SparseExecutor, EpOutputStaysClose)
{
    Rng rng(4);
    StandaloneBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(16, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    opt.ep = {2.0, 0.6}; // moderate pruning
    DenseExecutor dense;
    SparseExecutor sparse(opt);
    const Matrix a = blk.forward(x, dense);
    const Matrix b = blk.forward(x, sparse);
    // Top-k keeps the softmax mass carriers; outputs stay correlated.
    EXPECT_GT(cosineSimilarity(a, b), 0.98);
}

TEST(SparseExecutor, ScoreMaskObserverSeesOneMaskPerHead)
{
    Rng rng(5);
    StandaloneBlock blk(3, 32, 4, 4, false, rng);
    Matrix x(8, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    SparseExecutor sparse(opt);
    int masks = 0;
    sparse.observers.onScoreMask = [&](int block, int head,
                                       const Bitmask2D &keep) {
        EXPECT_EQ(block, 3);
        EXPECT_LT(head, 4);
        EXPECT_EQ(keep.rows(), 8u);
        EXPECT_EQ(keep.cols(), 8u);
        ++masks;
    };
    blk.forward(x, sparse);
    EXPECT_EQ(masks, 4);
}

/** Bitwise equality: operator== would let -0.0 pass as +0.0. */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && (a.size() == 0
            || std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0);
}

/**
 * x * W + bias for the rows needed (the others stay zero), as the
 * attention paths projected before the per-head split: every row
 * through matmul, or, under quantize, the needed rows packed and
 * quantised together with one Int12 scale, times W's own Int12
 * image.
 */
Matrix
projectOracle(const Matrix &x, const Linear &proj,
              const std::vector<u8> &needed, bool quantize)
{
    Matrix out(x.rows(), proj.outDim());
    if (!quantize) {
        out = matmul(x, proj.weight());
        addRowVector(out, proj.bias());
        return out;
    }
    std::vector<Index> rows;
    for (Index r = 0; r < x.rows(); ++r)
        if (needed[r])
            rows.push_back(r);
    if (rows.empty())
        return out;
    Matrix packed(rows.size(), x.cols());
    for (Index i = 0; i < rows.size(); ++i)
        for (Index c = 0; c < x.cols(); ++c)
            packed(i, c) = x(rows[i], c);
    Matrix projected =
        matmulQuant(QuantMatrix::fromFloat(packed, IntWidth::Int12),
                    QuantMatrix::fromFloat(proj.weight(), IntWidth::Int12));
    addRowVector(projected, proj.bias());
    for (Index i = 0; i < rows.size(); ++i)
        for (Index c = 0; c < out.cols(); ++c)
            out(rows[i], c) = projected(i, c);
    return out;
}

/**
 * EP attention written out plainly: per head, predictHeadScore on the
 * head's own weight slices times the score temperature, then
 * decideFromPrediction; Q, K and V from projectOracle; then the kept
 * scores, their softmax and the weighted V rows, each element one
 * serial chain; then the output projection. Also returns, through
 * skipped, the (row, head) pairs no head-level need covered.
 */
Matrix
epAttentionOracle(const TransformerBlock &blk, const Matrix &x,
                  const EpConfig &ep, LodMode mode, bool quantize,
                  u64 skipped[3])
{
    const Index t = x.rows();
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const float temp = static_cast<float>(blk.scoreTemp());
    const QuantMatrix x12 = QuantMatrix::fromFloat(x, IntWidth::Int12);
    std::vector<HeadDecision> decisions;
    skipped[0] = skipped[1] = skipped[2] = 0;
    for (Index h = 0; h < blk.nHeads(); ++h) {
        Matrix predicted = predictHeadScore(
            x12,
            QuantMatrix::fromFloat(sliceCols(blk.wq().weight(), h * dh, dh),
                                   IntWidth::Int12),
            QuantMatrix::fromFloat(sliceCols(blk.wk().weight(), h * dh, dh),
                                   IntWidth::Int12),
            mode);
        for (Index i = 0; i < predicted.size(); ++i)
            predicted.data()[i] *= temp;
        decisions.push_back(decideFromPrediction(predicted, ep));
        const ProjectionNeeds one = combineNeeds({decisions.back()}, t);
        skipped[0] += t - ProjectionNeeds::countNeeded(one.qRowNeeded);
        skipped[1] += t - ProjectionNeeds::countNeeded(one.kRowNeeded);
        skipped[2] += t - ProjectionNeeds::countNeeded(one.vRowNeeded);
    }
    const ProjectionNeeds needs = combineNeeds(decisions, t);
    const Matrix q = projectOracle(x, blk.wq(), needs.qRowNeeded, quantize);
    const Matrix k = projectOracle(x, blk.wk(), needs.kRowNeeded, quantize);
    const Matrix v = projectOracle(x, blk.wv(), needs.vRowNeeded, quantize);

    const float inv_sqrt = temp / std::sqrt(static_cast<float>(dh));
    Matrix concat(t, d);
    for (Index h = 0; h < blk.nHeads(); ++h) {
        const HeadDecision &dec = decisions[h];
        for (Index r = 0; r < t; ++r) {
            if (dec.oneHot[r]) {
                for (Index c = 0; c < dh; ++c)
                    concat(r, h * dh + c) = v(dec.oneHotArg[r], h * dh + c);
                continue;
            }
            std::vector<Index> cols;
            std::vector<float> p;
            float max_v = -std::numeric_limits<float>::infinity();
            for (Index j = 0; j < t; ++j) {
                if (!dec.keep.get(r, j))
                    continue;
                float dot = 0.0f;
                for (Index c = 0; c < dh; ++c)
                    dot = std::fma(q(r, h * dh + c), k(j, h * dh + c), dot);
                cols.push_back(j);
                p.push_back(dot * inv_sqrt);
                max_v = std::max(max_v, p.back());
            }
            double denom = 0.0;
            for (float &e : p) {
                e = std::exp(e - max_v);
                denom += e;
            }
            const float inv_denom = static_cast<float>(1.0 / denom);
            for (Index c = 0; c < dh; ++c) {
                float acc = 0.0f;
                for (Index i = 0; i < cols.size(); ++i) {
                    const float w = p[i] * inv_denom;
                    acc = std::fma(w, v(cols[i], h * dh + c), acc);
                }
                concat(r, h * dh + c) = acc;
            }
        }
    }
    Matrix out = execMatmul(concat, blk.wo().weight(), quantize);
    addRowVector(out, blk.wo().bias());
    return out;
}

TEST(SparseExecutor, EpAttentionEqualsPlainOracle)
{
    // Per-head projections over gathered rows must give the bytes of
    // projecting every row (float) or the needed rows together (Int12),
    // for one token up to MDM's 196, both LOD depths, with one-hot
    // rows and skipped K rows in play; the skip counters count
    // (row, head) pairs.
    Rng rng(61);
    const Index d = 64, heads = 4;
    const StandaloneBlock blk(2, d, heads, 1, false, rng, 3.0);
    bool saw_gather = false;
    for (const Index t : {Index{1}, Index{8}, Index{48}, Index{196}}) {
        Matrix x(t, d);
        x.fillNormal(rng, 0.0f, 1.0f);
        for (const LodMode mode : {LodMode::TwoStep, LodMode::Single}) {
            for (const bool quantize : {false, true}) {
                for (const EpConfig ep : {EpConfig{0.3, 0.05},
                                          EpConfig{2.0, 0.6}}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "t=" << t << " single="
                                 << (mode == LodMode::Single)
                                 << " quantize=" << quantize
                                 << " topK=" << ep.topK);
                    u64 skipped[3];
                    const Matrix want = epAttentionOracle(
                        blk, x, ep, mode, quantize, skipped);
                    ExecContext ctx;
                    ExecContext *const self = &ctx;
                    ExecObservers none;
                    const Matrix got = epAttentionImpl(
                        blk, x, ep, mode, quantize, {&self, 1}, none);
                    EXPECT_TRUE(bitIdentical(want, got));
                    EXPECT_EQ(ctx.stats.qRowsTotal, t * heads);
                    EXPECT_EQ(ctx.stats.qRowsSkipped, skipped[0]);
                    EXPECT_EQ(ctx.stats.kColsSkipped, skipped[1]);
                    EXPECT_EQ(ctx.stats.vColsSkipped, skipped[2]);
                    saw_gather |= skipped[0] > 0 && skipped[1] > 0;
                }
            }
        }
    }
    EXPECT_TRUE(saw_gather) << "no case skipped Q and K rows";
}

/** Every ExecStats field, compared exactly. */
void
expectSameStats(const ExecStats &a, const ExecStats &b)
{
    EXPECT_EQ(a.qkvOpsDense, b.qkvOpsDense);
    EXPECT_EQ(a.qkvOpsExecuted, b.qkvOpsExecuted);
    EXPECT_EQ(a.attnOpsDense, b.attnOpsDense);
    EXPECT_EQ(a.attnOpsExecuted, b.attnOpsExecuted);
    EXPECT_EQ(a.ffnOpsDense, b.ffnOpsDense);
    EXPECT_EQ(a.ffnOpsExecuted, b.ffnOpsExecuted);
    EXPECT_EQ(a.ffnSparsitySum, b.ffnSparsitySum);
    EXPECT_EQ(a.ffnSparsitySamples, b.ffnSparsitySamples);
    EXPECT_EQ(a.scoreSparsitySum, b.scoreSparsitySum);
    EXPECT_EQ(a.scoreSparsitySamples, b.scoreSparsitySamples);
    EXPECT_EQ(a.qRowsTotal, b.qRowsTotal);
    EXPECT_EQ(a.qRowsSkipped, b.qRowsSkipped);
    EXPECT_EQ(a.kColsTotal, b.kColsTotal);
    EXPECT_EQ(a.kColsSkipped, b.kColsSkipped);
    EXPECT_EQ(a.vColsTotal, b.vColsTotal);
    EXPECT_EQ(a.vColsSkipped, b.vColsSkipped);
}

/** One onScoreMask call: the head and its keep mask. */
struct ScoreMaskCall
{
    int head;
    Bitmask2D keep;
};

TEST(SparseExecutor, StackedEpEqualsEachMemberAlone)
{
    // One call over four members whose inputs differ in scale by
    // 10^3 each way, so each quantises with its own Int12 scale, and
    // one all zero, which quantises with scale 1.0. Every member's rows
    // and ExecStats, and the onScoreMask sequence, must equal
    // stack-of-one calls on each member's rows, bit for bit.
    Rng rng(67);
    const Index d = 64, heads = 4, n = 4;
    const StandaloneBlock blk(1, d, heads, 1, false, rng, 3.0);
    const float scales[n] = {1.0f, 1e3f, 1e-3f, 0.0f};
    for (const Index t : {Index{8}, Index{48}}) {
        Matrix x(n * t, d);
        x.fillNormal(rng, 0.0f, 1.0f);
        for (Index r = 0; r < x.rows(); ++r)
            for (Index c = 0; c < d; ++c)
                x(r, c) *= scales[r / t];
        for (const LodMode mode : {LodMode::TwoStep, LodMode::Single}) {
            for (const EpConfig ep :
                 {EpConfig{0.3, 0.05}, EpConfig{2.0, 0.6}}) {
                SCOPED_TRACE(::testing::Message()
                             << "t=" << t << " single="
                             << (mode == LodMode::Single)
                             << " topK=" << ep.topK);
                std::vector<ScoreMaskCall> want_calls, got_calls;
                ExecObservers want_obs, got_obs;
                want_obs.onScoreMask = [&](int, int h, const Bitmask2D &k) {
                    want_calls.push_back({h, k});
                };
                got_obs.onScoreMask = [&](int, int h, const Bitmask2D &k) {
                    got_calls.push_back({h, k});
                };

                ExecContext alone[n], stacked[n];
                std::vector<Matrix> want;
                for (Index m = 0; m < n; ++m) {
                    ExecContext *const self = &alone[m];
                    want.push_back(epAttentionImpl(
                        blk, sliceRows(x, m * t, t), ep, mode, false,
                        {&self, 1}, want_obs));
                }
                ExecContext *const stack[n] = {&stacked[0], &stacked[1],
                                               &stacked[2], &stacked[3]};
                const Matrix got =
                    epAttentionImpl(blk, x, ep, mode, false, stack, got_obs);

                for (Index m = 0; m < n; ++m) {
                    SCOPED_TRACE(::testing::Message() << "member " << m);
                    EXPECT_TRUE(bitIdentical(sliceRows(got, m * t, t),
                                             want[m]));
                    expectSameStats(stacked[m].stats, alone[m].stats);
                }
                ASSERT_EQ(got_calls.size(), n * heads);
                ASSERT_EQ(got_calls.size(), want_calls.size());
                for (Index i = 0; i < got_calls.size(); ++i) {
                    EXPECT_EQ(got_calls[i].head, want_calls[i].head);
                    EXPECT_TRUE(got_calls[i].keep == want_calls[i].keep)
                        << "call " << i;
                }
            }
        }
    }
}

TEST(SparseExecutor, FullPipelineAllOptimisations)
{
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 12);
    DiffusionPipeline pipe(cfg);

    DenseExecutor vanilla;
    const Matrix ref = pipe.run(vanilla, 7);

    auto opt = SparseExecutor::fromConfig(cfg, true, true, false);
    opt.ep = {1.0, 0.6};
    SparseExecutor exion(opt);
    const Matrix out = pipe.run(exion, 7);

    EXPECT_GT(psnr(ref, out), 15.0);
    EXPECT_GT(cosineSimilarity(ref, out), 0.9);

    const ExecStats &s = exion.stats();
    EXPECT_LT(s.totalExecuted(), s.totalDense());
    EXPECT_GT(s.ffnSparsitySamples, 0u);
}

TEST(SparseExecutor, AblationOrderingOnWork)
{
    // More optimisations -> fewer executed ops, same dense baseline.
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 8);
    auto run_with = [&](bool ffnr, bool ep) {
        DiffusionPipeline pipe(cfg);
        auto opt = SparseExecutor::fromConfig(cfg, ffnr, ep, false);
        opt.ep = {0.7, 0.4};
        opt.ffnReuse = {3, 0.9};
        SparseExecutor exec(opt);
        pipe.run(exec, 7);
        return exec.stats();
    };
    const ExecStats base = run_with(false, false);
    const ExecStats ep_only = run_with(false, true);
    const ExecStats ffnr_only = run_with(true, false);
    const ExecStats all = run_with(true, true);

    EXPECT_EQ(base.totalDense(), all.totalDense());
    EXPECT_LT(ep_only.totalExecuted(), base.totalExecuted());
    EXPECT_LT(ffnr_only.totalExecuted(), base.totalExecuted());
    EXPECT_LT(all.totalExecuted(), ep_only.totalExecuted());
    EXPECT_LT(all.totalExecuted(), ffnr_only.totalExecuted());
}

TEST(SparseExecutor, QuantizedVariantStillAccurate)
{
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 8);
    DiffusionPipeline pipe(cfg);
    DenseExecutor vanilla;
    const Matrix ref = pipe.run(vanilla, 7);

    auto opt = SparseExecutor::fromConfig(cfg, true, true, true);
    opt.ep = {1.0, 0.6};
    SparseExecutor exion(opt);
    const Matrix out = pipe.run(exion, 7);
    EXPECT_GT(psnr(ref, out), 12.0);
}

TEST(SparseExecutor, TsLodNotWorseThanLodOnPipeline)
{
    // Fig. 15's system-level claim. With our untrained (diffuse)
    // attention the end-to-end margin is small and seed-dependent,
    // so the pipeline check is non-inferiority; the decisive
    // mechanism test (ranking accuracy) lives in test_log_domain and
    // bench_fig15's direct-measurement table.
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 10);
    DiffusionPipeline pipe(cfg);
    DenseExecutor vanilla;
    const Matrix ref = pipe.run(vanilla, 7);

    auto run_mode = [&](LodMode mode) {
        auto opt = SparseExecutor::fromConfig(cfg, false, true, false,
                                              mode);
        opt.ep = {0.8, 0.3};
        SparseExecutor exec(opt);
        return pipe.run(exec, 7);
    };
    const double psnr_lod = psnr(ref, run_mode(LodMode::Single));
    const double psnr_ts = psnr(ref, run_mode(LodMode::TwoStep));
    EXPECT_GT(psnr_ts, psnr_lod - 1.5);
    EXPECT_GT(psnr_ts, 10.0);
}

} // namespace
} // namespace exion
