/**
 * @file
 * Tests for eager-prediction decisions and projection-skip derivation.
 * The sort-free top-k selection is held against the copy +
 * nth_element selection it replaced, on random, tie-heavy and
 * signed-zero rows, and the per-head predicted score against its
 * per-element ldProduct definition, with no kernel in the oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "exion/common/rng.h"
#include "exion/model/transformer_block.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/tensor/ops.h"
#include "standalone_layers.h"

namespace exion
{
namespace
{

Matrix
makeScores(std::initializer_list<std::initializer_list<float>> rows)
{
    const Index r = rows.size();
    const Index c = rows.begin()->size();
    Matrix m(r, c);
    Index i = 0;
    for (const auto &row : rows) {
        Index j = 0;
        for (float v : row)
            m(i, j++) = v;
        ++i;
    }
    return m;
}

TEST(Decision, TopKKeepsLargest)
{
    const Matrix pred = makeScores({{0.1f, 0.9f, 0.5f, 0.2f}});
    EpConfig ep{10.0, 0.5}; // huge q_th: no one-hot; keep 2 of 4
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_FALSE(dec.oneHot[0]);
    EXPECT_TRUE(dec.keep.get(0, 1));
    EXPECT_TRUE(dec.keep.get(0, 2));
    EXPECT_FALSE(dec.keep.get(0, 0));
    EXPECT_FALSE(dec.keep.get(0, 3));
}

TEST(Decision, OneHotWhenDominant)
{
    const Matrix pred = makeScores({{5.0f, 0.1f, 0.2f, 0.0f},
                                    {0.3f, 0.35f, 0.2f, 0.1f}});
    EpConfig ep{1.0, 0.5};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_TRUE(dec.oneHot[0]);
    EXPECT_EQ(dec.oneHotArg[0], 0u);
    EXPECT_EQ(dec.keep.rowOnes(0), 0u); // one-hot rows have no MMUL
    EXPECT_FALSE(dec.oneHot[1]);
    EXPECT_EQ(dec.keep.rowOnes(1), 2u);
}

TEST(Decision, SparsityTracksKeepRatio)
{
    Rng rng(5);
    Matrix pred(64, 64);
    pred.fillNormal(rng, 0.0f, 1.0f);
    EpConfig ep{100.0, 0.25};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_NEAR(dec.scoreSparsity(), 0.75, 0.02);
}

TEST(Decision, KeepRatioOneKeepsEverything)
{
    Rng rng(7);
    Matrix pred(16, 16);
    pred.fillNormal(rng, 0.0f, 1.0f);
    EpConfig ep{1e9, 1.0};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_DOUBLE_EQ(dec.scoreSparsity(), 0.0);
    EXPECT_EQ(dec.oneHotCount(), 0u);
}

TEST(Needs, OneHotRowSkipsQButNeedsArgV)
{
    const Matrix pred = makeScores({{9.0f, 0.0f, 0.0f},
                                    {0.2f, 0.25f, 0.22f},
                                    {0.21f, 0.2f, 0.24f}});
    EpConfig ep{1.0, 0.67};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    ASSERT_TRUE(dec.oneHot[0]);
    const ProjectionNeeds needs = combineNeeds({dec}, 3);
    EXPECT_FALSE(needs.qRowNeeded[0]); // one-hot: Q projection skipped
    EXPECT_TRUE(needs.qRowNeeded[1]);
    EXPECT_TRUE(needs.vRowNeeded[0]); // argmax V still required
}

TEST(Needs, UnkeptColumnsSkipKv)
{
    // All rows keep only columns 0 and 1; column 2 is never needed.
    const Matrix pred = makeScores({{0.9f, 0.8f, 0.0f},
                                    {0.8f, 0.9f, 0.0f},
                                    {0.85f, 0.9f, 0.1f}});
    EpConfig ep{10.0, 0.6}; // ceil(0.6 * 3) = 2 kept per row
    const HeadDecision dec = decideFromPrediction(pred, ep);
    const ProjectionNeeds needs = combineNeeds({dec}, 3);
    EXPECT_TRUE(needs.kRowNeeded[0]);
    EXPECT_TRUE(needs.kRowNeeded[1]);
    EXPECT_FALSE(needs.kRowNeeded[2]);
    EXPECT_FALSE(needs.vRowNeeded[2]);
}

TEST(Needs, UnionAcrossHeads)
{
    const Matrix pred_a = makeScores({{0.9f, 0.1f}, {0.8f, 0.1f}});
    const Matrix pred_b = makeScores({{0.1f, 0.9f}, {0.1f, 0.8f}});
    EpConfig ep{10.0, 0.5};
    const HeadDecision da = decideFromPrediction(pred_a, ep);
    const HeadDecision db = decideFromPrediction(pred_b, ep);
    const ProjectionNeeds needs = combineNeeds({da, db}, 2);
    // Each head keeps a different column; union needs both.
    EXPECT_TRUE(needs.kRowNeeded[0]);
    EXPECT_TRUE(needs.kRowNeeded[1]);
}

TEST(PredictHeadScore, CorrelatesWithExactScores)
{
    Rng rng(11);
    const Index t = 24, d = 32, dh = 16;
    Matrix x(t, d), wq(d, dh), wk(d, dh);
    x.fillNormal(rng, 0.0f, 1.0f);
    wq.fillNormal(rng, 0.0f, 0.18f);
    wk.fillNormal(rng, 0.0f, 0.18f);

    const Matrix q = matmul(x, wq);
    const Matrix k = matmul(x, wk);
    Matrix exact = matmulTransposed(q, k);
    const float inv = 1.0f / std::sqrt(static_cast<float>(dh));
    for (Index i = 0; i < exact.size(); ++i)
        exact.data()[i] *= inv;

    const QuantMatrix qx = QuantMatrix::fromFloat(x, IntWidth::Int12);
    const QuantMatrix qwq = QuantMatrix::fromFloat(wq, IntWidth::Int12);
    const QuantMatrix qwk = QuantMatrix::fromFloat(wk, IntWidth::Int12);
    const Matrix pred = predictHeadScore(qx, qwq, qwk,
                                         LodMode::TwoStep);

    // The prediction needs to preserve per-row rankings; check that
    // the true argmax lands in the predicted top-25% for most rows.
    Index hits = 0;
    for (Index r = 0; r < t; ++r) {
        Index true_arg = 0;
        for (Index c = 1; c < t; ++c)
            if (exact(r, c) > exact(r, true_arg))
                true_arg = c;
        Index rank = 0;
        for (Index c = 0; c < t; ++c)
            if (pred(r, c) > pred(r, true_arg))
                ++rank;
        hits += (rank < t / 4) ? 1 : 0;
    }
    EXPECT_GE(hits, t * 3 / 4);
}

TEST(EpWeightImages, BuiltOnceAcrossThreadsAndEqualPerHeadQuantisation)
{
    // Four threads ask one GEGLU block for its images and its FFN
    // transposes at once, half of them transposes first: all must get
    // the same objects, every head's view must equal the LOD image of
    // the head slice's own Int12 quantisation, values and scale, and
    // the transposes must be the first FFN layers' bit for bit. Engine
    // workers race here on a model's first EXION request.
    Rng rng(31);
    const Index d = 48, heads = 3, dh = d / heads;
    const StandaloneBlock blk(0, d, heads, 2, /*geglu=*/true, rng);
    using Transposes = TransformerBlock::FfnTransposes;
    std::vector<const Transposes *> transposes;
    for (const LodMode mode : {LodMode::TwoStep, LodMode::Single}) {
        std::vector<const EpWeightImages *> seen(4, nullptr);
        std::vector<const Transposes *> seen_t(4, nullptr);
        std::vector<std::thread> threads;
        for (Index i = 0; i < seen.size(); ++i)
            threads.emplace_back([&, i] {
                if (i % 2 == 0)
                    seen_t[i] = &blk.ffn1Transposed();
                seen[i] = &blk.epWeightImages(mode);
                if (i % 2 == 1)
                    seen_t[i] = &blk.ffn1Transposed();
            });
        for (std::thread &t : threads)
            t.join();
        for (const EpWeightImages *img : seen)
            ASSERT_EQ(img, seen[0]);
        transposes.insert(transposes.end(), seen_t.begin(), seen_t.end());

        const EpWeightImages &img = *seen[0];
        ASSERT_EQ(img.wq.size(), heads);
        ASSERT_EQ(img.wk.size(), heads);
        for (Index h = 0; h < heads; ++h) {
            const std::pair<const Linear *, const QuantMatrix *> projs[] =
                {{&blk.wq(), &img.wq[h]}, {&blk.wk(), &img.wk[h]}};
            for (const auto &[proj, view] : projs) {
                const QuantMatrix want = lodTransform(
                    QuantMatrix::fromFloat(
                        sliceCols(proj->weight(), h * dh, dh),
                        IntWidth::Int12),
                    mode);
                EXPECT_EQ(view->scale(), want.scale());
                ASSERT_EQ(view->rows(), d);
                ASSERT_EQ(view->cols(), dh);
                for (Index r = 0; r < d; ++r)
                    for (Index c = 0; c < dh; ++c)
                        ASSERT_EQ((*view)(r, c), want(r, c))
                            << "h=" << h << " r=" << r << " c=" << c;
            }
        }
    }

    for (const Transposes *tw : transposes)
        ASSERT_EQ(tw, transposes[0]);
    const std::pair<const Matrix *, const Linear *> layers[] = {
        {&transposes[0]->w1t, &blk.ffn1()},
        {&transposes[0]->w1vt, &blk.ffn1Value()}};
    for (const auto &[got, layer] : layers) {
        const Matrix &w = layer->weight();
        ASSERT_EQ(got->rows(), w.cols());
        ASSERT_EQ(got->cols(), w.rows());
        for (Index r = 0; r < got->rows(); ++r)
            for (Index c = 0; c < got->cols(); ++c)
                ASSERT_EQ(std::bit_cast<u32>((*got)(r, c)),
                          std::bit_cast<u32>(w(c, r)))
                    << "r=" << r << " c=" << c;
    }
}

TEST(EpWeightImages, AllHeadsGemmEqualsPerHeadPrediction)
{
    // The executor predicts every head from one GEMM over the cached
    // images; per head that must be predictHeadScore bit for bit.
    Rng rng(37);
    const Index t = 11, d = 64, heads = 4, dh = d / heads;
    const StandaloneBlock blk(0, d, heads, 2, false, rng);
    Matrix x(t, d);
    x.fillNormal(rng, 0.0f, 1.0f);
    const QuantMatrix qx = QuantMatrix::fromFloat(x, IntWidth::Int12);
    for (const LodMode mode : {LodMode::TwoStep, LodMode::Single}) {
        const QuantMatrix x_img = lodTransform(qx, mode);
        const EpWeightImages &img = blk.epWeightImages(mode);
        const Matrix q_est = ldImageMatmul({&x_img, 1}, img.wq);
        const Matrix k_est = ldImageMatmul({&x_img, 1}, img.wk);
        for (Index h = 0; h < heads; ++h) {
            const Matrix fused = predictScoreFromEstimates(
                sliceCols(q_est, h * dh, dh),
                sliceCols(k_est, h * dh, dh), mode);
            const Matrix per_head = predictHeadScore(
                qx,
                QuantMatrix::fromFloat(
                    sliceCols(blk.wq().weight(), h * dh, dh),
                    IntWidth::Int12),
                QuantMatrix::fromFloat(
                    sliceCols(blk.wk().weight(), h * dh, dh),
                    IntWidth::Int12),
                mode);
            ASSERT_EQ(fused.size(), per_head.size());
            for (Index i = 0; i < fused.size(); ++i)
                ASSERT_EQ(fused.data()[i], per_head.data()[i])
                    << "h=" << h << " i=" << i;
        }
    }
}

/**
 * One head's predicted score written out per element, with no kernel:
 * each of q and k gets the Int12 scale of its own max |v| (1.0 when
 * the block is all zero), and entry (r, j) is the i64 sum over c of
 * ldProduct(quantize(q(r, c)), quantize(k(j, c))), times the two
 * scales, rounded to float, times 1/sqrt(d_head).
 */
Matrix
plainScore(const Matrix &q, const Matrix &k, LodMode mode)
{
    const auto params = [](const Matrix &m) {
        float max_abs = 0.0f;
        for (Index r = 0; r < m.rows(); ++r)
            for (Index c = 0; c < m.cols(); ++c)
                max_abs = std::max(max_abs, std::abs(m(r, c)));
        QuantParams p;
        p.scale = max_abs == 0.0f
            ? 1.0
            : static_cast<double>(max_abs) / intWidthMax(IntWidth::Int12);
        return p;
    };
    const QuantParams qp = params(q);
    const QuantParams kp = params(k);
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(q.cols()));
    Matrix out(q.rows(), k.rows());
    for (Index r = 0; r < q.rows(); ++r)
        for (Index j = 0; j < k.rows(); ++j) {
            i64 acc = 0;
            for (Index c = 0; c < q.cols(); ++c)
                acc += ldProduct(quantize(q(r, c), qp), quantize(k(j, c), kp),
                                 mode);
            out(r, j) =
                static_cast<float>(acc * (qp.scale * kp.scale)) * inv_sqrt;
        }
    return out;
}

/** t x dh normal values at column c0 of a t x (c0 + dh + 5) block. */
Matrix
wideBlock(Index t, Index dh, Index c0, Rng &rng)
{
    Matrix m(t, c0 + dh + 5);
    m.fillNormal(rng, 0.0f, 1.0f);
    return m;
}

TEST(PredictScore, EqualsPerElementLdProducts)
{
    // predictScoreFromEstimates, and predictScoreInto on the same
    // blocks read in place from wider ones through one scratch reused
    // across every shape, against plainScore bit for bit; a
    // temperature multiplies after 1/sqrt(d_head), whose order only
    // shows where 1/sqrt(d_head) is not a power of two (d_head 24).
    // Blocks: normal, Q all zero, K all zero, and one entry 10^4 times
    // the rest in each of Q and K.
    Rng rng(53);
    ScoreScratch scratch;
    const float temp = 3.0f;
    for (const Index t : {Index{1}, Index{8}, Index{48}, Index{196}}) {
        for (const Index dh : {Index{16}, Index{24}, Index{64}}) {
            for (int kind = 0; kind < 4; ++kind) {
                const Index c0 = 7;
                Matrix q_wide = wideBlock(t, dh, c0, rng);
                Matrix k_wide = wideBlock(t, dh, c0, rng);
                for (Index r = 0; r < t; ++r)
                    for (Index c = 0; c < dh; ++c) {
                        if (kind == 1)
                            q_wide(r, c0 + c) = 0.0f;
                        if (kind == 2)
                            k_wide(r, c0 + c) = 0.0f;
                    }
                if (kind == 3) {
                    q_wide(rng.uniformInt(t), c0 + rng.uniformInt(dh)) = 1e4f;
                    k_wide(rng.uniformInt(t), c0 + rng.uniformInt(dh)) =
                        -1e4f;
                }
                const Matrix q = sliceCols(q_wide, c0, dh);
                const Matrix k = sliceCols(k_wide, c0, dh);
                const Matrix q_view = Matrix::borrowStrided(
                    q_wide.rowPtr(0) + c0, t, dh, q_wide.rowStride());
                const Matrix k_view = Matrix::borrowStrided(
                    k_wide.rowPtr(0) + c0, t, dh, k_wide.rowStride());
                for (const LodMode mode :
                     {LodMode::TwoStep, LodMode::Single}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "t=" << t << " dh=" << dh << " kind="
                                 << kind << " single="
                                 << (mode == LodMode::Single));
                    const Matrix want = plainScore(q, k, mode);
                    const Matrix got = predictScoreFromEstimates(q, k, mode);
                    const Matrix &in_place =
                        predictScoreInto(q_view, k_view, mode, temp, scratch);
                    ASSERT_EQ(got.rows(), t);
                    ASSERT_EQ(got.cols(), t);
                    ASSERT_EQ(in_place.rows(), t);
                    ASSERT_EQ(in_place.cols(), t);
                    for (Index r = 0; r < t; ++r)
                        for (Index j = 0; j < t; ++j) {
                            ASSERT_EQ(std::bit_cast<u32>(got(r, j)),
                                      std::bit_cast<u32>(want(r, j)))
                                << "r=" << r << " j=" << j;
                            ASSERT_EQ(std::bit_cast<u32>(in_place(r, j)),
                                      std::bit_cast<u32>(want(r, j) * temp))
                                << "r=" << r << " j=" << j;
                        }
                }
            }
        }
    }
}

/**
 * The selection decideFromPrediction made before it went sort-free:
 * copy each row, nth_element it for the keep_k-th largest value, then
 * keep the first keep_k columns, in column order, at or above it.
 * One-hot rows as in the library. Kept here as the oracle.
 */
HeadDecision
nthElementDecision(const Matrix &pred, const EpConfig &ep)
{
    const Index t_q = pred.rows();
    const Index t_k = pred.cols();
    const Index keep_k = std::min<Index>(
        t_k, std::max<Index>(1, static_cast<Index>(std::ceil(
                                    ep.topK * static_cast<double>(t_k)))));
    HeadDecision out;
    out.keep = Bitmask2D(t_q, t_k);
    out.oneHot.assign(t_q, 0);
    out.oneHotArg.assign(t_q, 0);
    std::vector<float> row(t_k);
    for (Index r = 0; r < t_q; ++r) {
        float top1 = -std::numeric_limits<float>::infinity();
        float top2 = top1;
        Index arg1 = 0;
        for (Index c = 0; c < t_k; ++c) {
            const float v = pred(r, c);
            if (v > top1) {
                top2 = top1;
                top1 = v;
                arg1 = c;
            } else if (v > top2) {
                top2 = v;
            }
        }
        if (t_k > 1 && top1 - top2 > static_cast<float>(ep.qTh)) {
            out.oneHot[r] = 1;
            out.oneHotArg[r] = arg1;
            continue;
        }
        for (Index c = 0; c < t_k; ++c)
            row[c] = pred(r, c);
        std::nth_element(row.begin(), row.begin() + (keep_k - 1), row.end(),
                         std::greater<float>());
        const float threshold = row[keep_k - 1];
        Index kept = 0;
        for (Index c = 0; c < t_k && kept < keep_k; ++c)
            if (pred(r, c) >= threshold) {
                out.keep.set(r, c, true);
                ++kept;
            }
    }
    return out;
}

/**
 * t x t predicted scores of one kind: random, tie-heavy, signed zeros,
 * extremes (infinities, denormals, the largest finite floats) or runs
 * of adjacent floats.
 */
Matrix
predictedRows(Index t, int kind, Rng &rng)
{
    Matrix m(t, t);
    for (Index i = 0; i < m.size(); ++i) {
        float v = 0.0f;
        if (kind == 0) {
            v = static_cast<float>(rng.normal());
        } else if (kind == 3) {
            const float pick[] = {std::numeric_limits<float>::infinity(),
                                  std::numeric_limits<float>::max(),
                                  std::numeric_limits<float>::denorm_min(),
                                  1.0f, 0.0f};
            v = pick[rng.uniformInt(5)] * (rng.uniform() < 0.5 ? 1 : -1);
        } else if (kind == 4) {
            v = 1.0f;
            for (Index step = rng.uniformInt(6); step > 0; --step)
                v = std::nextafter(v, 2.0f);
        } else if (kind == 1) {
            // LOD-quantised: a handful of distinct values, many ties.
            v = 0.01f
                * static_cast<float>(lodImage(
                    static_cast<i32>(rng.uniformInt(61)) - 30,
                    LodMode::TwoStep));
        } else {
            // Mostly +0.0 and -0.0 (one value to the selection), with
            // a few signed ones around them.
            const double u = rng.uniform();
            v = u < 0.4 ? 0.0f : u < 0.8 ? -0.0f : u < 0.9 ? 1.0f : -1.0f;
        }
        m.data()[i] = v;
    }
    return m;
}

TEST(Decision, SelectionEqualsCopyAndNthElement)
{
    // keep_k in {1, 2, t/2, t - 1, t} for every row width, on random,
    // tie-heavy, signed-zero, extreme and adjacent-float rows, with and
    // without one-hot rows: keep bits, one-hot flags and argmaxes must
    // all be the oracle's.
    Rng rng(41);
    for (const Index t : {Index{1}, Index{2}, Index{8}, Index{48},
                          Index{196}}) {
        for (const int kind : {0, 1, 2, 3, 4}) {
            const Matrix pred = predictedRows(t, kind, rng);
            for (const Index keep_k : {Index{1}, Index{2}, t / 2, t - 1, t}) {
                if (keep_k < 1 || keep_k > t)
                    continue;
                for (const double q_th : {1e9, 0.5}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "t=" << t << " kind=" << kind
                                 << " keep_k=" << keep_k << " q_th=" << q_th);
                    // ceil((keep_k - 0.5) / t * t) is keep_k exactly.
                    const EpConfig ep{
                        q_th, (static_cast<double>(keep_k) - 0.5)
                                  / static_cast<double>(t)};
                    const HeadDecision want = nthElementDecision(pred, ep);
                    const HeadDecision got = decideFromPrediction(pred, ep);
                    EXPECT_TRUE(got.keep == want.keep);
                    EXPECT_EQ(got.oneHot, want.oneHot);
                    EXPECT_EQ(got.oneHotArg, want.oneHotArg);
                    for (Index r = 0; r < t; ++r) {
                        if (!want.oneHot[r]) {
                            ASSERT_EQ(got.keep.rowOnes(r), keep_k)
                                << "r=" << r;
                        }
                    }
                }
            }
        }
    }
}

TEST(Decision, RowsHoldingNaNStayDefined)
{
    // Scores dequantised with an infinite scale can hold NaN. The
    // selection has no answer to match there, but it must end, stay
    // in bounds and keep at most keep_k entries; rows without NaN are
    // decided as usual.
    Rng rng(47);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const Index t : {Index{8}, Index{48}, Index{196}}) {
        Matrix pred = predictedRows(t, 0, rng);
        for (Index c = 0; c < t; ++c)
            pred(0, c) = nan; // all NaN
        for (Index c = 0; c < t; c += 3)
            pred(1, c) = nan; // every third NaN
        pred(2, t - 1) = nan;
        // The oracle sees the NaN-free rows only: nth_element needs a
        // strict weak order.
        Matrix clean = pred;
        for (Index r = 0; r < 3; ++r)
            for (Index c = 0; c < t; ++c)
                clean(r, c) = 0.0f;
        for (const double top_k : {0.05, 0.5, 1.0}) {
            const EpConfig ep{1e9, top_k};
            const HeadDecision got = decideFromPrediction(pred, ep);
            const HeadDecision want = nthElementDecision(clean, ep);
            const Index keep_k = want.keep.rowOnes(t - 1);
            for (Index r = 0; r < t; ++r)
                EXPECT_LE(got.keep.rowOnes(r), keep_k) << "r=" << r;
            for (Index r = 3; r < t; ++r)
                for (Index c = 0; c < t; ++c)
                    ASSERT_EQ(got.keep.get(r, c), want.keep.get(r, c))
                        << "t=" << t << " r=" << r << " c=" << c;
        }
    }
}

TEST(Decision, KeepCountClampsToTheRow)
{
    // A top-k ratio past 1 keeps the whole row, never more; one that
    // rounds below one entry, or is NaN, keeps one.
    Rng rng(43);
    const Matrix pred = predictedRows(12, 0, rng);
    for (const double top_k : {1.0, 2.0, 1e300}) {
        const HeadDecision dec = decideFromPrediction(pred, {1e9, top_k});
        for (Index r = 0; r < 12; ++r)
            EXPECT_EQ(dec.keep.rowOnes(r), 12u) << "topK=" << top_k;
    }
    for (const double top_k : {0.0, -1.0, 1e-12,
                               std::numeric_limits<double>::quiet_NaN()}) {
        const HeadDecision dec = decideFromPrediction(pred, {1e9, top_k});
        for (Index r = 0; r < 12; ++r)
            EXPECT_EQ(dec.keep.rowOnes(r), 1u) << "topK=" << top_k;
    }
}

/** Parameterised sweep over keep ratios: sparsity is monotone. */
class KeepRatioSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(KeepRatioSweep, SparsityApproximatesOneMinusK)
{
    const double k = GetParam();
    Rng rng(23);
    Matrix pred(48, 48);
    pred.fillNormal(rng, 0.0f, 1.0f);
    EpConfig ep{1e9, k};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_NEAR(dec.scoreSparsity(), 1.0 - k, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Ratios, KeepRatioSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 0.7, 0.8));

} // namespace
} // namespace exion
