/**
 * @file
 * Tests for eager-prediction decisions and projection-skip derivation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "exion/common/rng.h"
#include "exion/model/transformer_block.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/tensor/ops.h"

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
    // Four threads ask one block for its images at once: all must get
    // the same object, and every head's view must equal the LOD image
    // of the head slice's own Int12 quantisation, values and scale.
    Rng rng(31);
    const Index d = 48, heads = 3, dh = d / heads;
    const TransformerBlock blk(0, d, heads, 2, false, rng);
    for (const LodMode mode : {LodMode::TwoStep, LodMode::Single}) {
        std::vector<const EpWeightImages *> seen(4, nullptr);
        std::vector<std::thread> threads;
        for (Index i = 0; i < seen.size(); ++i)
            threads.emplace_back(
                [&, i] { seen[i] = &blk.epWeightImages(mode); });
        for (std::thread &t : threads)
            t.join();
        for (const EpWeightImages *img : seen)
            ASSERT_EQ(img, seen[0]);

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
}

TEST(EpWeightImages, AllHeadsGemmEqualsPerHeadPrediction)
{
    // The executor predicts every head from one GEMM over the cached
    // images; per head that must be predictHeadScore bit for bit.
    Rng rng(37);
    const Index t = 11, d = 64, heads = 4, dh = d / heads;
    const TransformerBlock blk(0, d, heads, 2, false, rng);
    Matrix x(t, d);
    x.fillNormal(rng, 0.0f, 1.0f);
    const QuantMatrix qx = QuantMatrix::fromFloat(x, IntWidth::Int12);
    for (const LodMode mode : {LodMode::TwoStep, LodMode::Single}) {
        const QuantMatrix x_img = lodTransform(qx, mode);
        const EpWeightImages &img = blk.epWeightImages(mode);
        const Matrix q_est = ldImageMatmul(x_img, img.wq);
        const Matrix k_est = ldImageMatmul(x_img, img.wk);
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
