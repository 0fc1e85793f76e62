/**
 * @file
 * Tests for the FFN-Reuse algorithm (Section III-A).
 */

#include <gtest/gtest.h>

#include "exion/common/rng.h"
#include "exion/metrics/metrics.h"
#include "exion/sparsity/ffn_reuse.h"
#include "exion/tensor/ops.h"
#include "standalone_layers.h"

namespace exion
{
namespace
{

struct Fixture
{
    Rng rng{101};
    StandaloneBlock blk{0, 32, 4, 4, false, rng};
    ExecStats stats;
    ExecObservers observers;

    Matrix
    input(u64 seed)
    {
        Rng r(seed);
        Matrix x(8, 32);
        x.fillNormal(r, 0.0f, 1.0f);
        return x;
    }

    Matrix
    denseReference(const Matrix &x)
    {
        ExecStats s;
        ExecObservers o;
        return denseFfnImpl(blk, x, false, s, o);
    }
};

TEST(SparsityQuantile, PicksTargetFraction)
{
    std::vector<float> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(static_cast<float>(i));
    const double theta = sparsityQuantile(values, 0.9);
    int below = 0;
    for (float v : values)
        below += std::abs(v) <= theta ? 1 : 0;
    EXPECT_NEAR(below / 100.0, 0.9, 0.02);
}

TEST(FfnReuse, DenseIterationSchedule)
{
    FfnReuse reuse({3, 0.9}, false);
    EXPECT_TRUE(reuse.isDenseIteration(0));
    EXPECT_FALSE(reuse.isDenseIteration(1));
    EXPECT_FALSE(reuse.isDenseIteration(3));
    EXPECT_TRUE(reuse.isDenseIteration(4));
    EXPECT_TRUE(reuse.isDenseIteration(8));
}

TEST(FfnReuse, DenseIterationMatchesReference)
{
    Fixture f;
    FfnReuse reuse({3, 0.9}, false);
    const Matrix x = f.input(1);
    const Matrix out = reuse.run(f.blk, x, 0, f.stats, f.observers);
    EXPECT_LT(maxAbsDiff(out, f.denseReference(x)), 1e-4);
}

TEST(FfnReuse, MaskHitsTargetSparsity)
{
    Fixture f;
    FfnReuse reuse({3, 0.9}, false);
    reuse.run(f.blk, f.input(1), 0, f.stats, f.observers);
    const FfnReuseBlockState *st = reuse.state(0);
    ASSERT_NE(st, nullptr);
    EXPECT_NEAR(st->mask.sparsity(), 0.9, 0.02);
}

TEST(FfnReuse, ZeroSparsityReproducesDenseExactly)
{
    // targetSparsity 0 -> every element recomputed -> sparse
    // iterations must equal the dense reference on fresh inputs.
    Fixture f;
    FfnReuse reuse({3, 0.0}, false);
    reuse.run(f.blk, f.input(1), 0, f.stats, f.observers);
    const Matrix x2 = f.input(2);
    const Matrix out = reuse.run(f.blk, x2, 1, f.stats, f.observers);
    // The quantile threshold always leaves the minimum-|H| element
    // (plus ties) reused, so allow that single stale contribution.
    EXPECT_LT(relativeError(f.denseReference(x2), out), 0.02);
}

TEST(FfnReuse, FullSparsityReusesEverything)
{
    // targetSparsity ~1 -> nothing recomputed -> sparse iterations
    // return the dense iteration's output regardless of input.
    Fixture f;
    FfnReuse reuse({3, 1.0}, false);
    const Matrix x1 = f.input(1);
    const Matrix out1 = reuse.run(f.blk, x1, 0, f.stats, f.observers);
    const Matrix out2 = reuse.run(f.blk, f.input(2), 1, f.stats,
                                  f.observers);
    // One element (the max) stays above any quantile threshold; allow
    // its recomputation, the rest must be byte-identical reuse.
    Index diff = 0;
    for (Index i = 0; i < out1.size(); ++i)
        diff += out1.data()[i] != out2.data()[i] ? 1 : 0;
    EXPECT_LE(diff, out1.cols());
}

TEST(FfnReuse, SparseIterationApproximatesDense)
{
    Fixture f;
    FfnReuse reuse({4, 0.8}, false);
    const Matrix x1 = f.input(1);
    reuse.run(f.blk, x1, 0, f.stats, f.observers);
    // Nearby input: high reuse validity.
    Matrix x2 = x1;
    Rng noise(3);
    for (auto &v : x2.data())
        v += 0.02f * static_cast<float>(noise.normal());
    const Matrix approx = reuse.run(f.blk, x2, 1, f.stats, f.observers);
    const Matrix exact = f.denseReference(x2);
    EXPECT_GT(psnr(exact, approx), 25.0);
    EXPECT_LT(relativeError(exact, approx), 0.1);
}

TEST(FfnReuse, RecomputedElementsAreFresh)
{
    // Elements with mask bit 1 must use the *current* input.
    Fixture f;
    FfnReuse reuse({4, 0.5}, false);
    const Matrix x1 = f.input(1);
    reuse.run(f.blk, x1, 0, f.stats, f.observers);
    const FfnReuseBlockState st = *reuse.state(0);

    const Matrix x2 = f.input(9); // completely different input
    const Matrix out = reuse.run(f.blk, x2, 1, f.stats, f.observers);

    // Reconstruct the expected hybrid: cached hidden for mask=0,
    // fresh hidden for mask=1, through the second layer.
    Matrix gate = matmul(x2, f.blk.ffn1().weight());
    addRowVector(gate, f.blk.ffn1().bias());
    Matrix hybrid = st.hiddenCache;
    for (Index r = 0; r < hybrid.rows(); ++r)
        for (Index c = 0; c < hybrid.cols(); ++c)
            if (st.mask.get(r, c))
                hybrid(r, c) = geluScalar(gate(r, c));
    Matrix expect = matmul(hybrid, f.blk.ffn2().weight());
    addRowVector(expect, f.blk.ffn2().bias());
    EXPECT_LT(maxAbsDiff(out, expect), 1e-3);
}

TEST(FfnReuse, StatsAccounting)
{
    Fixture f;
    FfnReuse reuse({4, 0.9}, false);
    reuse.run(f.blk, f.input(1), 0, f.stats, f.observers);
    const OpCount dense_after_one = f.stats.ffnOpsDense;
    EXPECT_EQ(f.stats.ffnOpsExecuted, dense_after_one);
    EXPECT_EQ(f.stats.ffnSparsitySamples, 0u);

    reuse.run(f.blk, f.input(2), 1, f.stats, f.observers);
    EXPECT_EQ(f.stats.ffnOpsDense, 2 * dense_after_one);
    // Sparse iteration executes ~10% of dense work.
    const OpCount sparse_exec = f.stats.ffnOpsExecuted
        - dense_after_one;
    EXPECT_LT(sparse_exec, dense_after_one / 5);
    EXPECT_GT(sparse_exec, 0u);
    EXPECT_EQ(f.stats.ffnSparsitySamples, 1u);
    EXPECT_NEAR(f.stats.meanFfnSparsity(), 0.9, 0.02);
}

TEST(FfnReuse, MaskObserverFires)
{
    Fixture f;
    FfnReuse reuse({2, 0.9}, false);
    int dense_calls = 0, sparse_calls = 0;
    f.observers.onFfnMask = [&](int block, const Bitmask2D &mask,
                                bool dense) {
        EXPECT_EQ(block, 0);
        EXPECT_EQ(mask.rows(), 8u);
        (dense ? dense_calls : sparse_calls) += 1;
    };
    for (int it = 0; it < 6; ++it)
        reuse.run(f.blk, f.input(it), it, f.stats, f.observers);
    EXPECT_EQ(dense_calls, 2);  // iterations 0 and 3
    EXPECT_EQ(sparse_calls, 4); // iterations 1, 2, 4, 5
}

TEST(FfnReuse, QuantizedPathTracksFloat)
{
    Fixture f;
    FfnReuse float_reuse({4, 0.8}, false);
    FfnReuse quant_reuse({4, 0.8}, true);
    const Matrix x1 = f.input(1);
    ExecStats s1, s2;
    float_reuse.run(f.blk, x1, 0, s1, f.observers);
    quant_reuse.run(f.blk, x1, 0, s2, f.observers);
    Matrix x2 = x1;
    Rng noise(5);
    for (auto &v : x2.data())
        v += 0.02f * static_cast<float>(noise.normal());
    const Matrix a = float_reuse.run(f.blk, x2, 1, s1, f.observers);
    const Matrix b = quant_reuse.run(f.blk, x2, 1, s2, f.observers);
    EXPECT_LT(relativeError(a, b), 0.05);
}

TEST(FfnReuse, GegluSupported)
{
    Rng rng(77);
    StandaloneBlock blk(0, 24, 4, 4, true, rng);
    ExecStats stats;
    ExecObservers observers;
    FfnReuse reuse({3, 0.8}, false);
    Matrix x(8, 24);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix dense_out = reuse.run(blk, x, 0, stats, observers);
    ExecStats s;
    ExecObservers o;
    EXPECT_LT(maxAbsDiff(dense_out, denseFfnImpl(blk, x, false, s, o)),
              1e-3);
    Matrix x2 = x;
    Rng noise(6);
    for (auto &v : x2.data())
        v += 0.02f * static_cast<float>(noise.normal());
    const Matrix sparse_out = reuse.run(blk, x2, 1, stats, observers);
    const Matrix exact = denseFfnImpl(blk, x2, false, s, o);
    EXPECT_LT(relativeError(exact, sparse_out), 0.15);
}

TEST(FfnReuse, ResetClearsState)
{
    Fixture f;
    FfnReuse reuse({3, 0.9}, false);
    reuse.run(f.blk, f.input(1), 0, f.stats, f.observers);
    EXPECT_NE(reuse.state(0), nullptr);
    reuse.reset();
    EXPECT_EQ(reuse.state(0), nullptr);
}

} // namespace
} // namespace exion
