/**
 * @file
 * Tests for the FFN-Reuse algorithm (Section III-A).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "exion/common/rng.h"
#include "exion/metrics/metrics.h"
#include "exion/sparsity/ffn_reuse.h"
#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"
#include "standalone_layers.h"

namespace exion
{
namespace
{

/** reuse.run at the given iteration of ctx. */
Matrix
runAt(const FfnReuse &reuse, const TransformerBlock &blk, const Matrix &x,
      ExecContext &ctx, int iteration,
      const ExecObservers &observers = {})
{
    ctx.iteration = iteration;
    ExecContext *const self = &ctx;
    return reuse.run(blk, x, {&self, 1}, observers);
}

/** denseFfnImpl on x as a stack of one, with throwaway accounting. */
Matrix
denseFfn(const TransformerBlock &blk, const Matrix &x)
{
    ExecContext ctx;
    ExecContext *const self = &ctx;
    return denseFfnImpl(blk, x, false, {&self, 1}, {});
}

struct Fixture
{
    Rng rng{101};
    StandaloneBlock blk{0, 32, 4, 4, false, rng};
    ExecContext ctx;
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
    run(const FfnReuse &reuse, const Matrix &x, int iteration)
    {
        return runAt(reuse, blk, x, ctx, iteration, observers);
    }

    Matrix denseReference(const Matrix &x) { return denseFfn(blk, x); }
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

/**
 * sparsityQuantile before it went sort-free: copy the magnitudes and
 * nth_element them at the target's rank. Kept here as the oracle.
 */
double
nthElementQuantile(std::span<const float> values, double target_sparsity)
{
    std::vector<float> magnitudes(values.size());
    for (Index i = 0; i < values.size(); ++i)
        magnitudes[i] = std::abs(values[i]);
    const Index rank = std::min<Index>(
        values.size() - 1,
        static_cast<Index>(target_sparsity
                           * static_cast<double>(values.size())));
    std::nth_element(magnitudes.begin(), magnitudes.begin() + rank,
                     magnitudes.end());
    return magnitudes[rank];
}

/**
 * n values of one kind: random, tie-heavy, all equal, signed zeros,
 * extremes (infinities, denormals, the largest finite floats) or runs
 * of adjacent floats.
 */
std::vector<float>
quantileData(Index n, int kind, Rng &rng)
{
    std::vector<float> v(n);
    const float sign_pick[] = {1.0f, -1.0f};
    for (float &x : v) {
        const float sign = sign_pick[rng.uniformInt(2)];
        if (kind == 0) {
            x = static_cast<float>(rng.normal());
        } else if (kind == 1) {
            x = sign * 0.25f * static_cast<float>(rng.uniformInt(9));
        } else if (kind == 2) {
            x = -1.5f;
        } else if (kind == 3) {
            const double u = rng.uniform();
            x = u < 0.8 ? sign * 0.0f : sign * 1.0f;
        } else if (kind == 4) {
            const float pick[] = {std::numeric_limits<float>::infinity(),
                                  std::numeric_limits<float>::max(),
                                  std::numeric_limits<float>::denorm_min(),
                                  std::numeric_limits<float>::min(),
                                  1.0f, 0.0f};
            x = sign * pick[rng.uniformInt(6)];
        } else {
            x = 1.0f;
            for (Index step = rng.uniformInt(6); step > 0; --step)
                x = std::nextafter(x, 2.0f);
            x *= sign;
        }
    }
    return v;
}

TEST(SparsityQuantile, MatchesNthElementOracle)
{
    // The counting selection must return the oracle's bits on every
    // kind of data, at the word edges (63, 64, 65) and at MDM's
    // 196 x 2048 hidden block, for every target from keep-all to
    // keep-none.
    Rng rng(61);
    for (const Index n : {Index{1}, Index{63}, Index{64}, Index{65},
                          Index{196 * 2048}}) {
        for (int kind = 0; kind < 6; ++kind) {
            const std::vector<float> values = quantileData(n, kind, rng);
            for (const double target : {0.0, 0.5, 0.95, 1.0}) {
                SCOPED_TRACE(::testing::Message() << "n=" << n << " kind="
                                                  << kind << " target="
                                                  << target);
                const double want = nthElementQuantile(values, target);
                const double got = sparsityQuantile(values, target);
                EXPECT_EQ(std::bit_cast<u64>(got), std::bit_cast<u64>(want))
                    << got << " vs " << want;
            }
        }
    }
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
    const Matrix out = f.run(reuse, x, 0);
    EXPECT_LT(maxAbsDiff(out, f.denseReference(x)), 1e-4);
}

TEST(FfnReuse, MaskHitsTargetSparsity)
{
    Fixture f;
    FfnReuse reuse({3, 0.9}, false);
    f.run(reuse, f.input(1), 0);
    ASSERT_EQ(f.ctx.ffn.count(0), 1u);
    EXPECT_NEAR(f.ctx.ffn.at(0).mask.sparsity(), 0.9, 0.02);
}

TEST(FfnReuse, ZeroSparsityReproducesDenseExactly)
{
    // targetSparsity 0 -> every element recomputed -> sparse
    // iterations must equal the dense reference on fresh inputs.
    Fixture f;
    FfnReuse reuse({3, 0.0}, false);
    f.run(reuse, f.input(1), 0);
    const Matrix x2 = f.input(2);
    const Matrix out = f.run(reuse, x2, 1);
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
    const Matrix out1 = f.run(reuse, x1, 0);
    const Matrix out2 = f.run(reuse, f.input(2), 1);
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
    f.run(reuse, x1, 0);
    // Nearby input: high reuse validity.
    Matrix x2 = x1;
    Rng noise(3);
    for (auto &v : x2.data())
        v += 0.02f * static_cast<float>(noise.normal());
    const Matrix approx = f.run(reuse, x2, 1);
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
    f.run(reuse, x1, 0);
    const FfnReuseBlockState st = f.ctx.ffn.at(0);

    const Matrix x2 = f.input(9); // completely different input
    const Matrix out = f.run(reuse, x2, 1);

    // Reconstruct the expected hybrid: the dense iteration's hidden
    // (from x1) for mask=0, fresh hidden (from x2) for mask=1, through
    // the second layer.
    Matrix old_gate = matmul(x1, f.blk.ffn1().weight());
    addRowVector(old_gate, f.blk.ffn1().bias());
    Matrix gate = matmul(x2, f.blk.ffn1().weight());
    addRowVector(gate, f.blk.ffn1().bias());
    Matrix hybrid(old_gate.rows(), old_gate.cols());
    for (Index r = 0; r < hybrid.rows(); ++r)
        for (Index c = 0; c < hybrid.cols(); ++c)
            hybrid(r, c) = geluScalar(st.mask.get(r, c) ? gate(r, c)
                                                        : old_gate(r, c));
    Matrix expect = matmul(hybrid, f.blk.ffn2().weight());
    addRowVector(expect, f.blk.ffn2().bias());
    EXPECT_LT(maxAbsDiff(out, expect), 1e-3);
}

TEST(FfnReuse, StatsAccounting)
{
    Fixture f;
    FfnReuse reuse({4, 0.9}, false);
    f.run(reuse, f.input(1), 0);
    const OpCount dense_after_one = f.ctx.stats.ffnOpsDense;
    EXPECT_EQ(f.ctx.stats.ffnOpsExecuted, dense_after_one);
    EXPECT_EQ(f.ctx.stats.ffnSparsitySamples, 0u);

    f.run(reuse, f.input(2), 1);
    EXPECT_EQ(f.ctx.stats.ffnOpsDense, 2 * dense_after_one);
    // Sparse iteration executes ~10% of dense work.
    const OpCount sparse_exec = f.ctx.stats.ffnOpsExecuted
        - dense_after_one;
    EXPECT_LT(sparse_exec, dense_after_one / 5);
    EXPECT_GT(sparse_exec, 0u);
    EXPECT_EQ(f.ctx.stats.ffnSparsitySamples, 1u);
    EXPECT_NEAR(f.ctx.stats.meanFfnSparsity(), 0.9, 0.02);
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
        f.run(reuse, f.input(it), it);
    EXPECT_EQ(dense_calls, 2);  // iterations 0 and 3
    EXPECT_EQ(sparse_calls, 4); // iterations 1, 2, 4, 5
}

TEST(FfnReuse, QuantizedPathTracksFloat)
{
    Fixture f;
    FfnReuse float_reuse({4, 0.8}, false);
    FfnReuse quant_reuse({4, 0.8}, true);
    const Matrix x1 = f.input(1);
    ExecContext c1, c2;
    runAt(float_reuse, f.blk, x1, c1, 0);
    runAt(quant_reuse, f.blk, x1, c2, 0);
    Matrix x2 = x1;
    Rng noise(5);
    for (auto &v : x2.data())
        v += 0.02f * static_cast<float>(noise.normal());
    const Matrix a = runAt(float_reuse, f.blk, x2, c1, 1);
    const Matrix b = runAt(quant_reuse, f.blk, x2, c2, 1);
    EXPECT_LT(relativeError(a, b), 0.05);
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
 * A quantized sparse iteration written out as integer dots: x's Int12
 * codes against the rows of W1^T's own Int12 image (and W1v^T's under
 * GEGLU), one i64 sum per set mask element, dequantised with the two
 * scales; then the recomputed elements through the quantized second
 * layer onto the dense iteration's cached partial sums.
 */
Matrix
integerDotOracle(const TransformerBlock &blk, const Matrix &x,
                 const FfnReuseBlockState &st)
{
    const QuantMatrix qx = QuantMatrix::fromFloat(x, IntWidth::Int12);
    const auto image_t = [](const Linear &lin) {
        return QuantMatrix::fromFloat(transpose(lin.weight()),
                                      IntWidth::Int12);
    };
    const QuantMatrix qw1t = image_t(blk.ffn1());
    const QuantMatrix qw1vt =
        blk.geglu() ? image_t(blk.ffn1Value()) : QuantMatrix();
    const auto dot = [&](const QuantMatrix &wt, Index r, Index c) {
        i64 acc = 0;
        for (Index k = 0; k < x.cols(); ++k)
            acc += static_cast<i64>(qx(r, k)) * wt(c, k);
        return static_cast<float>(acc * (qx.scale() * wt.scale()));
    };
    Matrix h_keep(x.rows(), blk.ffnHidden());
    st.mask.forEachSetBit([&](Index r, Index c) {
        float h = geluScalar(dot(qw1t, r, c) + blk.ffn1().bias()(0, c));
        if (blk.geglu())
            h *= dot(qw1vt, r, c) + blk.ffn1Value().bias()(0, c);
        h_keep(r, c) = h;
    });
    Matrix out =
        add(st.psumSparse, execMatmul(h_keep, blk.ffn2().weight(), true));
    addRowVector(out, blk.ffn2().bias());
    return out;
}

TEST(FfnReuse, QuantizedRecomputeMatchesIntegerDots)
{
    // The quantized recompute takes its elements from the dense
    // quantized hidden activation; W1's Int12 image has the scale and
    // codes of W1^T's, so each element is one exact integer dot.
    for (const bool geglu : {false, true}) {
        SCOPED_TRACE(geglu ? "GEGLU" : "GELU");
        Rng rng(geglu ? 83 : 82);
        const StandaloneBlock blk(0, 40, 4, 4, geglu, rng);
        const FfnReuse reuse({3, 0.8}, true);
        ExecContext ctx;
        Matrix x(9, 40);
        x.fillNormal(rng, 0.0f, 1.0f);
        runAt(reuse, blk, x, ctx, 0);
        const FfnReuseBlockState st = ctx.ffn.at(0);
        ASSERT_GT(st.mask.countOnes(), 0u);
        for (auto &v : x.data())
            v += 0.05f * static_cast<float>(rng.normal());
        const Matrix got = runAt(reuse, blk, x, ctx, 1);
        EXPECT_TRUE(bitIdentical(got, integerDotOracle(blk, x, st)));
    }
}

TEST(FfnReuse, DenseIntervalAtIntMaxIsDenseOnlyAtZero)
{
    // denseInterval + 1 overflowed an int here. In 64 bits the period
    // is INT_MAX + 1, longer than any run: only iteration 0 is dense.
    const int max = std::numeric_limits<int>::max();
    FfnReuse reuse({max, 0.9}, false);
    EXPECT_TRUE(reuse.isDenseIteration(0));
    for (const int it : {1, 2, 5, 1000, max - 1, max})
        EXPECT_FALSE(reuse.isDenseIteration(it)) << it;

    Fixture f;
    int dense_calls = 0, sparse_calls = 0;
    f.observers.onFfnMask = [&](int, const Bitmask2D &, bool dense) {
        (dense ? dense_calls : sparse_calls) += 1;
    };
    for (int it = 0; it < 4; ++it)
        f.run(reuse, f.input(it), it);
    EXPECT_EQ(dense_calls, 1);
    EXPECT_EQ(sparse_calls, 3);
}

TEST(FfnReuse, GegluSupported)
{
    Rng rng(77);
    StandaloneBlock blk(0, 24, 4, 4, true, rng);
    ExecContext ctx;
    const FfnReuse reuse({3, 0.8}, false);
    Matrix x(8, 24);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix dense_out = runAt(reuse, blk, x, ctx, 0);
    EXPECT_LT(maxAbsDiff(dense_out, denseFfn(blk, x)), 1e-3);
    Matrix x2 = x;
    Rng noise(6);
    for (auto &v : x2.data())
        v += 0.02f * static_cast<float>(noise.normal());
    const Matrix sparse_out = runAt(reuse, blk, x2, ctx, 1);
    const Matrix exact = denseFfn(blk, x2);
    EXPECT_LT(relativeError(exact, sparse_out), 0.15);
}

TEST(FfnReuse, StateLivesInTheContext)
{
    // One engine, two streams: each context carries its own block
    // state, and the engine carries none.
    Fixture f;
    const FfnReuse reuse({3, 0.9}, false);
    ExecContext a, b;
    runAt(reuse, f.blk, f.input(1), a, 0);

    // b never ran dense: its sparse-iteration call runs dense, bit for
    // bit as a fresh context's dense iteration.
    ExecContext fresh;
    const Matrix got_b = runAt(reuse, f.blk, f.input(2), b, 1);
    EXPECT_TRUE(bitIdentical(got_b,
                             runAt(reuse, f.blk, f.input(2), fresh, 0)));
    EXPECT_EQ(b.stats.ffnSparsitySamples, 0u);
    EXPECT_EQ(b.stats.ffnOpsExecuted, fresh.stats.ffnOpsExecuted);
    ASSERT_FALSE(a.ffn.at(0).mask == b.ffn.at(0).mask);

    // a's next sparse iteration reads its own mask and partial sums:
    // the same bits as a replay of a alone.
    ExecContext alone;
    runAt(reuse, f.blk, f.input(1), alone, 0);
    const Matrix want_a = runAt(reuse, f.blk, f.input(3), alone, 1);
    ExecObservers observers;
    observers.onFfnMask = [&](int, const Bitmask2D &mask, bool dense) {
        EXPECT_FALSE(dense);
        EXPECT_TRUE(mask == a.ffn.at(0).mask);
    };
    EXPECT_TRUE(bitIdentical(runAt(reuse, f.blk, f.input(3), a, 1, observers),
                             want_a));
    EXPECT_EQ(a.stats.ffnSparsitySamples, 1u);
}

/** One onFfnMask call: the mask and whether it was calibrated. */
struct MaskCall
{
    Bitmask2D mask;
    bool dense;
};

TEST(FfnReuse, MixedStackEqualsEachMemberAlone)
{
    // Two stacked calls over three members whose inputs differ in
    // scale, each viewed as a column window of a wider tensor. The
    // first stacks a member at a dense iteration, one at a reuse
    // iteration and one with no state yet; in the second every member
    // calibrates, so FFN-1 and the partial sums run once over the
    // whole stack. Each member's rows, ExecStats, theta, mask and
    // partial sums must equal a stack of one on its rows, bit for
    // bit, and the hooks fire per member with its rows, in stack
    // order.
    for (const bool geglu : {false, true}) {
        SCOPED_TRACE(geglu ? "GEGLU" : "GELU");
        Rng rng(geglu ? 91 : 90);
        const Index t = 9, d = 40, n = 3, pad = 3;
        const StandaloneBlock blk(0, d, 4, 4, geglu, rng);
        const FfnReuse reuse({3, 0.8}, false);
        const float scales[n] = {1.0f, 4.0f, 0.25f};
        const auto input = [&](Index m) {
            Matrix x(t, d);
            x.fillNormal(rng, 0.0f, scales[m]);
            return x;
        };

        // Members 0 and 1 calibrate alone at iteration 0; member 2
        // has never run.
        ExecContext alone[n], stacked[n];
        for (Index m = 0; m < 2; ++m) {
            const Matrix warm = input(m);
            runAt(reuse, blk, warm, alone[m], 0);
            runAt(reuse, blk, warm, stacked[m], 0);
        }
        ExecContext *const stack[n] = {&stacked[0], &stacked[1],
                                       &stacked[2]};

        const int steps[2][n] = {{4, 1, 1}, {8, 4, 4}};
        for (const auto &iterations : steps) {
            SCOPED_TRACE(::testing::Message()
                         << "iterations " << iterations[0] << ", "
                         << iterations[1] << ", " << iterations[2]);
            std::vector<MaskCall> want_masks, got_masks;
            std::vector<Matrix> want_hidden, got_hidden;
            ExecObservers want_obs, got_obs;
            want_obs.onFfnMask = [&](int, const Bitmask2D &mk, bool dense) {
                want_masks.push_back({mk, dense});
            };
            want_obs.onFfnHidden = [&](int, const Matrix &h) {
                want_hidden.push_back(h);
            };
            got_obs.onFfnMask = [&](int, const Bitmask2D &mk, bool dense) {
                got_masks.push_back({mk, dense});
            };
            got_obs.onFfnHidden = [&](int, const Matrix &h) {
                got_hidden.push_back(h);
            };

            Matrix wide(n * t, d + 2 * pad, -7.0f);
            std::vector<Matrix> want(n);
            for (Index m = 0; m < n; ++m) {
                const Matrix xm = input(m);
                for (Index r = 0; r < t; ++r)
                    for (Index c = 0; c < d; ++c)
                        wide(m * t + r, pad + c) = xm(r, c);
                want[m] = runAt(reuse, blk, xm, alone[m], iterations[m],
                                want_obs);
                stacked[m].iteration = iterations[m];
            }
            const Matrix x = Matrix::borrowStrided(
                wide.rowPtr(0) + pad, n * t, d, wide.rowStride());
            const Matrix got = reuse.run(blk, x, stack, got_obs);

            for (Index m = 0; m < n; ++m) {
                SCOPED_TRACE(::testing::Message() << "member " << m);
                EXPECT_TRUE(
                    bitIdentical(sliceRows(got, m * t, t), want[m]));
                const ExecStats &a = stacked[m].stats, &b = alone[m].stats;
                EXPECT_EQ(a.ffnOpsDense, b.ffnOpsDense);
                EXPECT_EQ(a.ffnOpsExecuted, b.ffnOpsExecuted);
                EXPECT_EQ(a.ffnSparsitySum, b.ffnSparsitySum);
                EXPECT_EQ(a.ffnSparsitySamples, b.ffnSparsitySamples);
                const FfnReuseBlockState &sa = stacked[m].ffn.at(0);
                const FfnReuseBlockState &sb = alone[m].ffn.at(0);
                EXPECT_EQ(std::bit_cast<u64>(sa.theta),
                          std::bit_cast<u64>(sb.theta));
                EXPECT_TRUE(sa.mask == sb.mask);
                EXPECT_TRUE(bitIdentical(sa.psumSparse, sb.psumSparse));
            }
            ASSERT_EQ(got_masks.size(), n);
            ASSERT_EQ(got_masks.size(), want_masks.size());
            for (Index i = 0; i < n; ++i) {
                EXPECT_EQ(got_masks[i].dense, want_masks[i].dense);
                EXPECT_TRUE(got_masks[i].mask == want_masks[i].mask);
            }
            ASSERT_EQ(got_hidden.size(), want_hidden.size());
            for (Index i = 0; i < got_hidden.size(); ++i)
                EXPECT_TRUE(bitIdentical(got_hidden[i], want_hidden[i]));
        }
        // Member 1 ran one reuse iteration, in the mixed stack.
        EXPECT_EQ(stacked[1].stats.ffnSparsitySamples, 1u);
    }
}

} // namespace
} // namespace exion
