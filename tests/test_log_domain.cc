/**
 * @file
 * Tests for the log-domain arithmetic of the EPRE (Fig. 5a / 15).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <vector>

#include "exion/common/rng.h"
#include "exion/metrics/metrics.h"
#include "exion/sparsity/log_domain.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

TEST(LdProduct, PaperFig15Example)
{
    // 3 x 5 = 15. LOD: 2 x 4 = 8. TS-LOD: (2+1)(4+1) = 15 (exact here).
    EXPECT_EQ(ldProduct(3, 5, LodMode::Single), 8);
    EXPECT_EQ(ldProduct(3, 5, LodMode::TwoStep), 15);
}

TEST(LdProduct, PaperFig5MacExample)
{
    // Fig. 5(a): inputs {2, 3}, weights {5, 3}: expected 19,
    // LOD-predicted 12 (2*5 -> 8, 3*3 -> 4).
    const i64 lod = ldProduct(2, 5, LodMode::Single)
        + ldProduct(3, 3, LodMode::Single);
    EXPECT_EQ(lod, 12);
}

TEST(LdProduct, ZeroAndSigns)
{
    EXPECT_EQ(ldProduct(0, 17, LodMode::Single), 0);
    EXPECT_EQ(ldProduct(17, 0, LodMode::TwoStep), 0);
    EXPECT_EQ(ldProduct(-3, 5, LodMode::TwoStep), -15);
    EXPECT_EQ(ldProduct(3, -5, LodMode::TwoStep), -15);
    EXPECT_EQ(ldProduct(-3, -5, LodMode::TwoStep), 15);
}

TEST(LdProduct, ZeroOperandsAreSafeInBothModes)
{
    // The kNoLeadingOne sentinel (-1) must never reach a shift: every
    // zero-operand combination is exactly zero, in both LOD depths.
    // (Run under UBSan in CI, this is the shift-by-negative guard.)
    for (const LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        EXPECT_EQ(ldProduct(0, 0, mode), 0);
        EXPECT_EQ(ldProduct(0, 1, mode), 0);
        EXPECT_EQ(ldProduct(1, 0, mode), 0);
        EXPECT_EQ(ldProduct(0, -2048, mode), 0);
        EXPECT_EQ(ldProduct(-2048, 0, mode), 0);
    }
}

TEST(LdProduct, ExtremeMagnitudesDoNotOverflow)
{
    // Leading-one position 31 on both operands shifts by 62 — the
    // widest shift the datapath can produce; it must stay in i64.
    const i32 min32 = std::numeric_limits<i32>::min();
    EXPECT_EQ(ldProduct(min32, 1, LodMode::Single),
              -(i64{1} << 31));
    EXPECT_EQ(ldProduct(min32, min32, LodMode::Single), i64{1} << 62);
    EXPECT_GT(ldProduct(min32, min32, LodMode::TwoStep), 0);
}

TEST(LdProduct, EqualsLodImageProductExhaustiveInt12)
{
    // The identity the integer-GEMM path rests on, for every Int12
    // operand pair in both LOD depths (and the i32 extremes).
    for (const LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        std::vector<i64> image;
        for (i32 v = -2048; v <= 2047; ++v)
            image.push_back(lodImage(v, mode));
        u64 mismatches = 0;
        for (i32 a = -2048; a <= 2047; ++a)
            for (i32 b = -2048; b <= 2047; ++b)
                mismatches += ldProduct(a, b, mode)
                    != image[a + 2048] * image[b + 2048];
        EXPECT_EQ(mismatches, 0u);
        for (const i32 v : {std::numeric_limits<i32>::min(),
                            std::numeric_limits<i32>::max()})
            EXPECT_EQ(ldProduct(v, v, mode),
                      i64{lodImage(v, mode)} * lodImage(v, mode));
        // An image is its own image.
        for (i32 v = -2048; v <= 2047; ++v)
            ASSERT_EQ(lodImage(lodImage(v, mode), mode), lodImage(v, mode));
    }
}

/** Int12 operand with random values, extremes included. */
QuantMatrix
randomInt12(Index rows, Index cols, double scale, Rng &rng)
{
    QuantMatrix q(rows, cols, QuantParams{scale, IntWidth::Int12});
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c)
            q.at(r, c) = static_cast<i32>(rng.uniformInt(4096)) - 2048;
    q.at(0, 0) = -2048;
    q.at(rows - 1, cols - 1) = 2047;
    return q;
}

TEST(LdMatmul, MatchesLdProductOracleBeyondFlushInterval)
{
    // k = 700 spans more than one i32 flush interval of the GEMM; the
    // result must equal the per-MAC ldProduct chain bit for bit on
    // the process's kernel table.
    Rng rng(29);
    const Index m = 6, k = 700, n = 19;
    const QuantMatrix a = randomInt12(m, k, 0.013, rng);
    const QuantMatrix b = randomInt12(k, n, 0.007, rng);
    for (const LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        Matrix want(m, n);
        for (Index i = 0; i < m; ++i)
            for (Index j = 0; j < n; ++j) {
                i64 sum = 0;
                for (Index kk = 0; kk < k; ++kk)
                    sum += ldProduct(a(i, kk), b(kk, j), mode);
                want(i, j) = static_cast<float>(
                    sum * (a.scale() * b.scale()));
            }
        const Matrix got = ldMatmul(a, b, mode);
        for (Index i = 0; i < want.size(); ++i)
            ASSERT_EQ(want.data()[i], got.data()[i]) << "i=" << i;
    }
}

TEST(LdMatmul, AllZeroOperandsYieldZeroOutput)
{
    // An all-zero tile quantises to scale 1.0 with every entry 0; the
    // LD MMUL must propagate exact zeros (no sentinel leakage).
    Rng rng(3);
    Matrix zero(5, 7), dense(7, 4);
    dense.fillNormal(rng, 0.0f, 1.0f);
    for (const LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        const Matrix za = ldMatmulFloat(zero, dense, mode);
        for (Index i = 0; i < za.size(); ++i)
            EXPECT_EQ(za.data()[i], 0.0f);
        const Matrix zb =
            ldMatmulFloat(transpose(dense), transpose(zero), mode);
        for (Index i = 0; i < zb.size(); ++i)
            EXPECT_EQ(zb.data()[i], 0.0f);
    }
}

TEST(LdMatmul, SparseOperandRowsStayExactZero)
{
    // Rows zeroed by upstream skip decisions must contribute exact
    // zeros through the log-domain path.
    Rng rng(11);
    Matrix a(6, 8), b(8, 5);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (Index c = 0; c < a.cols(); ++c) {
        a(0, c) = 0.0f;
        a(3, c) = 0.0f;
    }
    for (const LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        const Matrix out = ldMatmulFloat(a, b, mode);
        for (Index j = 0; j < out.cols(); ++j) {
            EXPECT_EQ(out(0, j), 0.0f);
            EXPECT_EQ(out(3, j), 0.0f);
        }
    }
}

TEST(LdProduct, PowersOfTwoAreExact)
{
    for (i32 a : {1, 2, 4, 64, 1024})
        for (i32 b : {1, 8, 256})
            EXPECT_EQ(ldProduct(a, b, LodMode::Single),
                      static_cast<i64>(a) * b);
}

/** Property: TS-LOD dominates LOD and never overshoots. */
class LdProductProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LdProductProperty, BoundsHold)
{
    Rng rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        const i32 a = static_cast<i32>(rng.uniformInt(4096)) - 2048;
        const i32 b = static_cast<i32>(rng.uniformInt(4096)) - 2048;
        const i64 exact = static_cast<i64>(a) * b;
        const i64 lod = ldProduct(a, b, LodMode::Single);
        const i64 ts = ldProduct(a, b, LodMode::TwoStep);
        // Same sign (or zero), monotone in approximation depth,
        // never exceeding the exact magnitude.
        EXPECT_LE(std::abs(lod), std::abs(exact));
        EXPECT_LE(std::abs(ts), std::abs(exact));
        EXPECT_GE(std::abs(ts), std::abs(lod));
        if (exact != 0) {
            EXPECT_GE(exact > 0 ? lod : -lod, 0);
            // LOD keeps at least 1/4 of magnitude, TS-LOD at least
            // 9/16 (both factors keep >= 1/2 resp. 3/4).
            EXPECT_GE(4 * std::abs(lod) + 4, std::abs(exact));
            EXPECT_GE(16 * std::abs(ts) + 16, 9 * std::abs(exact));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdProductProperty,
                         ::testing::Range(0, 8));

TEST(LdMatmul, TwoStepMoreAccurateThanSingle)
{
    Rng rng(13);
    Matrix a(12, 24), b(24, 10);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const Matrix exact = matmul(a, b);
    const Matrix lod = ldMatmulFloat(a, b, LodMode::Single);
    const Matrix ts = ldMatmulFloat(a, b, LodMode::TwoStep);
    const double err_lod = relativeError(exact, lod);
    const double err_ts = relativeError(exact, ts);
    EXPECT_LT(err_ts, err_lod);
    EXPECT_LT(err_ts, 0.25);
    // The prediction must preserve ranking structure (that is all the
    // EP decision needs): strong cosine alignment with the truth.
    EXPECT_GT(cosineSimilarity(exact, ts), 0.95);
    EXPECT_GT(cosineSimilarity(exact, lod), 0.8);
}

} // namespace
} // namespace exion
