/**
 * @file
 * Unit tests for exion/tensor: Matrix, ops, QuantMatrix, Bitmask2D.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "exion/common/rng.h"
#include "exion/tensor/bitmask.h"
#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{
namespace
{

TEST(Matrix, ConstructAndAccess)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
    m.at(0, 1) = 2.0f;
    EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
}

TEST(Matrix, MaxAbs)
{
    Matrix m(2, 2);
    m(0, 0) = -3.0f;
    m(1, 1) = 2.0f;
    EXPECT_FLOAT_EQ(m.maxAbs(), 3.0f);
}

TEST(Ops, MatmulSmall)
{
    Matrix a(2, 3);
    Matrix b(3, 2);
    float av[] = {1, 2, 3, 4, 5, 6};
    float bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data().begin());
    std::copy(bv, bv + 6, b.data().begin());
    const Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Ops, MatmulTransposedMatchesMatmul)
{
    Rng rng(3);
    Matrix a(5, 7), b(4, 7);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const Matrix direct = matmulTransposed(a, b);
    const Matrix via_t = matmul(a, transpose(b));
    EXPECT_LT(maxAbsDiff(direct, via_t), 1e-4);
}

TEST(Ops, TransposeInvolution)
{
    Rng rng(5);
    Matrix a(6, 4);
    a.fillNormal(rng, 0.0f, 1.0f);
    EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(Ops, TransposeEqualsDefinitionOnRaggedShapes)
{
    // The tiled copy must put a(i, j)'s bits at (j, i) on shapes with
    // no rows, one element, ragged tiles and MLD's full W1, including
    // NaN and -0.0 payloads and a strided view's own window.
    Rng rng(7);
    const std::pair<Index, Index> shapes[] = {
        {0, 7}, {1, 1}, {31, 33}, {65, 129}, {256, 1024}};
    for (const auto &[rows, cols] : shapes) {
        Matrix a(rows, cols);
        a.fillNormal(rng, 0.0f, 1.0f);
        if (a.size() > 2) {
            a.data()[1] = -0.0f;
            a.data()[a.size() - 1] = std::numeric_limits<float>::quiet_NaN();
        }
        // Columns 1.. of a, rows cols apart (a itself when empty).
        const Matrix view = a.size() == 0
            ? a
            : Matrix::borrowStrided(a.data().data() + 1, rows, cols - 1,
                                    cols);
        const Matrix *const sources[] = {&a, &view};
        for (const Matrix *src : sources) {
            SCOPED_TRACE(::testing::Message()
                         << rows << "x" << src->cols()
                         << (src == &view ? " view" : ""));
            const Matrix t = transpose(*src);
            ASSERT_EQ(t.rows(), src->cols());
            ASSERT_EQ(t.cols(), src->rows());
            for (Index i = 0; i < src->rows(); ++i)
                for (Index j = 0; j < src->cols(); ++j) {
                    const float want = (*src)(i, j);
                    const float got = t(j, i);
                    ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
                        << "(" << i << ", " << j << ")";
                }
        }
    }
}

TEST(Ops, AddSubScale)
{
    Matrix a(1, 3), b(1, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    b(0, 0) = 4;
    b(0, 1) = 5;
    b(0, 2) = 6;
    const Matrix s = add(a, b);
    EXPECT_FLOAT_EQ(s(0, 2), 9.0f);
    const Matrix d = sub(b, a);
    EXPECT_FLOAT_EQ(d(0, 0), 3.0f);
    const Matrix sc = scale(a, 2.0f);
    EXPECT_FLOAT_EQ(sc(0, 1), 4.0f);
}

TEST(Ops, SliceAndPaste)
{
    Rng rng(7);
    Matrix a(8, 6);
    a.fillNormal(rng, 0.0f, 1.0f);
    const Matrix rows = sliceRows(a, 2, 3);
    EXPECT_EQ(rows.rows(), 3u);
    EXPECT_FLOAT_EQ(rows(0, 0), a(2, 0));
    const Matrix cols = sliceCols(a, 1, 2);
    EXPECT_EQ(cols.cols(), 2u);
    EXPECT_FLOAT_EQ(cols(5, 1), a(5, 2));

    Matrix target(8, 6, 0.0f);
    pasteRows(target, rows, 2);
    EXPECT_FLOAT_EQ(target(3, 4), a(3, 4));
    EXPECT_FLOAT_EQ(target(0, 0), 0.0f);
}

TEST(Ops, QuantMatmulApproximatesFloat)
{
    Rng rng(9);
    Matrix a(12, 20), b(20, 8);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const Matrix exact = matmul(a, b);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    const Matrix approx = matmulQuant(qa, qb);
    // INT12 round-trip error over a 20-deep dot product stays small.
    EXPECT_LT(maxAbsDiff(exact, approx), 0.05);
}

TEST(QuantMatrix, RoundTrip)
{
    Rng rng(11);
    Matrix a(4, 4);
    a.fillNormal(rng, 0.0f, 3.0f);
    const QuantMatrix q = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const Matrix back = q.toFloat();
    EXPECT_LT(maxAbsDiff(a, back), q.scale() * 0.51);
}

/**
 * The rounding quantize() had before it moved to std::rint: nearbyint,
 * with the two gaps of that version closed (NaN to 0, +-inf clamped).
 */
i32
nearbyintQuantize(float x, const QuantParams &p)
{
    const double scaled = std::nearbyint(x / p.scale);
    if (std::isnan(scaled))
        return 0;
    const double hi = intWidthMax(p.width);
    return static_cast<i32>(std::clamp(scaled, -hi - 1.0, hi));
}

TEST(QuantMatrix, QuantizeMatchesNearbyintOnHalvesSignsAndSpecials)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min();
    const std::vector<float> values = {
        0.5f,     -0.5f,     1.5f,      -1.5f,    2.5f,     -2.5f,
        2046.5f,  -2046.5f,  2047.5f,   -2047.5f, 2048.5f,  -2048.5f,
        0.0f,     -0.0f,     denorm,    -denorm,  1e-39f,   -1e-39f,
        2047.0f,  -2048.0f,  2049.0f,   -2049.0f, 1e30f,    -1e30f,
        std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
        inf,      -inf,      nan,       -nan};
    Matrix m(1, values.size());
    for (Index i = 0; i < values.size(); ++i)
        m(0, i) = values[i];
    for (const IntWidth width : {IntWidth::Int12, IntWidth::Int16}) {
        for (const double scale : {1.0, 0.5, 3.0, 1e-300}) {
            const QuantParams p{scale, width};
            const QuantMatrix q = QuantMatrix::fromFloat(m, p);
            for (Index i = 0; i < values.size(); ++i) {
                SCOPED_TRACE(::testing::Message()
                             << "x=" << values[i] << " scale=" << scale
                             << " bits=" << intWidthBits(width));
                EXPECT_EQ(quantize(values[i], p),
                          nearbyintQuantize(values[i], p));
                EXPECT_EQ(q(0, i), nearbyintQuantize(values[i], p));
            }
        }
    }
    // Spelled out at Int12, scale 1: ties go to even, NaN to zero,
    // and everything past the range clamps to it.
    const QuantParams unit{1.0, IntWidth::Int12};
    EXPECT_EQ(quantize(0.5f, unit), 0);
    EXPECT_EQ(quantize(-1.5f, unit), -2);
    EXPECT_EQ(quantize(2046.5f, unit), 2046);
    EXPECT_EQ(quantize(2047.5f, unit), 2047);
    EXPECT_EQ(quantize(-2047.5f, unit), -2048);
    EXPECT_EQ(quantize(nan, unit), 0);
    EXPECT_EQ(quantize(inf, unit), 2047);
    EXPECT_EQ(quantize(-inf, unit), -2048);
    // A chosen scale sees +-inf as the largest magnitude: every finite
    // value then quantises to 0, and inf / inf is NaN, so 0 too.
    const QuantMatrix chosen = QuantMatrix::fromFloat(m, IntWidth::Int12);
    for (Index i = 0; i < values.size(); ++i)
        EXPECT_EQ(chosen(0, i), nearbyintQuantize(values[i], chosen.params()))
            << "x=" << values[i];
}

/*
 * Column views (borrowStrided) as EP's per-head weight images use
 * them: zero-copy windows [c0, c0 + n) onto one parent tensor.
 */

/** `parts` contiguous column windows exactly covering [0, cols). */
std::vector<std::pair<Index, Index>>
columnWindows(Index cols, Index parts)
{
    std::vector<std::pair<Index, Index>> windows;
    for (Index p = 0; p < parts; ++p) {
        const Index c0 = cols * p / parts;
        windows.emplace_back(c0, cols * (p + 1) / parts - c0);
    }
    return windows;
}

TEST(SliceViewTest, SlicedViewAliasesParentStorage)
{
    Rng rng(11);
    Matrix b(7, 65);
    b.fillUniform(rng, -2.0f, 2.0f);
    for (const auto &[c0, n] : columnWindows(b.cols(), 3)) {
        const Matrix v = Matrix::borrowStrided(b.rowPtr(0) + c0,
                                               b.rows(), n, b.cols());
        EXPECT_TRUE(v.borrowed());
        EXPECT_EQ(v.rows(), b.rows());
        EXPECT_EQ(v.cols(), n);
        EXPECT_EQ(v.rowStride(), b.cols());
        for (Index i = 0; i < v.rows(); ++i) {
            EXPECT_EQ(v.rowPtr(i), b.rowPtr(i) + c0)
                << "window at " << c0 << " row " << i
                << " is not a view";
            for (Index j = 0; j < n; ++j)
                EXPECT_EQ(v(i, j), b(i, c0 + j));
        }
    }
}

TEST(SliceViewTest, QuantSliceKeepsWholeTensorParams)
{
    Rng rng(13);
    Matrix w(9, 70);
    w.fillUniform(rng, -2.0f, 2.0f);
    const QuantMatrix q = QuantMatrix::fromFloat(w, IntWidth::Int12);
    for (const auto &[c0, n] : columnWindows(q.cols(), 4)) {
        const QuantMatrix v = QuantMatrix::borrowStrided(
            q.rowPtr(0) + c0, q.rows(), n, q.cols(), q.params());
        EXPECT_EQ(v.params().scale, q.params().scale)
            << "window at " << c0 << " re-quantised";
        for (Index i = 0; i < v.rows(); ++i)
            for (Index j = 0; j < n; ++j)
                EXPECT_EQ(v(i, j), q(i, c0 + j));
    }
}

/**
 * INT12 round trip: dequantising a quantized image window by window
 * reproduces the whole toFloat() image bit-for-bit (same integers,
 * same scale, same dequantise arithmetic).
 */
TEST(SliceViewTest, QuantSlicesRoundTripAgainstUnslicedImage)
{
    Rng rng(17);
    Matrix w(12, 129);
    w.fillUniform(rng, -2.0f, 2.0f);
    const QuantMatrix q = QuantMatrix::fromFloat(w, IntWidth::Int12);
    const Matrix whole = q.toFloat();
    Matrix stitched(whole.rows(), whole.cols());
    for (const auto &[c0, n] : columnWindows(q.cols(), 5)) {
        const Matrix part = QuantMatrix::borrowStrided(
                                q.rowPtr(0) + c0, q.rows(), n, q.cols(),
                                q.params())
                                .toFloat();
        for (Index i = 0; i < part.rows(); ++i)
            std::memcpy(stitched.rowPtr(i) + c0, part.rowPtr(i),
                        static_cast<size_t>(n) * sizeof(float));
    }
    EXPECT_EQ(std::memcmp(stitched.data().data(), whole.data().data(),
                          whole.size() * sizeof(float)),
              0);
}

TEST(Bitmask, SetGetCount)
{
    Bitmask2D m(5, 9);
    EXPECT_EQ(m.countOnes(), 0u);
    m.set(0, 0, true);
    m.set(4, 8, true);
    m.set(2, 3, true);
    EXPECT_TRUE(m.get(4, 8));
    EXPECT_FALSE(m.get(4, 7));
    EXPECT_EQ(m.countOnes(), 3u);
    m.set(2, 3, false);
    EXPECT_EQ(m.countOnes(), 2u);
}

TEST(Bitmask, SparsityAndColumns)
{
    Bitmask2D m(4, 4);
    for (Index r = 0; r < 4; ++r)
        m.set(r, 1, true);
    EXPECT_DOUBLE_EQ(m.sparsity(), 0.75);
    EXPECT_EQ(m.columnOnes(1), 4u);
    EXPECT_TRUE(m.columnEmpty(0));
    EXPECT_FALSE(m.columnEmpty(1));
    EXPECT_EQ(m.rowOnes(2), 1u);
}

TEST(Bitmask, ColumnSlice16)
{
    Bitmask2D m(20, 2);
    m.set(0, 0, true);
    m.set(15, 0, true);
    m.set(16, 0, true);
    EXPECT_EQ(m.columnSlice16(0, 0), static_cast<u16>(0x8001));
    EXPECT_EQ(m.columnSlice16(0, 16), static_cast<u16>(0x0001));
    EXPECT_EQ(m.columnSlice16(1, 0), 0u);
}

/** Property sweep: packed bitmask behaves like a bool matrix. */
class BitmaskProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BitmaskProperty, MatchesReferenceBoolMatrix)
{
    const int seed = GetParam();
    Rng rng(seed);
    const Index rows = 1 + rng.uniformInt(40);
    const Index cols = 1 + rng.uniformInt(70);
    Bitmask2D mask(rows, cols);
    std::vector<std::vector<bool>> ref(rows,
                                       std::vector<bool>(cols, false));
    for (int i = 0; i < 300; ++i) {
        const Index r = rng.uniformInt(rows);
        const Index c = rng.uniformInt(cols);
        const bool v = rng.bernoulli(0.5);
        mask.set(r, c, v);
        ref[r][c] = v;
    }
    u64 ones = 0;
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c) {
            EXPECT_EQ(mask.get(r, c), ref[r][c]);
            ones += ref[r][c] ? 1 : 0;
        }
    EXPECT_EQ(mask.countOnes(), ones);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmaskProperty,
                         ::testing::Range(0, 12));

} // namespace
} // namespace exion
