/**
 * @file
 * Unit tests for exion/tensor: Matrix, ops, QuantMatrix, Bitmask2D.
 */

#include <gtest/gtest.h>

#include <cstring>
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

TEST(Ops, AddRowVectorToRowsMatchesWholeMatrixOnSegments)
{
    Rng rng(11);
    Matrix stacked(6, 4);
    stacked.fillNormal(rng, 0.0f, 1.0f);
    Matrix row(1, 4);
    row.fillNormal(rng, 0.0f, 1.0f);

    // Segment application == slicing, addRowVector, pasting back —
    // bit for bit (the cohort forward relies on this).
    Matrix via_segment = stacked;
    addRowVectorToRows(via_segment, row, 2, 3);
    Matrix slice = sliceRows(stacked, 2, 3);
    addRowVector(slice, row);
    Matrix expected = stacked;
    pasteRows(expected, slice, 2);
    for (Index e = 0; e < expected.size(); ++e)
        EXPECT_EQ(via_segment.data()[e], expected.data()[e]);

    // Covering every row reproduces addRowVector exactly.
    Matrix whole = stacked;
    addRowVector(whole, row);
    Matrix all = stacked;
    addRowVectorToRows(all, row, 0, stacked.rows());
    for (Index e = 0; e < whole.size(); ++e)
        EXPECT_EQ(all.data()[e], whole.data()[e]);
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

TEST(Bitmask, OrWith)
{
    Bitmask2D a(2, 2), b(2, 2);
    a.set(0, 0, true);
    b.set(1, 1, true);
    a.orWith(b);
    EXPECT_TRUE(a.get(0, 0));
    EXPECT_TRUE(a.get(1, 1));
    EXPECT_EQ(a.countOnes(), 2u);
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
