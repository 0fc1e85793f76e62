#include "exion/tensor/ops.h"

#include <algorithm>
#include <cmath>

namespace exion
{

Matrix
transpose(const Matrix &a)
{
    // 32 x 32 tiles keep a tile's source and destination rows in cache
    // while it is copied, where a row-at-a-time loop writes each
    // element a whole destination row from the last. A full-height
    // tile is written one destination row (32 contiguous floats) at a
    // time. A shorter one, such as a whole 8-token attention head, is
    // copied in source-row order: one long inner loop per row costs
    // less than many 8-long ones.
    constexpr Index kTile = 32;
    const Index rows = a.rows();
    const Index cols = a.cols();
    Matrix t(cols, rows);
    const float *src = a.rowPtr(0);
    const Index lda = a.rowStride();
    float *dst = t.rowPtr(0);
    for (Index i0 = 0; i0 < rows; i0 += kTile) {
        const Index i1 = std::min(rows, i0 + kTile);
        for (Index j0 = 0; j0 < cols; j0 += kTile) {
            const Index j1 = std::min(cols, j0 + kTile);
            if (i1 - i0 == kTile) {
                for (Index j = j0; j < j1; ++j)
                    for (Index i = i0; i < i1; ++i)
                        dst[j * rows + i] = src[i * lda + j];
            } else {
                for (Index i = i0; i < i1; ++i)
                    for (Index j = j0; j < j1; ++j)
                        dst[j * rows + i] = src[i * lda + j];
            }
        }
    }
    return t;
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                 "add shape mismatch");
    Matrix c(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        c.data()[i] = a.data()[i] + b.data()[i];
    return c;
}

Matrix
sub(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                 "sub shape mismatch");
    Matrix c(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        c.data()[i] = a.data()[i] - b.data()[i];
    return c;
}

Matrix
scale(const Matrix &a, float s)
{
    Matrix c(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        c.data()[i] = a.data()[i] * s;
    return c;
}

void
addRowVector(Matrix &a, const Matrix &row)
{
    EXION_ASSERT(row.rows() == 1 && row.cols() == a.cols(),
                 "row vector shape mismatch");
    for (Index i = 0; i < a.rows(); ++i) {
        float *arow = a.rowPtr(i);
        const float *r = row.rowPtr(0);
        for (Index j = 0; j < a.cols(); ++j)
            arow[j] += r[j];
    }
}

double
frobeniusNorm(const Matrix &a)
{
    double sum = 0.0;
    for (float v : a.data())
        sum += static_cast<double>(v) * v;
    return std::sqrt(sum);
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                 "maxAbsDiff shape mismatch");
    double out = 0.0;
    for (Index i = 0; i < a.size(); ++i) {
        const double d = std::abs(
            static_cast<double>(a.data()[i]) - b.data()[i]);
        out = std::max(out, d);
    }
    return out;
}

Matrix
sliceRows(const Matrix &a, Index r0, Index n)
{
    EXION_ASSERT(r0 <= a.rows() && n <= a.rows() - r0,
                 "sliceRows out of range");
    Matrix out(n, a.cols());
    for (Index i = 0; i < n; ++i)
        for (Index j = 0; j < a.cols(); ++j)
            out(i, j) = a(r0 + i, j);
    return out;
}

Matrix
sliceCols(const Matrix &a, Index c0, Index n)
{
    EXION_ASSERT(c0 <= a.cols() && n <= a.cols() - c0,
                 "sliceCols out of range");
    Matrix out(a.rows(), n);
    for (Index i = 0; i < a.rows(); ++i)
        for (Index j = 0; j < n; ++j)
            out(i, j) = a(i, c0 + j);
    return out;
}

Matrix
sliceBlock(const Matrix &a, Index r0, Index nr, Index c0, Index nc)
{
    EXION_ASSERT(r0 <= a.rows() && nr <= a.rows() - r0
                     && c0 <= a.cols() && nc <= a.cols() - c0,
                 "sliceBlock out of range");
    Matrix out(nr, nc);
    for (Index i = 0; i < nr; ++i)
        for (Index j = 0; j < nc; ++j)
            out(i, j) = a(r0 + i, c0 + j);
    return out;
}

void
pasteRows(Matrix &a, const Matrix &src, Index r0)
{
    EXION_ASSERT(r0 <= a.rows() && src.rows() <= a.rows() - r0
                     && src.cols() == a.cols(),
                 "pasteRows out of range");
    for (Index i = 0; i < src.rows(); ++i)
        for (Index j = 0; j < src.cols(); ++j)
            a(r0 + i, j) = src(i, j);
}

} // namespace exion
