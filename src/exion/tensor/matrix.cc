#include "exion/tensor/matrix.h"

#include <algorithm>
#include <cmath>

#include "exion/common/rng.h"

namespace exion
{

Matrix::Matrix(Index rows, Index cols, float fill)
    : rows_(rows), cols_(cols), stride_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::borrow(const float *data, Index rows, Index cols)
{
    return borrowStrided(data, rows, cols, cols);
}

Matrix
Matrix::borrowStrided(const float *data, Index rows, Index cols,
                      Index rowStride)
{
    EXION_ASSERT(data != nullptr || rows * cols == 0,
                 "borrowing null storage for ", rows, "x", cols);
    EXION_ASSERT(rowStride >= cols, "row stride ", rowStride,
                 " narrower than ", cols, " columns");
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.stride_ = rowStride;
    m.view_ = data;
    return m;
}

void
Matrix::fill(float v)
{
    EXION_ASSERT(!borrowed(), "mutating a borrowed matrix");
    std::fill(data_.begin(), data_.end(), v);
}

void
Matrix::fillNormal(Rng &rng, float mean, float stddev)
{
    EXION_ASSERT(!borrowed(), "mutating a borrowed matrix");
    rng.fillNormal(data_.data(), data_.size(), mean, stddev);
}

void
Matrix::fillUniform(Rng &rng, float lo, float hi)
{
    EXION_ASSERT(!borrowed(), "mutating a borrowed matrix");
    for (auto &v : data_)
        v = static_cast<float>(rng.uniform(lo, hi));
}

float
Matrix::maxAbs() const
{
    float out = 0.0f;
    for (Index r = 0; r < rows_; ++r) {
        const float *row = rowPtr(r);
        for (Index c = 0; c < cols_; ++c)
            out = std::max(out, std::abs(row[c]));
    }
    return out;
}

bool
Matrix::operator==(const Matrix &other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        return false;
    for (Index r = 0; r < rows_; ++r) {
        const float *a = rowPtr(r);
        const float *b = other.rowPtr(r);
        for (Index c = 0; c < cols_; ++c)
            if (a[c] != b[c])
                return false;
    }
    return true;
}

} // namespace exion
