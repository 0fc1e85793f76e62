#include "exion/tensor/quant_matrix.h"

#include "exion/tensor/simd_dispatch.h"

namespace exion
{

QuantMatrix::QuantMatrix(Index rows, Index cols, QuantParams params)
    : rows_(rows), cols_(cols), stride_(cols), params_(params),
      data_(rows * cols, 0)
{
}

QuantMatrix
QuantMatrix::fromFloat(const Matrix &m, IntWidth width)
{
    QuantParams params = chooseQuantParams(m.data(), width);
    return fromFloat(m, params);
}

QuantMatrix
QuantMatrix::fromFloat(const Matrix &m, const QuantParams &params)
{
    QuantMatrix out(m.rows(), m.cols(), params);
    activeKernels().quantizeF32(m.data().data(), out.size(), params.scale,
                                intWidthMax(params.width), std::nullopt,
                                out.data_.data());
    return out;
}

QuantMatrix
QuantMatrix::borrowStrided(const i32 *data, Index rows, Index cols,
                           Index rowStride, QuantParams params)
{
    EXION_ASSERT(data != nullptr || rows * cols == 0,
                 "borrowing null quant storage for ", rows, "x", cols);
    EXION_ASSERT(rowStride >= cols, "quant row stride ", rowStride,
                 " narrower than ", cols, " columns");
    QuantMatrix q;
    q.rows_ = rows;
    q.cols_ = cols;
    q.stride_ = rowStride;
    q.params_ = params;
    q.view_ = data;
    return q;
}

Matrix
QuantMatrix::toFloat() const
{
    Matrix out(rows_, cols_);
    for (Index r = 0; r < rows_; ++r) {
        const i32 *src = rowPtr(r);
        float *dst = out.rowPtr(r);
        for (Index c = 0; c < cols_; ++c)
            dst[c] = dequantize(src[c], params_);
    }
    return out;
}

} // namespace exion
