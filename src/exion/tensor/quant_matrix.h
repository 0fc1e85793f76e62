/**
 * @file
 * Integer matrix with a symmetric per-tensor scale.
 *
 * Models the INT12 operand storage feeding the SDUE and EPRE: values
 * are stored as i32 (the hardware registers are narrower; quantize()
 * already clamped to the target width) together with the scale needed
 * to interpret accumulator outputs.
 *
 * Like Matrix, storage is either owned or borrowed: borrowStrided()
 * views a column slice of a caller-owned wider image in place (eager
 * prediction's per-head LOD weight images). A sliced view keeps the
 * QuantParams it is given — slices are windows onto one buffer, never
 * re-quantised. No weight store holds integer images; a quantized
 * weight operand is always fromFloat() of the float weight.
 */

#ifndef EXION_TENSOR_QUANT_MATRIX_H_
#define EXION_TENSOR_QUANT_MATRIX_H_

#include <vector>

#include "exion/common/fixed_point.h"
#include "exion/common/logging.h"
#include "exion/common/types.h"
#include "exion/tensor/matrix.h"

namespace exion
{

/**
 * Row-major integer matrix with quantisation metadata.
 */
class QuantMatrix
{
  public:
    /** Empty matrix. */
    QuantMatrix() = default;

    /** rows x cols zero matrix with given params. */
    QuantMatrix(Index rows, Index cols, QuantParams params);

    /** Quantises a float matrix with a freshly chosen scale. */
    static QuantMatrix fromFloat(const Matrix &m, IntWidth width);

    /** Quantises a float matrix with fixed params. */
    static QuantMatrix fromFloat(const Matrix &m,
                                 const QuantParams &params);

    /**
     * Non-owning read-only view over caller-owned integer storage
     * whose consecutive rows sit rowStride elements apart (a column
     * slice of a wider row-major image). data must stay valid (and
     * unchanged) for the view's lifetime. @pre rowStride >= cols
     */
    static QuantMatrix borrowStrided(const i32 *data, Index rows,
                                     Index cols, Index rowStride,
                                     QuantParams params);

    /** True when this matrix is a non-owning view. */
    bool borrowed() const { return view_ != nullptr; }

    /** True when rows are adjacent in memory (stride == cols). */
    bool contiguous() const { return stride_ == cols_; }

    /** Elements between consecutive row starts. */
    Index rowStride() const { return stride_; }

    /** Number of rows. */
    Index rows() const { return rows_; }

    /** Number of columns. */
    Index cols() const { return cols_; }

    /** Total element count. */
    Index size() const { return rows_ * cols_; }

    /** Quantisation parameters. */
    const QuantParams &params() const { return params_; }

    /** Element access. @pre not borrowed */
    i32 &
    at(Index r, Index c)
    {
        EXION_ASSERT(r < rows_ && c < cols_, "quant index out of range");
        EXION_ASSERT(!borrowed(), "mutating a borrowed quant matrix");
        return data_[r * cols_ + c];
    }

    /** Element access (const). */
    i32
    at(Index r, Index c) const
    {
        EXION_ASSERT(r < rows_ && c < cols_, "quant index out of range");
        return cptr()[r * stride_ + c];
    }

    /** Unchecked access. */
    i32
    operator()(Index r, Index c) const
    {
        return cptr()[r * stride_ + c];
    }

    /** Unchecked access (mutable). @pre not borrowed */
    i32 &operator()(Index r, Index c) { return data_[r * cols_ + c]; }

    /** Pointer to row r's contiguous values. */
    const i32 *
    rowPtr(Index r) const
    {
        EXION_ASSERT(r < rows_, "quant row out of range");
        return cptr() + r * stride_;
    }

    /** Dequantises back to float. */
    Matrix toFloat() const;

    /** Real value represented by one integer step. */
    double scale() const { return params_.scale; }

  private:
    const i32 *cptr() const { return view_ ? view_ : data_.data(); }

    Index rows_ = 0;
    Index cols_ = 0;
    Index stride_ = 0; //!< elements between row starts (== cols_
                       //!< except for borrowStrided views)
    QuantParams params_;
    std::vector<i32> data_;
    const i32 *view_ = nullptr;
};

} // namespace exion

#endif // EXION_TENSOR_QUANT_MATRIX_H_
