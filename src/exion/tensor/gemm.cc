#include "exion/tensor/gemm.h"

#include <cmath>
#include <vector>

#include "exion/tensor/ops.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.cols() == b.rows(), "matmul shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")");
    Matrix c(a.rows(), b.cols());
    if (a.rows() == 0 || a.cols() == 0 || b.cols() == 0)
        return c;
    activeKernels().gemmF32(a.rowPtr(0), a.rowStride(), b.rowPtr(0),
                            b.rowStride(), c.rowPtr(0), c.cols(),
                            a.rows(), a.cols(), b.cols());
    return c;
}

Matrix
matmulTransposed(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.cols() == b.cols(), "matmulT shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")^T");
    return matmul(a, transpose(b));
}

Matrix
matmulQuant(const QuantMatrix &a, const QuantMatrix &b)
{
    EXION_ASSERT(a.cols() == b.rows(), "quant matmul shape mismatch");
    EXION_ASSERT(a.params().width == IntWidth::Int12
                     && b.params().width == IntWidth::Int12,
                 "matmulQuant needs Int12 operands (gemmInt12 bound)");
    Matrix c(a.rows(), b.cols());
    const Index m = a.rows();
    const Index k = a.cols();
    const Index n = b.cols();
    if (m == 0 || k == 0 || n == 0)
        return c;
    const SimdKernels &kr = activeKernels();
    std::vector<i64> sums(m * n);
    kr.gemmInt12(a.rowPtr(0), a.rowStride(), b.rowPtr(0), b.rowStride(),
                 sums.data(), n, m, k, n);
    kr.dequantizeI64(sums.data(), m * n, a.scale() * b.scale(),
                     c.data().data());
    return c;
}

EXION_FMA_CLONES Matrix
matmulReference(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.cols() == b.rows(), "matmul shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")");
    Matrix c(a.rows(), b.cols());
    const Index k_dim = a.cols();
    for (Index i = 0; i < a.rows(); ++i) {
        const float *arow = a.rowPtr(i);
        float *crow = c.rowPtr(i);
        for (Index k = 0; k < k_dim; ++k) {
            const float av = arow[k];
            const float *brow = b.rowPtr(k);
            for (Index j = 0; j < b.cols(); ++j)
                crow[j] = std::fma(av, brow[j], crow[j]);
        }
    }
    return c;
}

EXION_FMA_CLONES Matrix
matmulTransposedReference(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.cols() == b.cols(), "matmulT shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")^T");
    Matrix c(a.rows(), b.rows());
    const Index k_dim = a.cols();
    for (Index i = 0; i < a.rows(); ++i) {
        const float *arow = a.rowPtr(i);
        for (Index j = 0; j < b.rows(); ++j) {
            const float *brow = b.rowPtr(j);
            float acc = 0.0f;
            for (Index k = 0; k < k_dim; ++k)
                acc = std::fma(arow[k], brow[k], acc);
            c(i, j) = acc;
        }
    }
    return c;
}

Matrix
matmulQuantReference(const QuantMatrix &a, const QuantMatrix &b)
{
    EXION_ASSERT(a.cols() == b.rows(), "quant matmul shape mismatch");
    Matrix c(a.rows(), b.cols());
    const double out_scale = a.scale() * b.scale();
    for (Index i = 0; i < a.rows(); ++i) {
        for (Index j = 0; j < b.cols(); ++j) {
            i64 acc = 0;
            for (Index k = 0; k < a.cols(); ++k)
                acc += static_cast<i64>(a(i, k)) * b(k, j);
            c(i, j) = static_cast<float>(acc * out_scale);
        }
    }
    return c;
}

} // namespace exion
