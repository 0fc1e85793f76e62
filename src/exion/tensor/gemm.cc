#include "exion/tensor/gemm.h"

#include <vector>

namespace exion
{

namespace
{

/**
 * Blocking parameters, sized for the paper-scale workloads: a cohort
 * stack of N members x 8 tokens against 256x256 .. 1024x256 weight
 * panels. A packed j-panel of a K x N weight matrix occupies
 * K * kPanelCols floats (128 KiB at K = 256), which stays resident in
 * L2 while every stacked activation row sweeps it; the reference loop
 * instead drags the whole K x N matrix through the cache once per
 * activation row. The i-blocking bounds how much of C is live between
 * panel switches.
 */
constexpr Index kPanelCols = 128;
constexpr Index kBlockRows = 64;

/*
 * Each blocked kernel below and its Reference oracle (at the end of
 * this file) spell the per-element accumulation with the same
 * expression shape in the same translation unit (c += a * b with k
 * ascending from a +0.0f start), so whatever the compiler does to
 * one — vectorise across independent output elements, contract
 * multiply-add into FMA — it does to both and the per-element
 * rounding sequence stays identical. Reassociating or splitting the
 * k reduction itself is not legal without -ffast-math, which this
 * project never enables.
 */

Matrix
blockedMatmul(const Matrix &a, const Matrix &b, SimdTier simd)
{
    const SimdKernels &kr = simdKernels(simd);
    Matrix c(a.rows(), b.cols());
    const Index m = a.rows();
    const Index k_dim = a.cols();
    const Index n = b.cols();
    // One reusable panel buffer: B[:, j0:j0+nb] packed row-major as
    // packed[k * nb + jj], so the inner j-sweep reads contiguously.
    std::vector<float> packed(k_dim * std::min(kPanelCols, n));
    for (Index j0 = 0; j0 < n; j0 += kPanelCols) {
        const Index nb = std::min(kPanelCols, n - j0);
        for (Index k = 0; k < k_dim; ++k) {
            const float *brow = b.rowPtr(k) + j0;
            float *dst = packed.data() + k * nb;
            for (Index jj = 0; jj < nb; ++jj)
                dst[jj] = brow[jj];
        }
        for (Index i0 = 0; i0 < m; i0 += kBlockRows) {
            const Index i_end = std::min(i0 + kBlockRows, m);
            for (Index i = i0; i < i_end; ++i) {
                const float *arow = a.rowPtr(i);
                float *crow = c.rowPtr(i) + j0;
                // Jam four k steps per C sweep: each element's
                // accumulator still adds its k terms one at a time in
                // ascending order (four separate rounded additions,
                // exactly the reference chain — the axpy4F32 kernel
                // contract), but C is loaded and stored once per four
                // FMAs instead of every FMA.
                Index k = 0;
                for (; k + 4 <= k_dim; k += 4) {
                    const float *bp0 = packed.data() + k * nb;
                    kr.axpy4F32(crow, bp0, bp0 + nb, bp0 + 2 * nb,
                                bp0 + 3 * nb, arow[k], arow[k + 1],
                                arow[k + 2], arow[k + 3], nb);
                }
                for (; k < k_dim; ++k)
                    kr.axpyF32(crow, packed.data() + k * nb, arow[k],
                               nb);
            }
        }
    }
    return c;
}

Matrix
blockedMatmulTransposed(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    const Index m = a.rows();
    const Index n = b.rows();
    const Index k_dim = a.cols();
    // B's rows are already contiguous; tiling i x j keeps a block of
    // kBlockRows B rows hot while kBlockRows A rows sweep it, instead
    // of streaming all of B once per A row. Inside a tile, four B
    // rows share one pass over the A row: four independent
    // accumulators, each still summing its own k terms in ascending
    // order — the reference chain per element, a quarter of the A
    // loads.
    for (Index i0 = 0; i0 < m; i0 += kBlockRows) {
        const Index i_end = std::min(i0 + kBlockRows, m);
        for (Index j0 = 0; j0 < n; j0 += kBlockRows) {
            const Index j_end = std::min(j0 + kBlockRows, n);
            for (Index i = i0; i < i_end; ++i) {
                const float *arow = a.rowPtr(i);
                float *crow = c.rowPtr(i);
                Index j = j0;
                for (; j + 4 <= j_end; j += 4) {
                    const float *br0 = b.rowPtr(j);
                    const float *br1 = b.rowPtr(j + 1);
                    const float *br2 = b.rowPtr(j + 2);
                    const float *br3 = b.rowPtr(j + 3);
                    float acc0 = 0.0f;
                    float acc1 = 0.0f;
                    float acc2 = 0.0f;
                    float acc3 = 0.0f;
                    for (Index k = 0; k < k_dim; ++k) {
                        const float av = arow[k];
                        acc0 += av * br0[k];
                        acc1 += av * br1[k];
                        acc2 += av * br2[k];
                        acc3 += av * br3[k];
                    }
                    crow[j] = acc0;
                    crow[j + 1] = acc1;
                    crow[j + 2] = acc2;
                    crow[j + 3] = acc3;
                }
                for (; j < j_end; ++j) {
                    const float *brow = b.rowPtr(j);
                    float acc = 0.0f;
                    for (Index k = 0; k < k_dim; ++k)
                        acc += arow[k] * brow[k];
                    crow[j] = acc;
                }
            }
        }
    }
    return c;
}

Matrix
blockedMatmulQuant(const QuantMatrix &a, const QuantMatrix &b,
                   SimdTier simd)
{
    const SimdKernels &kr = simdKernels(simd);
    Matrix c(a.rows(), b.cols());
    const double out_scale = a.scale() * b.scale();
    const Index m = a.rows();
    const Index k_dim = a.cols();
    const Index n = b.cols();
    // The reference walks B column-wise (stride n) in its inner loop.
    // Pack each j-panel of B transposed — packed[jj * k_dim + k] —
    // so both operands stream contiguously. Integer accumulation is
    // exact in any order; we keep k ascending anyway to match the
    // reference operation-for-operation.
    std::vector<i32> packed(std::min(kPanelCols, n) * k_dim);
    for (Index j0 = 0; j0 < n; j0 += kPanelCols) {
        const Index nb = std::min(kPanelCols, n - j0);
        for (Index k = 0; k < k_dim; ++k)
            for (Index jj = 0; jj < nb; ++jj)
                packed[jj * k_dim + k] = b(k, j0 + jj);
        for (Index i0 = 0; i0 < m; i0 += kBlockRows) {
            const Index i_end = std::min(i0 + kBlockRows, m);
            for (Index i = i0; i < i_end; ++i) {
                const i32 *arow = a.rowPtr(i);
                float *crow = c.rowPtr(i) + j0;
                // One widening dot kernel per packed column (integer
                // sums are exact in any grouping, so this is legal in
                // every tier).
                for (Index jj = 0; jj < nb; ++jj)
                    crow[jj] = static_cast<float>(
                        kr.dotI32(arow, packed.data() + jj * k_dim,
                                  k_dim)
                        * out_scale);
            }
        }
    }
    return c;
}

} // namespace

Matrix
matmul(const Matrix &a, const Matrix &b, SimdTier simd)
{
    EXION_ASSERT(a.cols() == b.rows(), "matmul shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")");
    return blockedMatmul(a, b, simd);
}

Matrix
matmulTransposed(const Matrix &a, const Matrix &b)
{
    EXION_ASSERT(a.cols() == b.cols(), "matmulT shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")^T");
    return blockedMatmulTransposed(a, b);
}

Matrix
matmulQuant(const QuantMatrix &a, const QuantMatrix &b, SimdTier simd)
{
    EXION_ASSERT(a.cols() == b.rows(), "quant matmul shape mismatch");
    return blockedMatmulQuant(a, b, simd);
}

Matrix
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
                crow[j] += av * brow[j];
        }
    }
    return c;
}

Matrix
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
                acc += arow[k] * brow[k];
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
