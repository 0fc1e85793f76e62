/**
 * @file
 * Log-domain arithmetic of the eager-prediction engine (Fig. 5a / 15).
 *
 * Operands are approximated by their leading-one position (LOD) or the
 * two leading set bits (TS-LOD); a multiply becomes an exponent
 * addition realised as a shift, and accumulation of the resulting
 * one-hot values uses the one-hot adder tree (functionally: exact sums
 * of powers of two).
 */

#ifndef EXION_SPARSITY_LOG_DOMAIN_H_
#define EXION_SPARSITY_LOG_DOMAIN_H_

#include <span>

#include "exion/common/bitops.h"
#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

/**
 * Approximate signed product of two integers in the log domain.
 *
 * Single mode: sign * 2^(p_a + p_b). TwoStep mode: the four (or fewer)
 * cross terms of (2^a1 + 2^a2)(2^b1 + 2^b2). Equal to
 * lodImage(a, mode) * lodImage(b, mode) on every input; kept as the
 * per-MAC oracle the GEMM path is tested against.
 */
i64 ldProduct(i32 a, i32 b, LodMode mode);

/**
 * q with every value replaced by its lodImage (same shape, params).
 * @pre Int12 values, so every image fits gemmInt12 (asserted)
 */
QuantMatrix lodTransform(const QuantMatrix &q, LodMode mode);

/**
 * A * [B_0 | B_1 | ...] over operands that already are LOD images,
 * dequantised to float: one exact integer GEMM (gemmInt12). The B_h
 * are equal-width column windows of one row-major buffer, side by
 * side (B_h starts h * B_0.cols() elements after B_0, every window
 * with B_0's row stride), and each dequantises its columns with
 * a.scale() * B_h.scale(). Output is m x (count * B_0.cols()).
 *
 * @pre every value's magnitude is at most kGemmInt12MaxAbs
 */
Matrix ldImageMatmul(const QuantMatrix &a_img,
                     std::span<const QuantMatrix> b_imgs);

/**
 * Log-domain A (m x k) * B (k x n), dequantised to float.
 *
 * Every MAC is ldProduct, and accumulation is exact (the one-hot
 * adder tree merges one-hot addends losslessly). Computed as the
 * integer GEMM of the operands' LOD images, so every kernel table and
 * every blocking is bit-identical to the scalar ldProduct chain.
 *
 * @pre both operands hold Int12 values
 */
Matrix ldMatmul(const QuantMatrix &a, const QuantMatrix &b, LodMode mode);

/** Log-domain A (m x k) * B^T (n x k), dequantised to float. */
Matrix ldMatmulTransposed(const QuantMatrix &a, const QuantMatrix &b,
                          LodMode mode);

/**
 * Convenience: quantise both float operands to INT12, then run the
 * log-domain product A * B.
 */
Matrix ldMatmulFloat(const Matrix &a, const Matrix &b, LodMode mode);

} // namespace exion

#endif // EXION_SPARSITY_LOG_DOMAIN_H_
