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
 * [A_0; A_1; ...] * [B_0 | B_1 | ...] over operands that already are
 * LOD images, dequantised to float: one exact integer GEMM
 * (gemmInt12). The A_s are equal-height row windows of one row-major
 * buffer, stacked (A_s starts s * A_0.rows() rows after A_0, every
 * window with A_0's row stride); the B_h are equal-width column
 * windows of one buffer, side by side (B_h starts h * B_0.cols()
 * elements after B_0, every window with B_0's row stride). Block
 * (s, h) dequantises with A_s.scale() * B_h.scale() (dequantizeI64,
 * one call per row of the block), so each A_s keeps its own
 * quantisation grid. Output is (count_a * A_0.rows()) x
 * (count_b * B_0.cols()). Eager prediction's first stage runs here;
 * its per-head second stage (predictScoreInto in
 * eager_prediction.h) runs the same integer GEMM on images it builds
 * in place.
 *
 * @pre every value's magnitude is at most kGemmInt12MaxAbs
 */
Matrix ldImageMatmul(std::span<const QuantMatrix> a_imgs,
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

/**
 * Convenience: quantise both float operands to INT12, then run the
 * log-domain product A * B.
 */
Matrix ldMatmulFloat(const Matrix &a, const Matrix &b, LodMode mode);

} // namespace exion

#endif // EXION_SPARSITY_LOG_DOMAIN_H_
