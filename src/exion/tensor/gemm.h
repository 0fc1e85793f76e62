/**
 * @file
 * Dense GEMM kernels.
 *
 * Every dense MMUL in the repository runs the cache-blocked kernel
 * here: blocked over the i/j output dimensions with the traversed B
 * panel packed contiguous, built for the tall stacked activations the
 * cohort path produces (many rows against one shared weight matrix).
 * The naive triple loops the golden model has always used (full IEEE
 * accumulation, no skips) stay beside it as the *Reference oracles*
 * (matmulReference and friends); only tests and bench_kernels' gate
 * call them.
 *
 * Accumulation contract: every output element is a single accumulator
 * starting at +0.0f that adds a(i,k)*b(k,j) for k ascending, with
 * plain IEEE-754 semantics, **no zero-operand skipping** (a zero
 * activation against a NaN/Inf weight produces NaN, exactly as
 * written) and no partial-sum splitting or reassociation. Blocking
 * only reorders *which element* is worked on next (and copies B
 * values, which is exact); it never reorders the reduction inside an
 * element, so the blocked kernels are bit-identical to the oracles by
 * construction, not by tolerance, on every kernel table (see
 * simd_dispatch.h). Consequently matmul(a, b) and
 * matmulTransposed(a, transpose(b)) agree bit for bit on every input. The property tests in tests/test_gemm.cc enforce
 * this over adversarial shapes including NaN/Inf payloads; sparsity
 * shortcuts belong in the sparsity layer, not here.
 */

#ifndef EXION_TENSOR_GEMM_H_
#define EXION_TENSOR_GEMM_H_

#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

/** C = A * B. @pre A.cols() == B.rows(). */
Matrix matmul(const Matrix &a, const Matrix &b);

/**
 * C = A * B^T. @pre A.cols() == B.cols(). Every output is a pure k
 * chain, which no kernel-table entry can vectorise without
 * reassociating, so this kernel is scalar on every table.
 */
Matrix matmulTransposed(const Matrix &a, const Matrix &b);

/**
 * Integer matmul on quantised operands, float accumulator output.
 * @pre A.cols() == B.rows().
 */
Matrix matmulQuant(const QuantMatrix &a, const QuantMatrix &b);

/** Oracle for matmul(): the naive triple loop. */
Matrix matmulReference(const Matrix &a, const Matrix &b);

/** Oracle for matmulTransposed(): the naive triple loop. */
Matrix matmulTransposedReference(const Matrix &a, const Matrix &b);

/** Oracle for matmulQuant(): the naive triple loop. */
Matrix matmulQuantReference(const QuantMatrix &a, const QuantMatrix &b);

} // namespace exion

#endif // EXION_TENSOR_GEMM_H_
