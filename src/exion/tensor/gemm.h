/**
 * @file
 * Dense GEMM kernels.
 *
 * Every dense MMUL in the repository is one call to a kernel-table
 * entry (simd_dispatch.h): matmul() to gemmF32, matmulQuant() to
 * gemmInt12. On x86 the float entry keeps a register tile of C over
 * k-blocks and reads A in place; on AVX-512 it packs each 32-column
 * panel of B into one stack buffer just before its row tiles run, so
 * one path serves every shape, from a single token row to a 196-row
 * MDM stack, with no allocation and no copy of the whole weight.
 * matmulTransposed() is matmul(a, transpose(b)). The naive triple
 * loops (full IEEE accumulation, no skips) stay beside them as the
 * *Reference oracles* (matmulReference and friends); only tests and
 * bench_kernels' gate call them.
 *
 * Accumulation contract: every output element is a single accumulator
 * starting at +0.0f that takes acc = fma(a(i,k), b(k,j), acc) for k
 * ascending — one fused multiply-add per term, rounded once, with
 * plain IEEE-754 semantics — **no zero-operand skipping** (a zero
 * activation against a NaN/Inf weight produces NaN, exactly as
 * written) and no partial-sum splitting or reassociation. Tiling
 * only reorders *which element* is worked on next, and parks partial
 * sums in C between k-blocks (a float store and reload is exact); it
 * never reorders the reduction inside an element, so the kernels are
 * bit-identical to the oracles by construction, not by tolerance, on
 * every kernel table. The oracles spell the chain with std::fma and
 * carry EXION_FMA_CLONES (simd_dispatch.h), as the scalar table does.
 * Consequently matmul(a, b) and matmulTransposed(a, transpose(b))
 * agree bit for bit on every input.
 * The property tests in tests/test_gemm.cc enforce this over
 * adversarial shapes including NaN/Inf payloads; sparsity shortcuts
 * belong in the sparsity layer, not here.
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
 * C = A * B^T, computed as matmul(a, transpose(b)): transposing copies
 * B exactly, so the chains are matmul's. @pre A.cols() == B.cols().
 */
Matrix matmulTransposed(const Matrix &a, const Matrix &b);

/**
 * Integer matmul on quantised operands, float accumulator output: the
 * exact i64 sums from gemmInt12, each scaled by a.scale() * b.scale().
 * @pre A.cols() == B.rows(), both operands IntWidth::Int12 (the
 * magnitude bound gemmInt12 accepts).
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
