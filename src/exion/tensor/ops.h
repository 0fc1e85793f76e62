/**
 * @file
 * Dense linear-algebra reference kernels.
 *
 * These are the golden-model implementations every accelerated or
 * sparsity-skipping path in the repository is validated against. The
 * matmul family (matmul, matmulTransposed, matmulQuant) lives in
 * tensor/gemm.h, included here, with its accumulation contract.
 */

#ifndef EXION_TENSOR_OPS_H_
#define EXION_TENSOR_OPS_H_

#include "exion/tensor/gemm.h"
#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

/** Returns A^T. */
Matrix transpose(const Matrix &a);

/** C = A + B elementwise. @pre identical shapes. */
Matrix add(const Matrix &a, const Matrix &b);

/** C = A - B elementwise. @pre identical shapes. */
Matrix sub(const Matrix &a, const Matrix &b);

/** C = A * s elementwise. */
Matrix scale(const Matrix &a, float s);

/** Adds a row vector (1 x cols) to every row of A in place. */
void addRowVector(Matrix &a, const Matrix &row);

/** Frobenius norm of A. */
double frobeniusNorm(const Matrix &a);

/** Largest |a - b| over all elements. @pre identical shapes. */
double maxAbsDiff(const Matrix &a, const Matrix &b);

/**
 * Returns rows [r0, r0+n) of A as an n x cols matrix.
 *
 * The range check (here and in sliceCols/sliceBlock/pasteRows) is
 * wraparound-safe: Index is unsigned, so a negative r0 or n computed
 * in caller arithmetic arrives as a huge value, and a naive
 * `r0 + n <= rows` guard would wrap right past the bound it is meant
 * to enforce.
 */
Matrix sliceRows(const Matrix &a, Index r0, Index n);

/** Returns columns [c0, c0+n) of A as a rows x n matrix. */
Matrix sliceCols(const Matrix &a, Index c0, Index n);

/**
 * Returns the nr x nc block of A at (r0, c0). Equals
 * sliceCols(sliceRows(a, r0, nr), c0, nc) without the intermediate
 * copy.
 */
Matrix sliceBlock(const Matrix &a, Index r0, Index nr, Index c0,
                  Index nc);

/** Writes the rows of src into A starting at row r0. */
void pasteRows(Matrix &a, const Matrix &src, Index r0);

} // namespace exion

#endif // EXION_TENSOR_OPS_H_
