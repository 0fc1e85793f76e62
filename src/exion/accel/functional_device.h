/**
 * @file
 * Functional execution of output-sparse MMULs through ConMerge + SDUE.
 *
 * This is the end-to-end correctness path: a sparsity mask goes
 * through the real ConMerge pipeline, the resulting merged tiles (with
 * their conflict vectors and control maps) execute on the functional
 * SDUE, and the output must equal the dense reference at every masked
 * position. test_accel's FunctionalDevice tests check that: outputs
 * match matmul() within 1e-3 at masked positions, at mask densities
 * from 1 % to 100 %, and one 12 %-density case also checks zeros at
 * every other position. No test compares the analytic performance
 * model with the cycle counts this path reports.
 */

#ifndef EXION_ACCEL_FUNCTIONAL_DEVICE_H_
#define EXION_ACCEL_FUNCTIONAL_DEVICE_H_

#include "exion/conmerge/pipeline.h"
#include "exion/sim/sdue.h"
#include "exion/tensor/matrix.h"

namespace exion
{

/** Output and statistics of a ConMerge-executed sparse MMUL. */
struct SparseMatmulResult
{
    Matrix output;           //!< masked positions computed, rest zero
    ConMergeStats conStats;  //!< compaction statistics
    SdueRunStats sdueStats;  //!< array cycles / occupancy
};

/**
 * Computes out = input * weight at the mask's non-sparse positions.
 *
 * @param input   m x k input matrix
 * @param weight  k x n weight matrix
 * @param out_mask m x n output mask (1 = compute)
 * @param cfg     ConMerge configuration
 */
SparseMatmulResult sparseMatmulViaConMerge(
    const Matrix &input, const Matrix &weight, const Bitmask2D &out_mask,
    const ConMergeConfig &cfg = {});

} // namespace exion

#endif // EXION_ACCEL_FUNCTIONAL_DEVICE_H_
