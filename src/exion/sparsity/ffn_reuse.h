/**
 * @file
 * FFN-Reuse algorithm (Section III-A, Fig. 6).
 *
 * One dense iteration computes the FFN fully, thresholds the non-linear
 * layer's output |H| into a recompute bitmask (1 = important, compute
 * every iteration), and caches the partial sums contributed by the
 * reused (sparse) elements through the second FFN layer. The following
 * N sparse iterations recompute only masked elements of the first
 * layer's output and accumulate just those contributions onto the
 * cached partial sums.
 *
 * Thresholds are calibrated per block at each dense iteration as the
 * targetSparsity quantile of |H| — the runtime analogue of the paper's
 * empirically determined local thresholds.
 *
 * Each block's threshold, mask and partial sums are per-stream state,
 * so they live in the stream's ExecContext; FfnReuse holds only its
 * config.
 *
 * The dense MMULs and the sparse hot loops (threshold scans, masked
 * recompute, masked products) run on the process's one kernel table
 * (activeKernels(), see simd_dispatch.h). The float recompute reads
 * rows of W1^T, which each block derives from its W1 on first use
 * (TransformerBlock::ffn1Transposed()); the weight store holds W1
 * only.
 */

#ifndef EXION_SPARSITY_FFN_REUSE_H_
#define EXION_SPARSITY_FFN_REUSE_H_

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/model/transformer_block.h"

namespace exion
{

/**
 * FFN-Reuse execution engine.
 *
 * Holds only its config: each block's threshold, mask and partial sums
 * live in the ExecContext a call runs against (ExecContext::ffn), so
 * one engine serves any number of denoising streams.
 */
class FfnReuse
{
  public:
    /**
     * @param cfg      dense interval N and sparsity target
     * @param quantize run MMULs through INT12 operands
     */
    FfnReuse(const FfnReuseConfig &cfg, bool quantize);

    /** True when the iteration is a dense (full recompute) one. */
    bool isDenseIteration(int iteration) const;

    /**
     * Executes one FFN sub-layer under reuse over a stack of members:
     * x_norm holds members.size() equal row segments, one per member
     * in stack order, and each member runs at its own iteration
     * against its own state for the block.
     *
     * A member calibrates when it is at a dense iteration or has no
     * state for the block yet. When every member calibrates, FFN-1
     * and the partial-sum GEMM run once over the whole stack, and
     * each member takes its quantile, mask and split from its own
     * rows; the masked second layer runs per member, on its own mask.
     * A stack that mixes calibrating and reusing members runs member
     * by member, each on a view of its rows. So every member's rows,
     * ExecStats and state equal a stack-of-one call on its rows bit
     * for bit, and onFfnHidden and onFfnMask fire per member with
     * that member's rows, in stack order.
     *
     * @param blk       the transformer block (weights)
     * @param x_norm    normalised sub-layer input
     * @param members   the stack's iterations, stats and block state
     * @param observers mask/activation hooks
     */
    Matrix run(const TransformerBlock &blk, const Matrix &x_norm,
               Members members, const ExecObservers &observers) const;

  private:
    Matrix runDense(const TransformerBlock &blk, const Matrix &x_norm,
                    Members members,
                    const ExecObservers &observers) const;
    Matrix runSparse(const TransformerBlock &blk, const Matrix &x_norm,
                     ExecStats &stats, const ExecObservers &observers,
                     FfnReuseBlockState &st) const;

    FfnReuseConfig cfg_;
    bool quantize_;
};

/**
 * targetSparsity quantile of |values| (the calibrated threshold): the
 * magnitude at rank min(n - 1, floor(target_sparsity * n)) in
 * ascending order, found by kthLargest's counting selection over |v|
 * (tensor/select.h) without a copy or a sort.
 */
double sparsityQuantile(std::span<const float> values,
                        double target_sparsity);

} // namespace exion

#endif // EXION_SPARSITY_FFN_REUSE_H_
