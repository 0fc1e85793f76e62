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
     * Executes one FFN sub-layer under reuse at ctx.iteration, against
     * ctx's state for the block; a block with no state yet runs dense.
     *
     * @param blk       the transformer block (weights)
     * @param x_norm    normalised sub-layer input
     * @param ctx       the stream's iteration, stats and block state
     * @param observers mask/activation hooks
     */
    Matrix run(const TransformerBlock &blk, const Matrix &x_norm,
               ExecContext &ctx, const ExecObservers &observers) const;

  private:
    Matrix runDense(const TransformerBlock &blk, const Matrix &x_norm,
                    ExecStats &stats, const ExecObservers &observers,
                    FfnReuseBlockState &st) const;
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
