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
 * The dense MMULs and the sparse hot loops (threshold scans, masked
 * recompute, masked products) run on the process's one kernel table
 * (activeKernels(), see simd_dispatch.h).
 */

#ifndef EXION_SPARSITY_FFN_REUSE_H_
#define EXION_SPARSITY_FFN_REUSE_H_

#include <unordered_map>

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/model/transformer_block.h"
#include "exion/tensor/bitmask.h"

namespace exion
{

/**
 * Per-block inter-iteration reuse state.
 */
struct FfnReuseBlockState
{
    bool initialized = false;
    double theta = 0.0;   //!< calibrated |H| threshold
    Bitmask2D mask;       //!< recompute mask (1 = recompute)
    Matrix psumSparse;    //!< (H masked to reuse region) * W2
};

/**
 * Per-request FFN-Reuse state bundle: one entry per transformer block.
 *
 * The engine holds a private bundle by default; a serving layer binds
 * one bundle per in-flight request so inter-iteration reuse state
 * (masks, partial sums) never mixes across concurrent denoising
 * streams.
 */
struct FfnReuseState
{
    std::unordered_map<int, FfnReuseBlockState> blocks;

    /** Drops all cached block state. */
    void reset() { blocks.clear(); }
};

/**
 * FFN-Reuse execution engine, stateful across iterations.
 *
 * Not copyable: it carries a bound per-request state pointer.
 */
class FfnReuse
{
  public:
    /**
     * @param cfg      dense interval N and sparsity target
     * @param quantize run MMULs through INT12 operands
     */
    FfnReuse(const FfnReuseConfig &cfg, bool quantize);

    FfnReuse(const FfnReuse &) = delete;
    FfnReuse &operator=(const FfnReuse &) = delete;

    /** Binds an external per-request state bundle. */
    void bindState(FfnReuseState &state) { state_ = &state; }

    /** Reverts to the engine-owned single-stream state bundle. */
    void unbindState() { state_ = &ownState_; }

    /** True when the iteration is a dense (full recompute) one. */
    bool isDenseIteration(int iteration) const;

    /**
     * Executes one FFN sub-layer under reuse.
     *
     * @param blk       the transformer block (weights)
     * @param x_norm    normalised sub-layer input
     * @param iteration current denoising iteration
     * @param stats     op/sparsity accounting sink
     * @param observers mask/activation hooks
     */
    Matrix run(const TransformerBlock &blk, const Matrix &x_norm,
               int iteration, ExecStats &stats,
               ExecObservers &observers);

    /** Read access to a block's state (nullptr before first dense). */
    const FfnReuseBlockState *state(int block_id) const;

    /** Drops the bound bundle's state (e.g. between pipeline runs). */
    void reset();

  private:
    Matrix runDense(const TransformerBlock &blk, const Matrix &x_norm,
                    ExecStats &stats, ExecObservers &observers,
                    FfnReuseBlockState &st);
    Matrix runSparse(const TransformerBlock &blk, const Matrix &x_norm,
                     ExecStats &stats, ExecObservers &observers,
                     FfnReuseBlockState &st);

    FfnReuseConfig cfg_;
    bool quantize_;
    FfnReuseState ownState_;
    FfnReuseState *state_ = &ownState_;
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
