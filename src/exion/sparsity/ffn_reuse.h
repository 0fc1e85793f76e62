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
 */

#ifndef EXION_SPARSITY_FFN_REUSE_H_
#define EXION_SPARSITY_FFN_REUSE_H_

#include <unordered_map>

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/model/transformer_block.h"
#include "exion/tensor/bitmask.h"
#include "exion/tensor/quant_matrix.h"
#include "exion/tensor/simd_dispatch.h"

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
    Matrix hiddenCache;   //!< H from the last dense iteration
    Matrix psumSparse;    //!< (H masked to reuse region) * W2
};

/**
 * Per-request FFN-Reuse state bundle: one entry per transformer block.
 *
 * The engine holds a private bundle by default; a serving layer binds
 * one bundle per in-flight request so inter-iteration reuse state
 * (masks, hidden caches, partial sums) never mixes across concurrent
 * denoising streams.
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
     * @param simd     SIMD tier for the dense MMULs and the sparse hot
     *                 loops (threshold scans, masked recompute,
     *                 masked products); Scalar/Exact are
     *                 bit-identical
     */
    FfnReuse(const FfnReuseConfig &cfg, bool quantize,
             SimdTier simd = defaultSimdTier());

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
    /**
     * Per-block transposed first-layer weights: runSparse's masked
     * recompute reads W1 column-wise, so the sparse path dots against
     * the transpose's contiguous rows instead. Weights are immutable
     * for a block id and an engine serves one request at a time, so
     * the transpose (and, under quantize, its INT12 image — the
     * per-tensor scale is order-independent, making
     * quantize(transpose(W)) == transpose(quantize(W))) is built once
     * and reused across iterations.
     */
    struct TransposedFfn1
    {
        Matrix w1t;
        Matrix w1vt;
        QuantMatrix qw1t;
        QuantMatrix qw1vt;
    };

    const TransposedFfn1 &transposedFfn1(const TransformerBlock &blk);

    Matrix runDense(const TransformerBlock &blk, const Matrix &x_norm,
                    ExecStats &stats, ExecObservers &observers,
                    FfnReuseBlockState &st);
    Matrix runSparse(const TransformerBlock &blk, const Matrix &x_norm,
                     ExecStats &stats, ExecObservers &observers,
                     FfnReuseBlockState &st);

    FfnReuseConfig cfg_;
    bool quantize_;
    SimdTier simd_;
    std::unordered_map<int, TransposedFfn1> w1tCache_;
    FfnReuseState ownState_;
    FfnReuseState *state_ = &ownState_;
};

/** targetSparsity quantile of |values| (the calibrated threshold). */
double sparsityQuantile(std::span<const float> values,
                        double target_sparsity);

} // namespace exion

#endif // EXION_SPARSITY_FFN_REUSE_H_
