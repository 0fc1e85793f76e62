/**
 * @file
 * Block execution strategies.
 *
 * A TransformerBlock owns weights; *how* its MMULs are computed is a
 * BlockExecutor decision. The model library ships the dense reference
 * executor (optionally with INT12 operand quantisation); the sparsity
 * library layers FFN-Reuse and eager prediction on top of the same
 * interface. Every optimised executor is validated against
 * DenseExecutor outputs in the test suite.
 */

#ifndef EXION_MODEL_EXECUTOR_H_
#define EXION_MODEL_EXECUTOR_H_

#include <functional>
#include <vector>

#include "exion/tensor/bitmask.h"
#include "exion/tensor/matrix.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{

class Linear;
class TransformerBlock;

/**
 * Accumulated execution statistics across blocks and iterations.
 *
 * "Dense" counters record what an unoptimised execution would cost;
 * "executed" counters record work actually performed after skips.
 * MACs are counted as 2 ops, matching the paper's TOPS convention.
 */
struct ExecStats
{
    OpCount qkvOpsDense = 0;
    OpCount qkvOpsExecuted = 0;
    OpCount attnOpsDense = 0;
    OpCount attnOpsExecuted = 0;
    OpCount ffnOpsDense = 0;
    OpCount ffnOpsExecuted = 0;

    /** Sum + count for averaging FFN mask sparsity over sparse iters. */
    double ffnSparsitySum = 0.0;
    u64 ffnSparsitySamples = 0;

    /** Sum + count for attention-score output sparsity. */
    double scoreSparsitySum = 0.0;
    u64 scoreSparsitySamples = 0;

    /** Projection skip accounting (EP side effects, Section II-B). */
    u64 qRowsTotal = 0;
    u64 qRowsSkipped = 0;
    u64 kColsTotal = 0;
    u64 kColsSkipped = 0;
    u64 vColsTotal = 0;
    u64 vColsSkipped = 0;

    /** Total dense-equivalent ops. */
    OpCount totalDense() const
    {
        return qkvOpsDense + attnOpsDense + ffnOpsDense;
    }

    /** Total executed ops. */
    OpCount totalExecuted() const
    {
        return qkvOpsExecuted + attnOpsExecuted + ffnOpsExecuted;
    }

    /** Mean FFN recompute-mask sparsity over sparse iterations. */
    double meanFfnSparsity() const
    {
        return ffnSparsitySamples
            ? ffnSparsitySum / static_cast<double>(ffnSparsitySamples)
            : 0.0;
    }

    /** Mean attention-score output sparsity. */
    double meanScoreSparsity() const
    {
        return scoreSparsitySamples
            ? scoreSparsitySum / static_cast<double>(scoreSparsitySamples)
            : 0.0;
    }

    /** Merges another stats block into this one. */
    void merge(const ExecStats &other);
};

/**
 * Observation hooks for experiments that need internal activations.
 *
 * All hooks are optional. Masks use the paper's convention
 * (1 = non-sparse / compute).
 */
struct ExecObservers
{
    /** Fires with the non-linear (GELU/GEGLU) output of each FFN. */
    std::function<void(int block, const Matrix &hidden)> onFfnHidden;

    /**
     * Fires with the FFN recompute mask. dense_iteration marks the mask
     * generation pass (Fig. 6).
     */
    std::function<void(int block, const Bitmask2D &mask,
                       bool dense_iteration)> onFfnMask;

    /** Fires with the per-head attention-score keep mask. */
    std::function<void(int block, int head, const Bitmask2D &keep)>
        onScoreMask;
};

/**
 * Per-request mutable execution state.
 *
 * Every piece of state a BlockExecutor mutates while driving one
 * denoising stream — the current iteration index and the op/sparsity
 * accounting — lives here rather than in the executor itself. An
 * executor owns a private context by default (the original
 * single-stream behaviour); a serving layer binds one ExecContext per
 * in-flight request so request state never leaks across streams and
 * survives the executor that produced it.
 */
struct ExecContext
{
    /** Current denoising iteration. */
    int iteration = 0;
    /** Accumulated op/sparsity accounting. */
    ExecStats stats;
};

/**
 * Strategy interface for computing a block's two heavy sub-layers.
 *
 * Executors are stateful (bound context + observers) and not
 * copyable; create one per concurrent denoising stream.
 */
class BlockExecutor
{
  public:
    BlockExecutor() = default;
    virtual ~BlockExecutor() = default;

    BlockExecutor(const BlockExecutor &) = delete;
    BlockExecutor &operator=(const BlockExecutor &) = delete;

    /** Called once at the start of every denoising iteration. */
    virtual void beginIteration(int iteration)
    {
        ctx().iteration = iteration;
    }

    /**
     * SIMD tier for kernels issued on this executor's behalf, inside
     * the block and out (network in/out/time projections, ResBlock
     * convolutions; see simd_dispatch.h). Scalar and Exact are
     * bit-identical; the base implementation follows the process
     * default.
     */
    virtual SimdTier simdTier() const { return defaultSimdTier(); }

    /** Multi-head attention sub-layer (QKV, scores, AV, out-proj). */
    virtual Matrix attention(const TransformerBlock &blk,
                             const Matrix &x_norm) = 0;

    /** FFN sub-layer (two linears around the non-linearity). */
    virtual Matrix ffn(const TransformerBlock &blk,
                       const Matrix &x_norm) = 0;

    /** Binds an external per-request context. */
    void bindContext(ExecContext &ctx) { ctx_ = &ctx; }

    /** Reverts to the executor-owned single-stream context. */
    void unbindContext() { ctx_ = &ownCtx_; }

    /** Active execution context. */
    ExecContext &ctx() { return *ctx_; }

    /** Active execution context (const). */
    const ExecContext &ctx() const { return *ctx_; }

    /** Accumulated statistics of the active context. */
    ExecStats &stats() { return ctx_->stats; }

    /** Accumulated statistics (const). */
    const ExecStats &stats() const { return ctx_->stats; }

    /** Clears the active context's statistics. */
    void resetStats() { ctx_->stats = ExecStats{}; }

    /** Observation hooks (mutable by design; callers install them). */
    ExecObservers observers;

  protected:
    /** Current iteration of the active context. */
    int iteration() const { return ctx_->iteration; }

  private:
    ExecContext ownCtx_;
    ExecContext *ctx_ = &ownCtx_;
};

/**
 * Reference dense executor, optionally quantising MMUL operands to
 * INT12 the way the SDUE does.
 */
class DenseExecutor : public BlockExecutor
{
  public:
    /**
     * @param quantize route every MMUL through INT12 operands
     * @param simd     SIMD tier for the kernels (Scalar and Exact
     *                 are bit-identical)
     */
    explicit DenseExecutor(bool quantize = false,
                           SimdTier simd = defaultSimdTier())
        : quantize_(quantize), simd_(simd)
    {}

    Matrix attention(const TransformerBlock &blk,
                     const Matrix &x_norm) override;
    Matrix ffn(const TransformerBlock &blk, const Matrix &x_norm) override;

    /** Whether INT12 quantisation is applied. */
    bool quantized() const { return quantize_; }

    /** SIMD tier used for kernels. */
    SimdTier simdTier() const override { return simd_; }

  private:
    bool quantize_;
    SimdTier simd_;
};

/**
 * Executor interface for cohort (stacked multi-request) stepping.
 *
 * A cohort executor computes a block whose activation matrix carries
 * one row-segment per cohort member, stacked in slot order. Before
 * every network forward the driver (CohortRun) announces the stacked
 * order and each member's denoising iteration; implementations keep
 * all mutable state — op accounting, sparsity masks, inter-iteration
 * caches — partitioned per slot so every member's rows are
 * bit-identical to a solo run of that member.
 */
class CohortBlockExecutor : public BlockExecutor
{
  public:
    /**
     * Announces the stacked segment order for the next forward.
     *
     * @param slots      member slot ids, one per stacked segment
     * @param iterations each member's current denoising iteration
     */
    virtual void beginCohortStep(const std::vector<Index> &slots,
                                 const std::vector<int> &iterations) = 0;
};

/** A*B with optional INT12 operand quantisation. */
Matrix execMatmul(const Matrix &a, const Matrix &b, bool quantize,
                  SimdTier simd = defaultSimdTier());

/**
 * x * W for a layer's weight, with optional INT12 operand
 * quantisation. Identical numerics to
 * execMatmul(x, lin.weight(), ...), but a layer carrying a
 * quantized-at-rest image (one built from a WeightStore) feeds it to
 * matmulQuant directly — the weight-side fromFloat disappears from
 * the request path while the product stays bit-identical, because the
 * at-rest image snapshots the same deterministic quantisation.
 */
Matrix execWeightMatmul(const Matrix &x, const Linear &lin,
                        bool quantize,
                        SimdTier simd = defaultSimdTier());

/**
 * MACs-as-2-ops for an (m x k) * (k x n) MMUL — the paper's TOPS
 * convention. The single accounting formula every executor path
 * (dense, EP, FFN-Reuse, cohort) shares, so their ExecStats stay
 * comparable element for element.
 */
constexpr OpCount
mmulOps(Index m, Index k, Index n)
{
    return static_cast<OpCount>(2) * m * k * n;
}

/**
 * Dense multi-head attention implementation shared by executors.
 *
 * Accumulates into stats and fires observers; returns the sub-layer
 * output (pre-residual).
 */
Matrix denseAttentionImpl(const TransformerBlock &blk,
                          const Matrix &x_norm, bool quantize,
                          ExecStats &stats, ExecObservers &observers,
                          SimdTier simd = defaultSimdTier());

/**
 * Per-head score/softmax/AV core of dense attention on rows
 * [r0, r0+rows) of projected q/k/v, writing the concatenated head
 * outputs (pre output-projection) into the same rows of concat and
 * accumulating the per-head attn op counts. Split out — and
 * row-ranged — so cohort executors can run the token-mixing core per
 * member segment of one tall projection GEMM without slicing or
 * re-pasting activations; with r0 = 0 and rows = q.rows() it is the
 * solo dense path.
 */
void denseAttentionCoreInto(const TransformerBlock &blk,
                            const Matrix &q, const Matrix &k,
                            const Matrix &v, Index r0, Index rows,
                            bool quantize, ExecStats &stats,
                            Matrix &concat,
                            SimdTier simd = defaultSimdTier());

/** Dense FFN implementation shared by executors. */
Matrix denseFfnImpl(const TransformerBlock &blk, const Matrix &x_norm,
                    bool quantize, ExecStats &stats,
                    ExecObservers &observers,
                    SimdTier simd = defaultSimdTier());

} // namespace exion

#endif // EXION_MODEL_EXECUTOR_H_
