/**
 * @file
 * Block execution strategies.
 *
 * A TransformerBlock owns weights; *how* its MMULs are computed is a
 * BlockExecutor decision. The model library ships the dense reference
 * executor (optionally with INT12 operand quantisation); the sparsity
 * library layers FFN-Reuse and eager prediction on top of the same
 * interface. Every optimised executor is validated against
 * DenseExecutor outputs in the test suite. All of them run their
 * kernels on the one table the process probed (activeKernels(), see
 * simd_dispatch.h), so no executor carries a kernel choice.
 *
 * A request's mutable state — iteration, accounting and FFN-Reuse's
 * per-block state — is one ExecContext. The dense sub-layers are
 * written once, over a stack of members (one context per equal row
 * segment), so a solo executor runs them as a stack of one and a
 * cohort executor over its whole stack.
 */

#ifndef EXION_MODEL_EXECUTOR_H_
#define EXION_MODEL_EXECUTOR_H_

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "exion/tensor/bitmask.h"
#include "exion/tensor/matrix.h"

namespace exion
{

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

    /**
     * Projection skip accounting (EP side effects, Section II-B), in
     * (row, head) pairs: every path adds tokens x heads to each total,
     * and eager prediction adds, per head, the Q rows, K columns and
     * V columns that head did not need to the skipped counters.
     */
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
 * FFN-Reuse's inter-iteration state of one block: the threshold and
 * recompute mask its last dense iteration calibrated, and the cached
 * partial sums of the reused elements through the second FFN layer.
 */
struct FfnReuseBlockState
{
    bool initialized = false;
    double theta = 0.0;   //!< calibrated |H| threshold
    Bitmask2D mask;       //!< recompute mask (1 = recompute)
    Matrix psumSparse;    //!< (H masked to reuse region) * W2
};

/**
 * All mutable state of one denoising stream.
 *
 * The iteration index, the op/sparsity accounting and FFN-Reuse's
 * per-block state live here and nowhere else: FfnReuse keeps only its
 * config, and every executor runs against contexts. A solo executor
 * owns exactly one; a cohort executor holds one per member slot, which
 * a serving layer may attach so a request's state outlives the
 * executor that produced it.
 */
struct ExecContext
{
    /** Current denoising iteration. */
    int iteration = 0;
    /** Accumulated op/sparsity accounting. */
    ExecStats stats;
    /** FFN-Reuse state, one entry per block id. */
    std::unordered_map<int, FfnReuseBlockState> ffn;
};

/**
 * The members whose equal row segments a stacked activation holds, in
 * stack order. A solo run is a stack of one.
 */
using Members = std::span<ExecContext *const>;

/**
 * Strategy interface for computing a block's two heavy sub-layers.
 *
 * Executors are stateful (their context + observers) and not
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
        ctx_.iteration = iteration;
    }

    /** Multi-head attention sub-layer (QKV, scores, AV, out-proj). */
    virtual Matrix attention(const TransformerBlock &blk,
                             const Matrix &x_norm) = 0;

    /** FFN sub-layer (two linears around the non-linearity). */
    virtual Matrix ffn(const TransformerBlock &blk,
                       const Matrix &x_norm) = 0;

    /** The executor's own context. */
    ExecContext &ctx() { return ctx_; }

    /** The executor's own context (const). */
    const ExecContext &ctx() const { return ctx_; }

    /** Accumulated statistics of the executor's context. */
    ExecStats &stats() { return ctx_.stats; }

    /** Accumulated statistics (const). */
    const ExecStats &stats() const { return ctx_.stats; }

    /** Observation hooks (mutable by design; callers install them). */
    ExecObservers observers;

  protected:
    /** The executor's context as a stack of one. */
    Members self() { return {&self_, 1}; }

  private:
    ExecContext ctx_;
    ExecContext *const self_ = &ctx_;
};

/**
 * Reference dense executor, optionally quantising MMUL operands to
 * INT12 the way the SDUE does.
 */
class DenseExecutor : public BlockExecutor
{
  public:
    /** @param quantize route every MMUL through INT12 operands */
    explicit DenseExecutor(bool quantize = false) : quantize_(quantize) {}

    Matrix attention(const TransformerBlock &blk,
                     const Matrix &x_norm) override;
    Matrix ffn(const TransformerBlock &blk, const Matrix &x_norm) override;

  private:
    bool quantize_;
};

/**
 * Executor interface for cohort (stacked multi-request) stepping.
 *
 * A cohort executor computes a block whose activation matrix carries
 * one row-segment per cohort member, stacked in slot order. Before
 * every network forward the driver (CohortRun) announces the stacked
 * order and each member's denoising iteration; implementations keep
 * one ExecContext per slot, so every member's rows and accounting are
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

/**
 * A*B with optional INT12 operand quantisation: under quantize both
 * operands are quantised here, each with its own max-|v| scale, and
 * the exact integer product is dequantised (matmulQuant). A layer's
 * weight goes in as its float view, lin.weight(); no INT12 weight is
 * stored anywhere.
 */
Matrix execMatmul(const Matrix &a, const Matrix &b, bool quantize);

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
 * Dense multi-head attention over a stack of members: x_norm holds
 * members.size() equal row segments, one per member in stack order.
 * Each projection runs once over the whole stack (row-independent, so
 * every member's rows equal its solo run's bit for bit), the
 * score/softmax/AV core once per member segment, and each member is
 * charged for its own rows only. Under quantize each operand gets one
 * Int12 scale, so quantize takes a stack of one. Returns the
 * sub-layer output (pre-residual).
 */
Matrix denseAttentionImpl(const TransformerBlock &blk,
                          const Matrix &x_norm, bool quantize,
                          Members members);

/**
 * Dense FFN over a stack of members, as denseAttentionImpl: both
 * linears run once over the whole stack, and each member is charged
 * for its own rows. onFfnHidden fires once with the stacked hidden
 * activation.
 */
Matrix denseFfnImpl(const TransformerBlock &blk, const Matrix &x_norm,
                    bool quantize, Members members,
                    const ExecObservers &observers);

} // namespace exion

#endif // EXION_MODEL_EXECUTOR_H_
