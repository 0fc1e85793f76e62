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
 * per-block state — is one ExecContext. Every executor steps a stack
 * of members (one context per equal row segment): a solo run is a
 * stack of one, and a cohort step stacks every member, so one
 * executor and one body per sub-layer serve both. Each body, dense or
 * sparse, runs every product whose rows are independent once over
 * the whole stack, and keeps token mixing and what a request
 * calibrates (INT12 scales, eager prediction's decisions, FFN-Reuse's
 * thresholds and masks) per member segment, so each member's rows and
 * ExecStats equal its solo run's bit for bit.
 */

#ifndef EXION_MODEL_EXECUTOR_H_
#define EXION_MODEL_EXECUTOR_H_

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "exion/model/op_counter.h"
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
 * config, and every executor runs against contexts. An executor owns
 * one for its solo runs and one per cohort slot (slotContext()).
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
 * Every executor steps a stack of members: each sub-layer call runs
 * over an activation holding one equal row segment per member, in
 * stack order. beginIteration() makes the executor's own context the
 * only member; beginCohortStep() makes the named slots' contexts the
 * members, so a cohort (CohortRun) and a solo run go through the same
 * attention() and ffn(). A fresh executor called with no begin*()
 * runs its own context alone.
 *
 * Executors are stateful (contexts + observers) and not copyable;
 * create one per concurrent denoising stream or cohort.
 */
class BlockExecutor
{
  public:
    virtual ~BlockExecutor() = default;

    BlockExecutor(const BlockExecutor &) = delete;
    BlockExecutor &operator=(const BlockExecutor &) = delete;

    /**
     * Called once at the start of every solo denoising iteration: the
     * next forward runs the executor's own context as a stack of one.
     */
    virtual void beginIteration(int iteration);

    /**
     * Announces the stacked segment order for the next forward: slot
     * slots[m]'s context, at iteration iterations[m], owns segment m.
     * A slot's context is created on its first step. A cohort steps
     * in lockstep, so every entry of iterations is the same.
     *
     * @throws std::invalid_argument on an executor that quantises:
     *         INT12 scales are calibrated per matrix, so a stacked
     *         operand would change every member's quantisation grid
     * @throws std::invalid_argument when the iterations differ
     */
    virtual void beginCohortStep(const std::vector<Index> &slots,
                                 const std::vector<int> &iterations);

    /** Multi-head attention sub-layer (QKV, scores, AV, out-proj). */
    virtual Matrix attention(const TransformerBlock &blk,
                             const Matrix &x_norm) = 0;

    /** FFN sub-layer (two linears around the non-linearity). */
    virtual Matrix ffn(const TransformerBlock &blk,
                       const Matrix &x_norm) = 0;

    /** Accumulated statistics of the executor's own context. */
    ExecStats &stats() { return ctx_.stats; }

    /** Accumulated statistics (const). */
    const ExecStats &stats() const { return ctx_.stats; }

    /**
     * Execution context of a cohort slot (created on first access).
     * Its address is stable until releaseSlot() drops it.
     */
    ExecContext &slotContext(Index slot) { return slots_[slot]; }

    /** Drops a slot's context. */
    void releaseSlot(Index slot) { slots_.erase(slot); }

    /** Size of the current step's member list: 1 after
        beginIteration() or on a fresh executor, slots.size() after
        beginCohortStep(). */
    Index memberCount() const { return members_.size(); }

    /** Observation hooks (mutable by design; callers install them). */
    ExecObservers observers;

  protected:
    /** @param quantize whether the executor runs INT12 operands */
    explicit BlockExecutor(bool quantize) : quantize_(quantize) {}

    /** Whether the executor runs INT12 operands. */
    bool quantize() const { return quantize_; }

    /** The current step's member contexts, in stack order. */
    Members members() const { return members_; }

  private:
    bool quantize_;
    ExecContext ctx_;
    /** Node-based, so a slot context's address survives rehashing. */
    std::unordered_map<Index, ExecContext> slots_;
    std::vector<ExecContext *> members_{&ctx_};
};

/**
 * Reference dense executor, optionally quantising MMUL operands to
 * INT12 the way the SDUE does.
 */
class DenseExecutor : public BlockExecutor
{
  public:
    /** @param quantize route every MMUL through INT12 operands */
    explicit DenseExecutor(bool quantize = false) : BlockExecutor(quantize)
    {}

    Matrix attention(const TransformerBlock &blk,
                     const Matrix &x_norm) override;
    Matrix ffn(const TransformerBlock &blk, const Matrix &x_norm) override;
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
 * Rows of each member's segment of a stacked activation: x_norm must
 * hold members.size() equal segments (asserted). Under quantize each
 * operand gets one Int12 scale, so quantize takes a stack of one
 * (asserted too).
 */
Index segmentRows(const Matrix &x_norm, Members members, bool quantize);

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
 * The FFN's first layer and non-linearity: gelu(x_norm W1 + b1),
 * times (x_norm W1v + b1v) under GEGLU. The dense FFN and FFN-Reuse's
 * dense iteration and INT12 recompute all run it, so their hidden
 * activations are the same bits.
 */
Matrix ffnHidden(const TransformerBlock &blk, const Matrix &x_norm,
                 bool quantize);

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
