/**
 * @file
 * Cohort execution strategy: one executor stepping several requests'
 * stacked latents through each block, with all mutable state
 * partitioned per request.
 *
 * Row-independent work (QKV projections, FFN linears, the output
 * projection) runs as one tall MMUL over the whole stack, amortising
 * the traversal of each weight matrix across every cohort member;
 * token-mixing attention and all sparsity decisions (eager-prediction
 * masks, FFN-Reuse thresholds/caches) run per member segment against
 * that member's own state, so each member's rows — and its ExecStats
 * — are bit-identical to a solo run under a SparseExecutor /
 * DenseExecutor with the same options.
 */

#ifndef EXION_SPARSITY_COHORT_EXECUTOR_H_
#define EXION_SPARSITY_COHORT_EXECUTOR_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exion/sparsity/sparse_executor.h"

namespace exion
{

/**
 * Segment-aware block executor covering every ablation mode.
 *
 * Per-member state lives in slots. A serving layer attaches its own
 * per-request ExecContext / FfnReuseState to a slot (attachSlot) so
 * accounting survives the executor; unattached slots get
 * executor-owned state created on demand (convenient for tests and
 * pipeline-level use). Per-slot observers fire with that member's
 * masks and activations only.
 *
 * Quantized modes fall back to per-member execution for the dense
 * paths too: INT12 scales are calibrated per matrix, so a stacked
 * operand would change every member's quantisation grid.
 */
class CohortExecutor : public CohortBlockExecutor
{
  public:
    explicit CohortExecutor(const SparseExecutor::Options &opt);

    /**
     * Binds external per-request state to a slot. The references must
     * outlive the slot (until releaseSlot() or destruction).
     */
    void attachSlot(Index slot, ExecContext &ctx, FfnReuseState &ffn);

    /** Per-slot observers (created on first access). */
    ExecObservers &slotObservers(Index slot);

    /** Execution context of a slot (created on first access). */
    ExecContext &slotContext(Index slot);

    /** Drops a slot's bindings and owned state. */
    void releaseSlot(Index slot);

    void beginCohortStep(const std::vector<Index> &slots,
                         const std::vector<int> &iterations) override;

    Matrix attention(const TransformerBlock &blk,
                     const Matrix &x_norm) override;
    Matrix ffn(const TransformerBlock &blk, const Matrix &x_norm) override;

    /** Active options. */
    const SparseExecutor::Options &options() const { return opt_; }

    /** Cohort members in the current step. */
    Index cohortSize() const { return active_.size(); }

  private:
    struct Slot
    {
        ExecContext *ctx = nullptr;
        FfnReuseState *ffn = nullptr;
        std::unique_ptr<ExecContext> ownedCtx;
        std::unique_ptr<FfnReuseState> ownedFfn;
        ExecObservers observers;
    };

    /** The slot's state, created (executor-owned) on demand. */
    Slot &slot(Index id);

    /** Stats sink of the m-th active member. */
    ExecStats &memberStats(Index m);

    SparseExecutor::Options opt_;
    FfnReuse ffnReuse_;
    std::unordered_map<Index, Slot> slots_;
    std::vector<Index> active_;
    std::vector<int> iterations_;
};

} // namespace exion

#endif // EXION_SPARSITY_COHORT_EXECUTOR_H_
