/**
 * @file
 * Cohort execution strategy: one executor stepping several requests'
 * stacked latents through each block, with one ExecContext per
 * request.
 *
 * The dense sub-layers are the shared ones (denseAttentionImpl,
 * denseFfnImpl) run over the whole stack: each projection and FFN
 * linear is one tall MMUL, amortising the traversal of each weight
 * matrix across every cohort member, and token mixing runs per member
 * segment. Eager prediction and FFN-Reuse run member by member against
 * that member's context — on the unsliced input when the cohort has
 * one member. So each member's rows, and its ExecStats, are
 * bit-identical to a solo SparseExecutor run with the same options.
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
 * Each member slot runs against one ExecContext. A serving layer
 * attaches a request's own context to its slot (attachSlot) so the
 * request's state outlives the executor; an unattached slot gets an
 * executor-owned context on first use (convenient for tests and
 * pipeline-level use).
 *
 * Float only: INT12 scales are calibrated per matrix, so a stacked
 * operand would change every member's quantisation grid. Quantized
 * runs go through a solo SparseExecutor / DenseExecutor.
 */
class CohortExecutor : public CohortBlockExecutor
{
  public:
    /** @throws std::invalid_argument when opt.quantize is set */
    explicit CohortExecutor(const SparseExecutor::Options &opt);

    /**
     * Binds a request's own context to a slot. It must outlive the
     * slot (until releaseSlot() or destruction).
     */
    void attachSlot(Index slot, ExecContext &ctx);

    /** Execution context of a slot (created on first access). */
    ExecContext &slotContext(Index slot);

    /** Drops a slot's binding and owned context. */
    void releaseSlot(Index slot);

    void beginCohortStep(const std::vector<Index> &slots,
                         const std::vector<int> &iterations) override;

    Matrix attention(const TransformerBlock &blk,
                     const Matrix &x_norm) override;
    Matrix ffn(const TransformerBlock &blk, const Matrix &x_norm) override;

  private:
    struct Slot
    {
        ExecContext *ctx = nullptr;
        std::unique_ptr<ExecContext> owned;
    };

    SparseExecutor::Options opt_;
    FfnReuse ffnReuse_;
    std::unordered_map<Index, Slot> slots_;
    /** The current step's member contexts, in stack order. */
    std::vector<ExecContext *> active_;
};

} // namespace exion

#endif // EXION_SPARSITY_COHORT_EXECUTOR_H_
