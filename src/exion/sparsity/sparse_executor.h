/**
 * @file
 * The EXION execution strategy: FFN-Reuse + eager prediction.
 *
 * One executor covers all ablation points of the evaluation
 * (EXION_Base / _EP / _FFNR / _All) through its Options flags. Its
 * sparse hot paths and dense MMULs run on the process's one kernel
 * table (simd_dispatch.h), so the Options hold no kernel choice.
 *
 * The same executor runs solo and cohort steps (BlockExecutor's
 * members), and every sub-layer runs over the whole stack: each
 * product whose rows are independent (projections, FFN linears, eager
 * prediction's integer GEMMs, and FFN-Reuse's FFN-1 and partial sums
 * at a dense iteration) is one tall MMUL over every member's rows, and
 * token mixing runs per member segment. A cohort steps in lockstep,
 * so its members calibrate or reuse FFN-Reuse's state together. Only
 * what a request calibrates stays per member: its Int12 scale, its
 * per-head predictions and decisions, and FFN-Reuse's quantile, mask
 * and reuse iterations. So each member's rows, and its ExecStats, are
 * bit-identical to a solo run.
 */

#ifndef EXION_SPARSITY_SPARSE_EXECUTOR_H_
#define EXION_SPARSITY_SPARSE_EXECUTOR_H_

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/sparsity/ffn_reuse.h"

namespace exion
{

/**
 * Block executor applying EXION's software-level optimisations.
 */
class SparseExecutor : public BlockExecutor
{
  public:
    /** Feature selection mirroring the paper's ablations. */
    struct Options
    {
        bool useFfnReuse = true;
        bool useEp = true;
        bool quantize = false;
        LodMode lodMode = LodMode::TwoStep;
        FfnReuseConfig ffnReuse{};
        EpConfig ep{};
    };

    explicit SparseExecutor(const Options &opt);

    /** Options derived from a model config (Table I knobs). */
    static Options fromConfig(const ModelConfig &cfg,
                              bool use_ffn_reuse, bool use_ep,
                              bool quantize,
                              LodMode mode = LodMode::TwoStep);

    Matrix attention(const TransformerBlock &blk,
                     const Matrix &x_norm) override;
    Matrix ffn(const TransformerBlock &blk, const Matrix &x_norm) override;

  private:
    Options opt_;
    FfnReuse ffnReuse_;
};

/**
 * Eager-prediction attention over a stack of members: x_norm holds
 * members.size() equal row segments, one per member in stack order.
 *
 * Stateless across iterations (all skip decisions derive from x_norm
 * alone). Each member's rows are quantised to Int12 with that
 * member's own max-|v| scale and LOD-transformed in the same pass
 * (the quantizeF32 kernel) into one stacked image; one integer GEMM
 * per projection (Wq's and Wk's cached images) runs over every
 * member's rows, and each member's segment dequantises with its own
 * scale (ldImageMatmul, through dequantizeI64). Each member then
 * predicts, decides and counts on its own rows, per head:
 * predictScoreInto reads the head's Q/K estimate block in place from
 * the stacked estimates and reuses one scratch for every member and
 * head of the call (no per-head copy, QuantMatrix or transposed
 * product of its own). onScoreMask fires member-major, head-minor.
 *
 * Each head's d_head columns of Q, K and V are projected only for the
 * rows that head needs (headNeeds): Q for its rows that are not
 * one-hot, K for its kept columns, V for those plus its one-hot
 * argmaxes. One GEMM per head and projection runs over every member's
 * needed rows (stacked row m * t + r) against W's column window (x in
 * place when the head needs every row), so each element it produces
 * is the dense product's. The kept scores run per member segment and
 * the output projection once over the stack. So every member's rows
 * and ExecStats equal a stack-of-one call on its rows bit for bit.
 * Under quantize (a stack of one), the rows any head needs are
 * quantised together with one Int12 scale and run through one
 * quantized product against the whole of W, quantised where it is
 * used; each head copies its rows and columns out of it.
 * Each member's qRowsSkipped, kColsSkipped and vColsSkipped count its
 * skipped (row, head) pairs, and qkvOpsExecuted its per-head MACs.
 *
 * @param x_norm    normalised block input (members x tokens rows,
 *                  dModel wide)
 * @param ep        q_th / top-k configuration
 * @param lod_mode  LOD depth of the score prediction
 * @param quantize  route real MMULs through INT12 operands
 * @param members   the stack's contexts; each one's stats take its
 *                  own accounting
 */
Matrix epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                       const EpConfig &ep, LodMode lod_mode,
                       bool quantize, Members members,
                       const ExecObservers &observers);

} // namespace exion

#endif // EXION_SPARSITY_SPARSE_EXECUTOR_H_
