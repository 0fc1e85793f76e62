/**
 * @file
 * The EXION execution strategy: FFN-Reuse + eager prediction.
 *
 * One executor covers all ablation points of the evaluation
 * (EXION_Base / _EP / _FFNR / _All) through its Options flags. Its
 * sparse hot paths and dense MMULs run on the process's one kernel
 * table (simd_dispatch.h), so the Options hold no kernel choice. It
 * runs one stream against its own ExecContext: the dense sub-layers as
 * a stack of one, FFN-Reuse against the context's block state.
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
 * Eager-prediction attention on one request's activation rows.
 *
 * Stateless across iterations (all skip decisions derive from x_norm
 * alone), so cohort executors run it per member segment with that
 * member's stats — bit-identical to a solo SparseExecutor.
 *
 * Each head's d_head columns of Q, K and V are projected only for the
 * rows that head needs (headNeeds): Q for its rows that are not
 * one-hot, K for its kept columns, V for those plus its one-hot
 * argmaxes. One GEMM per head and projection runs over the gathered
 * rows against W's column window (x in place when the head needs
 * every row), so each element it produces is the dense product's.
 * Under quantize, the rows any head needs are quantised together
 * with one Int12 scale and run through one quantized product against
 * the whole of W, quantised where it is used; each head copies its
 * rows and columns out of it.
 * stats' qRowsSkipped, kColsSkipped and vColsSkipped count the
 * skipped (row, head) pairs, and qkvOpsExecuted the per-head MACs.
 *
 * @param x_norm    normalised block input (tokens x dModel)
 * @param ep        q_th / top-k configuration
 * @param lod_mode  LOD depth of the score prediction
 * @param quantize  route real MMULs through INT12 operands
 */
Matrix epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                       const EpConfig &ep, LodMode lod_mode,
                       bool quantize, ExecStats &stats,
                       const ExecObservers &observers);

} // namespace exion

#endif // EXION_SPARSITY_SPARSE_EXECUTOR_H_
