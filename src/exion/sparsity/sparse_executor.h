/**
 * @file
 * The EXION execution strategy: FFN-Reuse + eager prediction.
 *
 * One executor covers all ablation points of the evaluation
 * (EXION_Base / _EP / _FFNR / _All) through its Options flags.
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
        /**
         * SIMD tier for the sparse hot-path kernels (EP compare
         * scans, EP's integer GEMM, kept-position attention,
         * FFN-Reuse loops) and every dense MMUL this executor issues
         * (dense fallbacks, FFN-Reuse dense iterations, EP's packed
         * projections and output projection). Scalar and Exact are
         * bit-identical.
         */
        SimdTier simd = defaultSimdTier();
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

    /** The FFN-Reuse engine (inspectable state). */
    FfnReuse &ffnReuse() { return ffnReuse_; }

    /**
     * Binds all per-request state in one call: the execution context
     * (iteration + stats) and the FFN-Reuse bundle.
     */
    void bindRequestState(ExecContext &ctx, FfnReuseState &ffn)
    {
        bindContext(ctx);
        ffnReuse_.bindState(ffn);
    }

    /** Active options. */
    const Options &options() const { return opt_; }

    /** SIMD tier used for kernels (Options::simd). */
    SimdTier simdTier() const override { return opt_.simd; }

  private:
    Matrix epAttention(const TransformerBlock &blk, const Matrix &x_norm);

    Options opt_;
    FfnReuse ffnReuse_;
};

/**
 * Eager-prediction attention on one request's activation rows.
 *
 * Stateless across iterations (all skip decisions derive from x_norm
 * alone), so cohort executors run it per member segment with that
 * member's stats/observers — bit-identical to a solo SparseExecutor.
 *
 * @param x_norm    normalised block input (tokens x dModel)
 * @param ep        q_th / top-k configuration
 * @param lod_mode  LOD depth of the score prediction
 * @param quantize  route real MMULs through INT12 operands
 */
Matrix epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                       const EpConfig &ep, LodMode lod_mode,
                       bool quantize, ExecStats &stats,
                       ExecObservers &observers,
                       SimdTier simd = defaultSimdTier());

} // namespace exion

#endif // EXION_SPARSITY_SPARSE_EXECUTOR_H_
