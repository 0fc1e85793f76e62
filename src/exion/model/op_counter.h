/**
 * @file
 * Analytic per-iteration operation counting (Fig. 4).
 *
 * MACs are counted as 2 ops. Transformer-block ops split into the
 * paper's categories: QKV projection, attention computation (scores,
 * attention x V, output projection), and FFN layers. Everything else —
 * ResBlocks (as 3x3 convs), in/out projections, resampling — lands in
 * "etc".
 */

#ifndef EXION_MODEL_OP_COUNTER_H_
#define EXION_MODEL_OP_COUNTER_H_

#include "exion/model/config.h"

namespace exion
{

/**
 * MACs-as-2-ops for an (m x k) * (k x n) MMUL — the paper's TOPS
 * convention. The single accounting formula of the op counter, the
 * performance model and every executor path (dense, EP, FFN-Reuse,
 * cohort), so their counts stay comparable element for element.
 */
constexpr OpCount
mmulOps(Index m, Index k, Index n)
{
    return static_cast<OpCount>(2) * m * k * n;
}

/** Per-iteration op counts by category. */
struct OpBreakdown
{
    OpCount qkv = 0;  //!< Q/K/V projections
    OpCount attn = 0; //!< QK^T, AV, output projection
    OpCount ffn = 0;  //!< both FFN linears
    OpCount etc = 0;  //!< ResBlocks, in/out proj, resampling

    /** Sum of all categories. */
    OpCount total() const { return qkv + attn + ffn + etc; }

    /** Fraction of ops inside transformer blocks. */
    double transformerShare() const;

    /** FFN fraction within the transformer block. */
    double ffnShareOfTransformer() const;
};

/** Op counts for one denoising iteration of the model. */
OpBreakdown countOpsPerIteration(const ModelConfig &cfg);

/** Op counts for one transformer block at the given stage shape. */
OpBreakdown countBlockOps(const StageConfig &stage, bool geglu);

} // namespace exion

#endif // EXION_MODEL_OP_COUNTER_H_
