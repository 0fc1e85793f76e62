/**
 * @file
 * Eager prediction of attention scores (Section II-B, Fig. 5b).
 *
 * The EPRE predicts the attention score per head with log-domain
 * arithmetic, then derives skip decisions:
 *  - per-row top-k selection zeroes non-top-k score entries;
 *  - rows whose (top1 - top2) exceeds q_th become one-hot and skip the
 *    real computation entirely;
 *  - key columns with no kept entry skip K projection; value columns
 *    needed by neither kept entries nor one-hot argmaxes skip V
 *    projection; one-hot rows skip Q projection.
 */

#ifndef EXION_SPARSITY_EAGER_PREDICTION_H_
#define EXION_SPARSITY_EAGER_PREDICTION_H_

#include <vector>

#include "exion/model/config.h"
#include "exion/sparsity/log_domain.h"
#include "exion/tensor/bitmask.h"

namespace exion
{

/**
 * Per-head skip decision derived from a predicted attention score.
 */
struct HeadDecision
{
    /** T x T keep mask over real score computation (1 = compute). */
    Bitmask2D keep;
    /** Per query row: row resolved by one-hot approximation. */
    std::vector<u8> oneHot;
    /** Argmax column for one-hot rows (undefined otherwise). */
    std::vector<Index> oneHotArg;

    /** Zero fraction of the keep mask (intra-iteration sparsity). */
    double scoreSparsity() const;

    /** Number of one-hot rows. */
    Index oneHotCount() const;
};

/**
 * Block-level projection-skip summary across heads.
 *
 * A projection row/token is needed if any head needs it.
 */
struct ProjectionNeeds
{
    std::vector<u8> qRowNeeded; //!< query tokens needing real Q
    std::vector<u8> kRowNeeded; //!< key tokens needing real K
    std::vector<u8> vRowNeeded; //!< value tokens needing real V

    /** Count of set entries in a needs vector. */
    static Index countNeeded(const std::vector<u8> &needs);
};

/**
 * Builds the skip decision for one head from its predicted score.
 *
 * @param predicted scaled predicted attention score (T x T)
 * @param ep        q_th / top-k configuration
 */
HeadDecision decideFromPrediction(const Matrix &predicted,
                                  const EpConfig &ep);

/**
 * Second EPRE stage of one head: requantises the head's LD Q/K
 * projection estimates (tokens x d_head each) to INT12 and runs the
 * LD QK^T, scaled by 1/sqrt(d_head).
 */
Matrix predictScoreFromEstimates(const Matrix &q_est, const Matrix &k_est,
                                 LodMode mode);

/**
 * Predicts one head's scaled attention score in the log domain.
 *
 * Runs LD projections of x through Wq/Wk head slices, then the LD
 * QK^T (predictScoreFromEstimates), mirroring the EPRE datapath.
 * Biases are skipped (the EPRE predicts from the dominant MMUL terms
 * only). The executor computes the same score for every head at once
 * from the block's cached weight images.
 *
 * @param x_q12   INT12-quantised block input
 * @param wq_head head slice of the Q weight (d x d_head), quantised
 * @param wk_head head slice of the K weight (d x d_head), quantised
 * @param mode    LOD depth
 */
Matrix predictHeadScore(const QuantMatrix &x_q12,
                        const QuantMatrix &wq_head,
                        const QuantMatrix &wk_head, LodMode mode);

/** Combines per-head decisions into block-level projection needs. */
ProjectionNeeds combineNeeds(const std::vector<HeadDecision> &heads,
                             Index tokens);

} // namespace exion

#endif // EXION_SPARSITY_EAGER_PREDICTION_H_
