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
 *
 * The needs are per head (headNeeds): the executor projects each
 * head's d_head columns of Q, K and V only for the rows that head
 * needs, as the SDUE does. combineNeeds unions them across heads.
 *
 * Every head's score runs one routine, predictScoreInto, which reads
 * the head's Q/K estimate block in place and reuses one scratch. The
 * executor calls it per member and head on the stacked estimates;
 * predictScoreFromEstimates and predictHeadScore, which the oracles
 * and benches call, run it too.
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
 * Projection rows one head needs (headNeeds), or that any head needs
 * (combineNeeds), one flag per token.
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
 * A row whose top-1 beats its top-2 by more than q_th goes one-hot.
 * Every other row keeps ceil(topK * T) entries (at least one, at most
 * T): the first columns, in column order, whose score is at least the
 * row's keep_k-th largest. That threshold is found exactly, without
 * copying or sorting the row (kthLargest in tensor/select.h, the
 * selection FFN-Reuse's quantile also runs). A row holding NaN keeps
 * at most keep_k entries, which ones unspecified.
 *
 * @param predicted scaled predicted attention score (T x T)
 * @param ep        q_th / top-k configuration
 */
HeadDecision decideFromPrediction(const Matrix &predicted,
                                  const EpConfig &ep);

/**
 * The buffers predictScoreInto writes, reused from head to head: the
 * Int12 LOD image of the Q block, one K row's image and the K block's
 * image transposed (the integer GEMM streams the rows of its right
 * operand), the exact integer scores and the predicted block. The
 * executor keeps one per prediction call and never shares it between
 * threads.
 */
struct ScoreScratch
{
    std::vector<i32> qImg;  //!< t_q x d_head, row-major
    std::vector<i32> kRow;  //!< d_head: one K row's image
    std::vector<i32> ktImg; //!< d_head x t_k: K's image, transposed
    std::vector<i64> sums;  //!< t_q x t_k integer scores
    Matrix scores;          //!< t_q x t_k predicted block (the result)
};

/**
 * Second EPRE stage of one head, in place: requantises the head's LD
 * Q and K projection estimates (t_q x d_head and t_k x d_head; either
 * may be a strided view, such as one member's rows and one head's
 * columns of the stacked estimates) to Int12, each with its own
 * max-|v| scale, and LOD-transforms them in the same pass
 * (quantizeF32). One gemmInt12 runs the LD QK^T, and each score is
 * dequantised (dequantizeI64), multiplied by 1/sqrt(d_head) and then
 * by temp, each product rounded to float in that order. Allocates
 * only when scratch's buffers are too small for this head, or its
 * predicted block has another shape.
 *
 * @return scratch.scores, valid until scratch is used again
 */
const Matrix &predictScoreInto(const Matrix &q_est, const Matrix &k_est,
                               LodMode mode, float temp,
                               ScoreScratch &scratch);

/**
 * predictScoreInto with a temperature of 1, into a scratch of its own:
 * the LD QK^T of one head's requantised Q/K estimates, scaled by
 * 1/sqrt(d_head).
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

/**
 * The projection rows one head needs: Q for its rows that are not
 * one-hot, K for the columns those rows keep, V for the same columns
 * plus every one-hot row's argmax.
 */
ProjectionNeeds headNeeds(const HeadDecision &head);

/**
 * Block-level needs: a token is needed by a projection if any head
 * needs it (the union of headNeeds over heads).
 */
ProjectionNeeds combineNeeds(const std::vector<HeadDecision> &heads,
                             Index tokens);

} // namespace exion

#endif // EXION_SPARSITY_EAGER_PREDICTION_H_
