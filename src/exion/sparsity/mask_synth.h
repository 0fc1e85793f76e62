/**
 * @file
 * Calibrated synthetic output-sparsity masks for full-scale accounting.
 *
 * Paper-size workloads are too large to run functionally; ConMerge and
 * the cycle model instead consume synthetic bitmasks whose structure is
 * calibrated to the paper's reported statistics and to measurements of
 * our reduced-scale functional runs:
 *
 *  - FFN recompute masks are column-structured: a fraction of hidden
 *    units is dead (fully reusable, enabling matrix-level condensing),
 *    a small fraction is hot (recomputed for almost every token), and
 *    the rest fire with a low background probability.
 *  - Attention-score keep masks are row-structured: one-hot rows are
 *    fully skipped, other rows keep exactly ceil(k*T) entries drawn
 *    with a Zipf column-popularity bias (important tokens attract many
 *    queries; unpopular key columns enable K/V projection skips).
 */

#ifndef EXION_SPARSITY_MASK_SYNTH_H_
#define EXION_SPARSITY_MASK_SYNTH_H_

#include "exion/common/rng.h"
#include "exion/model/config.h"
#include "exion/tensor/bitmask.h"

namespace exion
{

/** Column-mixture parameters of an FFN recompute mask. */
struct FfnMaskParams
{
    double density = 0.05;         //!< overall 1-bit fraction (1 - s)
    double deadColFraction = 0.5;  //!< columns entirely reusable
    double hotColFraction = 0.02;  //!< columns almost always computed
    double hotColDensity = 0.85;   //!< 1-bit rate inside hot columns

    /** Background column density solving the overall target. */
    double backgroundDensity() const;
};

/** Row/column structure parameters of a score keep mask. */
struct ScoreMaskParams
{
    double keepRatio = 0.5;      //!< top-k keep fraction per row
    double oneHotFraction = 0.1; //!< rows resolved by one-hot skip
    double zipfAlpha = 0.8;      //!< column-popularity skew
    /**
     * Key columns no query ever attends (padding/background tokens);
     * these are what matrix-level condensing removes from K/V work.
     */
    double coldColFraction = 0.0;
};

/**
 * Calibrated FFN mask parameters for a benchmark; the comment in
 * mask_synth.cc names the figures they are fitted to.
 */
FfnMaskParams ffnMaskParams(Benchmark b);

/** Calibrated score mask parameters for a benchmark. */
ScoreMaskParams scoreMaskParams(Benchmark b);

/** Draws a column-structured FFN recompute mask. */
Bitmask2D synthFfnMask(Index rows, Index cols, const FfnMaskParams &p,
                       Rng &rng);

/** Draws a row-structured attention-score keep mask. */
Bitmask2D synthScoreMask(Index rows, Index cols,
                         const ScoreMaskParams &p, Rng &rng);

} // namespace exion

#endif // EXION_SPARSITY_MASK_SYNTH_H_
