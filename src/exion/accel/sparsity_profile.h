/**
 * @file
 * Per-benchmark sparsity profiles for full-scale accounting.
 *
 * The reduced-scale functional runs measure what the optimisations
 * actually achieve (bench_table1 prints the live numbers); these
 * profiles carry the calibrated equivalents to paper-scale accounting
 * where full numerics are infeasible. Sources: Table I (sparsity
 * levels, N, q_th, k), Section II-B (projection skip averages), and
 * the mask-structure calibration of ffnMaskParams() and
 * scoreMaskParams(), whose comments in mask_synth.cc name the figures
 * each parameter is fitted to.
 */

#ifndef EXION_ACCEL_SPARSITY_PROFILE_H_
#define EXION_ACCEL_SPARSITY_PROFILE_H_

#include "exion/model/config.h"
#include "exion/sparsity/mask_synth.h"

namespace exion
{

/**
 * Everything the performance model needs to know about a workload's
 * sparsity behaviour at full scale.
 */
struct SparsityProfile
{
    /** Inter-iteration recompute-mask structure (1st FFN output). */
    FfnMaskParams ffnMask;
    /** Intra-iteration attention-score keep structure. */
    ScoreMaskParams scoreMask;
    /** Fraction of query rows skipped (one-hot rows, union of heads). */
    double qRowSkip = 0.0;
    /** Fraction of key tokens whose K projection is skipped. */
    double kColSkip = 0.0;
    /** Fraction of value tokens whose V projection is skipped. */
    double vColSkip = 0.0;
};

/** Calibrated profile of a benchmark. */
SparsityProfile profileFor(Benchmark b);

} // namespace exion

#endif // EXION_ACCEL_SPARSITY_PROFILE_H_
