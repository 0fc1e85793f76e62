/**
 * @file
 * The old name of the cohort executor. SparseExecutor runs solo and
 * cohort steps alike (BlockExecutor::beginCohortStep), so nothing in
 * the library needs this header. It stays only because
 * bench/exion_bench/replay.cc includes it and subclasses the name; it
 * goes when that file names SparseExecutor.
 */

#ifndef EXION_SPARSITY_COHORT_EXECUTOR_H_
#define EXION_SPARSITY_COHORT_EXECUTOR_H_

#include "exion/sparsity/sparse_executor.h"

namespace exion
{

using CohortExecutor = SparseExecutor;

} // namespace exion

#endif // EXION_SPARSITY_COHORT_EXECUTOR_H_
