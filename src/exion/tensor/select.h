/**
 * @file
 * Sort-free selection over a float row: the k-th largest value, or
 * the k-th largest magnitude, found by counting instead of sorting.
 * Eager prediction's top-k threshold and FFN-Reuse's sparsity
 * quantile both run here.
 */

#ifndef EXION_TENSOR_SELECT_H_
#define EXION_TENSOR_SELECT_H_

#include <vector>

#include "exion/common/types.h"

namespace exion
{

/** What kthLargest ranks a row's entries by. */
enum class RankBy
{
    Value,     //!< the values (-0.0 and +0.0 are one value)
    Magnitude, //!< their magnitudes |v|
};

/**
 * The keep_k-th largest of row[0, n) ranked by `by`, 1 <= keep_k <= n:
 * the value std::nth_element with std::greater puts at keep_k - 1 in a
 * copy of the row (of its magnitudes under RankBy::Magnitude), found
 * without copying or reordering the row. Under RankBy::Value a zero
 * answer may carry either sign. A row holding NaN gets some value of
 * the row or -inf, and the call still ends.
 *
 * Bisection over values. At least keep_k entries reach lo and fewer
 * than keep_k reach hi, so the answer lies in [lo, hi); the entries
 * there are the candidates, one mask word per 64 entries. Each step
 * counts, with the active table's cmpGeMask64 (values) or
 * absGreaterMask64 (magnitudes), how many candidates reach the
 * midpoint, in the words that still hold one, and keeps the half that
 * holds the answer. A step that drops no candidate twice running
 * closes the range onto the candidates' own minimum and maximum, so
 * clustered and tied values end quickly. The answer is lo once no
 * float lies between lo and hi, or is ranked among the candidates once
 * at most 16 are left.
 *
 * scratch holds the candidate words (two per 64 entries); callers that
 * select row after row pass the same vector to keep its allocation.
 */
float kthLargest(const float *row, Index n, Index keep_k, RankBy by,
                 std::vector<u64> &scratch);

} // namespace exion

#endif // EXION_TENSOR_SELECT_H_
