#include "exion/sparsity/eager_prediction.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "exion/tensor/simd_dispatch.h"

namespace exion
{

double
HeadDecision::scoreSparsity() const
{
    return keep.sparsity();
}

Index
HeadDecision::oneHotCount() const
{
    Index n = 0;
    for (u8 v : oneHot)
        n += v;
    return n;
}

Index
ProjectionNeeds::countNeeded(const std::vector<u8> &needs)
{
    Index n = 0;
    for (u8 v : needs)
        n += v;
    return n;
}

namespace
{

/** Order-preserving image of a non-NaN float; -0.0 sits just below +0.0. */
u32
orderKey(float f)
{
    const u32 b = std::bit_cast<u32>(f);
    return (b & 0x80000000u) != 0 ? ~b : b | 0x80000000u;
}

/** Inverse of orderKey. */
float
fromOrderKey(u32 key)
{
    return std::bit_cast<float>((key & 0x80000000u) != 0
                                    ? key & 0x7fffffffu
                                    : ~key);
}

/**
 * Smallest non-NaN value of row[0, n) (+inf if there is none): eight
 * independent (vector) lanes.
 */
float
rowMin(const float *row, Index n)
{
    float lane[8];
    std::fill(lane, lane + 8, std::numeric_limits<float>::infinity());
    Index c = 0;
    for (; c + 8 <= n; c += 8)
        for (int l = 0; l < 8; ++l)
            lane[l] = std::min(lane[l], row[c + l]);
    for (; c < n; ++c)
        lane[0] = std::min(lane[0], row[c]);
    return *std::min_element(lane, lane + 8);
}

/** Candidates few enough to rank one against another. */
constexpr Index kFewCandidates = 16;

/**
 * The keep_k-th largest value of row[0, n), 1 <= keep_k <= n, given
 * the row's largest non-NaN value top: the value std::nth_element with
 * std::greater puts at keep_k - 1 (-0.0 and +0.0 are one value to it),
 * found without copying or reordering the row. A row holding NaN gets
 * some value of the row or -inf, and the call still ends.
 *
 * Bisection over values. At least keep_k values are >= lo and fewer
 * than keep_k are >= hi, so the answer lies in [lo, hi); the values
 * there are the candidates, one mask word per 64 columns. Each step
 * counts with cmpGeMask64 how many candidates reach the midpoint (in
 * the words that still hold one) and keeps the half that holds the
 * answer. A step that drops no candidate twice running closes the
 * range onto the candidates' own minimum and maximum, so clustered
 * and tied values end quickly. The answer is lo once no float lies
 * between lo and hi, or is ranked among the candidates once at most
 * kFewCandidates are left.
 */
float
kthLargest(const SimdKernels &kr, const float *row, Index n, Index keep_k,
           float top, std::vector<u64> &masks)
{
    float lo = rowMin(row, n);
    float hi = top;
    if (!(lo <= hi))
        return hi; // every value is NaN
    if (keep_k == n)
        return lo;
    const Index words = (n + 63) / 64;
    const auto width = [&](Index w) {
        return std::min<Index>(64, n - 64 * w);
    };
    masks.resize(2 * words);
    u64 *cand = masks.data();
    u64 *reached = cand + words;
    Index above = 0; // values >= hi
    for (Index w = 0; w < words; ++w) {
        const u64 ge = kr.cmpGeMask64(row + 64 * w, hi, width(w));
        above += std::popcount(ge);
        cand[w] = ~ge & (~u64{0} >> (64 - width(w)));
    }
    if (above >= keep_k)
        return hi;
    Index left = n - above; // candidates
    int stalled = 0;
    while (left > kFewCandidates) {
        if (stalled == 2) {
            float cmin = hi;
            float cmax = lo;
            for (Index w = 0; w < words; ++w)
                for (u64 bits = cand[w]; bits != 0; bits &= bits - 1) {
                    const float v = row[64 * w + std::countr_zero(bits)];
                    cmin = std::min(cmin, v);
                    cmax = std::max(cmax, v);
                }
            if (!(cmin < cmax))
                return cmin;
            lo = cmin;
            hi = std::nextafter(cmax,
                                std::numeric_limits<float>::infinity());
            stalled = 0;
        }
        float mid =
            static_cast<float>(lo + (static_cast<double>(hi) - lo) / 2);
        if (!(lo < mid && mid < hi)) {
            // Infinite ends, or hi one or two floats above lo.
            const u32 klo = orderKey(lo);
            const u32 khi = orderKey(hi);
            if (khi - klo <= 1)
                return lo;
            mid = fromOrderKey(klo + (khi - klo) / 2);
        }
        Index reach = above; // values >= mid
        for (Index w = 0; w < words; ++w) {
            reached[w] = cand[w] == 0
                ? 0
                : kr.cmpGeMask64(row + 64 * w, mid, width(w)) & cand[w];
            reach += std::popcount(reached[w]);
        }
        const bool up = reach >= keep_k;
        for (Index w = 0; w < words; ++w)
            cand[w] = up ? reached[w] : cand[w] & ~reached[w];
        const Index was = left;
        if (up) {
            lo = mid;
            left = reach - above;
        } else {
            hi = mid;
            left -= reach - above;
            above = reach;
        }
        stalled = left == was ? stalled + 1 : 0;
    }
    // The answer is the candidate v with fewer than `rank` candidates
    // above it and at least `rank` at or above it.
    float few[kFewCandidates];
    Index m = 0;
    for (Index w = 0; w < words; ++w)
        for (u64 bits = cand[w]; bits != 0; bits &= bits - 1)
            few[m++] = row[64 * w + std::countr_zero(bits)];
    const Index rank = keep_k - above;
    for (Index i = 0; i < m; ++i) {
        Index gt = 0;
        Index ge = 0;
        for (Index j = 0; j < m; ++j) {
            gt += few[j] > few[i];
            ge += few[j] >= few[i];
        }
        if (gt < rank && rank <= ge)
            return few[i];
    }
    return lo; // only a NaN candidate leaves the rank unheld
}

} // namespace

HeadDecision
decideFromPrediction(const Matrix &predicted, const EpConfig &ep)
{
    const SimdKernels &kr = activeKernels();
    const Index t_q = predicted.rows();
    const Index t_k = predicted.cols();
    EXION_ASSERT(t_k > 0, "empty predicted score");

    HeadDecision out;
    out.keep = Bitmask2D(t_q, t_k);
    out.oneHot.assign(t_q, 0);
    out.oneHotArg.assign(t_q, 0);

    // ceil(topK * t_k) kept per row, at least one and at most the row
    // (a NaN topK keeps one).
    const double want = std::ceil(ep.topK * static_cast<double>(t_k));
    Index keep_k = 1;
    if (want >= static_cast<double>(t_k))
        keep_k = t_k;
    else if (want > 1.0)
        keep_k = static_cast<Index>(want);

    std::vector<u64> masks;
    for (Index r = 0; r < t_q; ++r) {
        const float *src = predicted.rowPtr(r);

        // Top-1 / top-2 for the one-hot test.
        float top1 = -std::numeric_limits<float>::infinity();
        float top2 = -std::numeric_limits<float>::infinity();
        Index arg1 = 0;
        for (Index c = 0; c < t_k; ++c) {
            const float v = src[c];
            if (v > top1) {
                top2 = top1;
                top1 = v;
                arg1 = c;
            } else if (v > top2) {
                top2 = v;
            }
        }

        if (t_k > 1 && top1 - top2 > static_cast<float>(ep.qTh)) {
            // Dominant element already decided: whole row one-hot.
            out.oneHot[r] = 1;
            out.oneHotArg[r] = arg1;
            continue;
        }

        // Top-k selection: values outside the top k are zeroed.
        const float threshold = kthLargest(kr, src, t_k, keep_k, top1, masks);
        // Compare 64 columns per kernel call; cap at keep_k kept
        // entries (ties at the threshold keep the lowest columns,
        // exactly the per-bit scan's order).
        Index kept = 0;
        for (Index c0 = 0; c0 < t_k && kept < keep_k; c0 += 64) {
            const Index nb = std::min<Index>(64, t_k - c0);
            u64 bits = kr.cmpGeMask64(src + c0, threshold, nb);
            const Index ones =
                static_cast<Index>(std::popcount(bits));
            if (kept + ones > keep_k) {
                u64 trimmed = 0;
                for (Index m = kept; m < keep_k; ++m) {
                    trimmed |= bits & (~bits + 1);
                    bits &= bits - 1;
                }
                bits = trimmed;
                kept = keep_k;
            } else {
                kept += ones;
            }
            out.keep.writeRowBits(r, c0, bits, nb);
        }
    }
    return out;
}

Matrix
predictScoreFromEstimates(const Matrix &q_est, const Matrix &k_est,
                          LodMode mode)
{
    EXION_ASSERT(q_est.cols() == k_est.cols(), "head width mismatch");
    // Requantise for the second-level LD MMUL, as the EPRE feeds its
    // own outputs back.
    const QuantMatrix q12 = QuantMatrix::fromFloat(q_est, IntWidth::Int12);
    const QuantMatrix k12 = QuantMatrix::fromFloat(k_est, IntWidth::Int12);

    Matrix scores = ldMatmulTransposed(q12, k12, mode);
    const float inv_sqrt =
        1.0f / std::sqrt(static_cast<float>(q_est.cols()));
    for (Index i = 0; i < scores.size(); ++i)
        scores.data()[i] *= inv_sqrt;
    return scores;
}

Matrix
predictHeadScore(const QuantMatrix &x_q12, const QuantMatrix &wq_head,
                 const QuantMatrix &wk_head, LodMode mode)
{
    EXION_ASSERT(wq_head.cols() == wk_head.cols(),
                 "head width mismatch");
    return predictScoreFromEstimates(
        ldMatmul(x_q12, wq_head, mode), ldMatmul(x_q12, wk_head, mode),
        mode);
}

ProjectionNeeds
headNeeds(const HeadDecision &head)
{
    EXION_ASSERT(head.oneHot.size() == head.keep.rows()
                     && head.oneHotArg.size() == head.keep.rows(),
                 "head decision shape mismatch");
    ProjectionNeeds needs;
    needs.qRowNeeded.assign(head.keep.rows(), 0);
    needs.kRowNeeded.assign(head.keep.cols(), 0);
    needs.vRowNeeded.assign(head.keep.cols(), 0);
    for (Index r = 0; r < head.keep.rows(); ++r) {
        if (head.oneHot[r]) {
            // Output copied from V[argmax]; no Q row needed.
            needs.vRowNeeded[head.oneHotArg[r]] = 1;
            continue;
        }
        needs.qRowNeeded[r] = 1;
        head.keep.forEachSetBitInRow(r, [&](Index c) {
            needs.kRowNeeded[c] = 1;
            needs.vRowNeeded[c] = 1;
        });
    }
    return needs;
}

ProjectionNeeds
combineNeeds(const std::vector<HeadDecision> &heads, Index tokens)
{
    ProjectionNeeds needs;
    needs.qRowNeeded.assign(tokens, 0);
    needs.kRowNeeded.assign(tokens, 0);
    needs.vRowNeeded.assign(tokens, 0);

    for (const auto &head : heads) {
        EXION_ASSERT(head.keep.rows() == tokens
                         && head.keep.cols() == tokens,
                     "head decision shape mismatch");
        const ProjectionNeeds one = headNeeds(head);
        for (Index r = 0; r < tokens; ++r) {
            needs.qRowNeeded[r] |= one.qRowNeeded[r];
            needs.kRowNeeded[r] |= one.kRowNeeded[r];
            needs.vRowNeeded[r] |= one.vRowNeeded[r];
        }
    }
    return needs;
}

} // namespace exion
