#include "exion/sparsity/eager_prediction.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "exion/tensor/select.h"
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
        const float threshold =
            kthLargest(src, t_k, keep_k, RankBy::Value, masks);
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

namespace
{

/** Int12 scale of a block read in place (rows at its row stride). */
double
int12Scale(const Matrix &m)
{
    return chooseQuantParams(m.rowPtr(0), m.rows(), m.cols(), m.rowStride(),
                             IntWidth::Int12)
        .scale;
}

} // namespace

const Matrix &
predictScoreInto(const Matrix &q_est, const Matrix &k_est, LodMode mode,
                 float temp, ScoreScratch &scratch)
{
    EXION_ASSERT(q_est.cols() == k_est.cols(), "head width mismatch");
    const SimdKernels &kr = activeKernels();
    const Index t_q = q_est.rows();
    const Index t_k = k_est.rows();
    const Index dh = q_est.cols();
    const i32 q_max = intWidthMax(IntWidth::Int12);
    // Requantise for the second-level LD MMUL, as the EPRE feeds its
    // own outputs back.
    const double q_scale = int12Scale(q_est);
    const double k_scale = int12Scale(k_est);
    scratch.qImg.resize(t_q * dh);
    for (Index r = 0; r < t_q; ++r)
        kr.quantizeF32(q_est.rowPtr(r), dh, q_scale, q_max, mode,
                       scratch.qImg.data() + r * dh);
    scratch.kRow.resize(dh);
    scratch.ktImg.resize(dh * t_k);
    for (Index r = 0; r < t_k; ++r) {
        kr.quantizeF32(k_est.rowPtr(r), dh, k_scale, q_max, mode,
                       scratch.kRow.data());
        for (Index c = 0; c < dh; ++c)
            scratch.ktImg[c * t_k + r] = scratch.kRow[c];
    }
    scratch.sums.resize(t_q * t_k);
    kr.gemmInt12(scratch.qImg.data(), dh, scratch.ktImg.data(), t_k,
                 scratch.sums.data(), t_k, t_q, dh, t_k);

    if (scratch.scores.rows() != t_q || scratch.scores.cols() != t_k)
        scratch.scores = Matrix(t_q, t_k);
    const double out_scale = q_scale * k_scale;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
    for (Index r = 0; r < t_q; ++r) {
        float *row = scratch.scores.rowPtr(r);
        kr.dequantizeI64(scratch.sums.data() + r * t_k, t_k, out_scale, row);
        for (Index c = 0; c < t_k; ++c)
            row[c] = row[c] * inv_sqrt * temp;
    }
    return scratch.scores;
}

Matrix
predictScoreFromEstimates(const Matrix &q_est, const Matrix &k_est,
                          LodMode mode)
{
    ScoreScratch scratch;
    predictScoreInto(q_est, k_est, mode, 1.0f, scratch);
    return std::move(scratch.scores);
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
