#include "exion/sparsity/sparse_executor.h"

#include <cmath>
#include <limits>

#include "exion/tensor/ops.h"

namespace exion
{

SparseExecutor::SparseExecutor(const Options &opt)
    : opt_(opt),
      ffnReuse_(opt.ffnReuse, opt.quantize, opt.simd)
{
}

SparseExecutor::Options
SparseExecutor::fromConfig(const ModelConfig &cfg, bool use_ffn_reuse,
                           bool use_ep, bool quantize, LodMode mode)
{
    Options opt;
    opt.useFfnReuse = use_ffn_reuse;
    opt.useEp = use_ep;
    opt.quantize = quantize;
    opt.lodMode = mode;
    opt.ffnReuse = cfg.ffnReuse;
    opt.ep = cfg.ep;
    return opt;
}

Matrix
SparseExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    if (!opt_.useFfnReuse)
        return denseFfnImpl(blk, x_norm, opt_.quantize, stats(),
                            observers, opt_.simd);
    return ffnReuse_.run(blk, x_norm, iteration(), stats(), observers);
}

Matrix
SparseExecutor::attention(const TransformerBlock &blk,
                          const Matrix &x_norm)
{
    if (!opt_.useEp)
        return denseAttentionImpl(blk, x_norm, opt_.quantize, stats(),
                                  observers, opt_.simd);
    return epAttention(blk, x_norm);
}

namespace
{

/** Row-masked projection: rows with needed == 0 stay zero. */
Matrix
projectNeededRows(const Matrix &x, const Linear &proj,
                  const std::vector<u8> &needed, bool quantize,
                  SimdTier simd)
{
    Matrix out(x.rows(), proj.outDim());
    // Collect needed rows, project densely, scatter back. This keeps
    // the quantisation behaviour identical to the dense path.
    Index n_needed = 0;
    for (u8 v : needed)
        n_needed += v;
    if (n_needed == 0)
        return out;

    Matrix packed(n_needed, x.cols());
    Index w = 0;
    for (Index r = 0; r < x.rows(); ++r) {
        if (!needed[r])
            continue;
        for (Index c = 0; c < x.cols(); ++c)
            packed(w, c) = x(r, c);
        ++w;
    }
    Matrix projected = execWeightMatmul(packed, proj, quantize, simd);
    addRowVector(projected, proj.bias());
    w = 0;
    for (Index r = 0; r < x.rows(); ++r) {
        if (!needed[r])
            continue;
        for (Index c = 0; c < out.cols(); ++c)
            out(r, c) = projected(w, c);
        ++w;
    }
    return out;
}

} // namespace

Matrix
SparseExecutor::epAttention(const TransformerBlock &blk,
                            const Matrix &x_norm)
{
    return epAttentionImpl(blk, x_norm, opt_.ep, opt_.lodMode,
                           opt_.quantize, stats(), observers,
                           opt_.simd);
}

Matrix
epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                const EpConfig &ep, LodMode lod_mode, bool quantize,
                ExecStats &stats, ExecObservers &observers,
                SimdTier simd)
{
    const SimdKernels &kr = simdKernels(simd);
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const Index n_heads = blk.nHeads();
    const float inv_sqrt = static_cast<float>(blk.scoreTemp())
        / std::sqrt(static_cast<float>(dh));

    // --- EPRE: predicted attention scores and skip decisions. ---
    // The input is transformed once; the weight images come cached
    // from the block, and one integer GEMM per projection covers
    // every head — per head exactly predictHeadScore's projections.
    const QuantMatrix x_img = lodTransform(
        QuantMatrix::fromFloat(x_norm, IntWidth::Int12), lod_mode);
    const EpWeightImages &images = blk.epWeightImages(lod_mode);
    const Matrix q_est = ldImageMatmul(x_img, images.wq, simd);
    const Matrix k_est = ldImageMatmul(x_img, images.wk, simd);
    std::vector<HeadDecision> decisions;
    decisions.reserve(n_heads);
    for (Index h = 0; h < n_heads; ++h) {
        Matrix predicted = predictScoreFromEstimates(
            sliceCols(q_est, h * dh, dh), sliceCols(k_est, h * dh, dh),
            lod_mode, simd);
        for (Index i = 0; i < predicted.size(); ++i)
            predicted.data()[i] *=
                static_cast<float>(blk.scoreTemp());
        HeadDecision dec = decideFromPrediction(predicted, ep, simd);
        if (observers.onScoreMask)
            observers.onScoreMask(blk.id(), static_cast<int>(h),
                                  dec.keep);
        stats.scoreSparsitySum += dec.scoreSparsity();
        ++stats.scoreSparsitySamples;
        decisions.push_back(std::move(dec));
    }
    const ProjectionNeeds needs = combineNeeds(decisions, t);

    const Index nq = ProjectionNeeds::countNeeded(needs.qRowNeeded);
    const Index nk = ProjectionNeeds::countNeeded(needs.kRowNeeded);
    const Index nv = ProjectionNeeds::countNeeded(needs.vRowNeeded);
    stats.qRowsTotal += t;
    stats.kColsTotal += t;
    stats.vColsTotal += t;
    stats.qRowsSkipped += t - nq;
    stats.kColsSkipped += t - nk;
    stats.vColsSkipped += t - nv;

    // --- Real projections, only for needed tokens (SDUE, INT12). ---
    const Matrix q = projectNeededRows(x_norm, blk.wq(),
                                       needs.qRowNeeded, quantize, simd);
    const Matrix k = projectNeededRows(x_norm, blk.wk(),
                                       needs.kRowNeeded, quantize, simd);
    const Matrix v = projectNeededRows(x_norm, blk.wv(),
                                       needs.vRowNeeded, quantize, simd);
    stats.qkvOpsDense += 3 * mmulOps(t, d, d);
    stats.qkvOpsExecuted += mmulOps(nq, d, d) + mmulOps(nk, d, d)
        + mmulOps(nv, d, d);

    // --- Real attention at kept positions only. ---
    Matrix concat(t, d);
    std::vector<float> row_scores(t);
    std::vector<Index> kept_cols;
    kept_cols.reserve(t);
    for (Index h = 0; h < n_heads; ++h) {
        const HeadDecision &dec = decisions[h];
        OpCount kept_total = 0;
        for (Index r = 0; r < t; ++r) {
            if (dec.oneHot[r]) {
                // One-hot approximation: output is V at the argmax.
                const Index src = dec.oneHotArg[r];
                for (Index c = 0; c < dh; ++c)
                    concat(r, h * dh + c) = v(src, h * dh + c);
                continue;
            }
            kept_cols.clear();
            dec.keep.forEachSetBitInRow(
                r, [&](Index c) { kept_cols.push_back(c); });
            EXION_ASSERT(!kept_cols.empty(),
                         "non-one-hot row with empty keep set");

            // Scores at kept positions. Head h's slice of a
            // projection row is contiguous, so the kept dots stream
            // both operands directly, each as the golden serial chain
            // (the k-chain is the output element).
            const float *qrow = q.rowPtr(r) + h * dh;
            float max_v = -std::numeric_limits<float>::infinity();
            for (Index idx = 0; idx < kept_cols.size(); ++idx) {
                const float *krow =
                    k.rowPtr(kept_cols[idx]) + h * dh;
                const float s =
                    simd::dotF32Scalar(qrow, krow, dh) * inv_sqrt;
                row_scores[idx] = s;
                max_v = std::max(max_v, s);
            }
            kept_total += kept_cols.size();

            // Softmax over kept entries.
            double denom = 0.0;
            for (Index idx = 0; idx < kept_cols.size(); ++idx) {
                row_scores[idx] = std::exp(row_scores[idx] - max_v);
                denom += row_scores[idx];
            }
            const float inv_denom = static_cast<float>(1.0 / denom);

            // Attention x V over kept entries: one axpy sweep per
            // kept column into the (zero-initialised) concat slice.
            // Per output element the terms still add in ascending
            // idx order from +0.0f, with the probability weight
            // rounded once before the sweep — exactly the original
            // left-associated chain.
            float *crow = concat.rowPtr(r) + h * dh;
            for (Index idx = 0; idx < kept_cols.size(); ++idx)
                kr.axpyF32(crow,
                           v.rowPtr(kept_cols[idx]) + h * dh,
                           row_scores[idx] * inv_denom, dh);
        }
        stats.attnOpsDense += mmulOps(t, dh, t) + mmulOps(t, t, dh);
        stats.attnOpsExecuted += 2 * 2 * kept_total * dh;
    }

    // Output projection stays dense (all rows have outputs).
    Matrix out = execWeightMatmul(concat, blk.wo(), quantize, simd);
    addRowVector(out, blk.wo().bias());
    stats.attnOpsDense += mmulOps(t, d, d);
    stats.attnOpsExecuted += mmulOps(t, d, d);
    return out;
}

} // namespace exion
