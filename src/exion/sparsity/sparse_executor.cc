#include "exion/sparsity/sparse_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "exion/tensor/ops.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{

SparseExecutor::SparseExecutor(const Options &opt)
    : BlockExecutor(opt.quantize), opt_(opt),
      ffnReuse_(opt.ffnReuse, opt.quantize)
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

namespace
{

/**
 * fn(x, ctx) on each member's row segment of x_norm, pasted into one
 * stacked output. A stack of one runs fn on x_norm itself, with no
 * slice and no paste.
 */
template <typename Fn>
Matrix
eachMember(Members members, const Matrix &x_norm, Fn &&fn)
{
    const Index n = members.size();
    EXION_ASSERT(n > 0 && x_norm.rows() % n == 0, "stacked rows ",
                 x_norm.rows(), " vs ", n, " members");
    if (n == 1)
        return fn(x_norm, *members[0]);
    const Index t = x_norm.rows() / n;
    Matrix out(x_norm.rows(), x_norm.cols());
    for (Index m = 0; m < n; ++m)
        pasteRows(out, fn(sliceRows(x_norm, m * t, t), *members[m]),
                  m * t);
    return out;
}

} // namespace

Matrix
SparseExecutor::attention(const TransformerBlock &blk,
                          const Matrix &x_norm)
{
    if (!opt_.useEp)
        return denseAttentionImpl(blk, x_norm, opt_.quantize, members());
    // Eager prediction's decisions are calibrated per request matrix.
    return eachMember(members(), x_norm,
                      [&](const Matrix &x, ExecContext &ctx) {
                          return epAttentionImpl(blk, x, opt_.ep,
                                                 opt_.lodMode,
                                                 opt_.quantize,
                                                 ctx.stats, observers);
                      });
}

Matrix
SparseExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    if (!opt_.useFfnReuse)
        return denseFfnImpl(blk, x_norm, opt_.quantize, members(),
                            observers);
    // Thresholds, masks and partial sums are per request.
    return eachMember(members(), x_norm,
                      [&](const Matrix &x, ExecContext &ctx) {
                          return ffnReuse_.run(blk, x, ctx, observers);
                      });
}

namespace
{

/** Indices of the set entries of a needs vector, ascending. */
std::vector<Index>
neededIndices(const std::vector<u8> &needed)
{
    std::vector<Index> idx;
    for (Index r = 0; r < needed.size(); ++r)
        if (needed[r])
            idx.push_back(r);
    return idx;
}

/**
 * Rows idx of a (rows lda apart, cols wide) packed into buf, or a
 * itself when idx lists all `all` rows; returns the packed rows' base,
 * whose rows are the returned stride apart.
 */
std::pair<const float *, Index>
gatherRows(const float *a, Index lda, Index cols, Index all,
           const std::vector<Index> &idx, std::vector<float> &buf)
{
    if (idx.size() == all)
        return {a, lda};
    buf.resize(idx.size() * cols);
    for (Index i = 0; i < idx.size(); ++i)
        std::copy(a + idx[i] * lda, a + idx[i] * lda + cols,
                  buf.begin() + i * cols);
    return {buf.data(), cols};
}

/**
 * x * W + bias, one head at a time: head h's dh columns of out are
 * written for the rows rows[h] lists (ascending), and every other
 * entry of out is left as it is (zero). Each head runs one GEMM over
 * its gathered rows (x itself when the head needs every row) against
 * W's column window, so every element it writes is the same chain as
 * the full product's and the output equals execMatmul plus bias bit
 * for bit wherever a head reads it.
 *
 * Under quantize, the rows any head needs are packed and quantised
 * together (one Int12 scale for them, one for W) by one execMatmul,
 * and each head copies its rows and columns out of that product.
 */
void
projectHeads(const Matrix &x, const Linear &proj,
             const std::vector<std::vector<Index>> &rows, bool quantize,
             Matrix &out)
{
    const Index t = x.rows();
    const Index d = x.cols();
    const Index dh = proj.outDim() / rows.size();
    const float *bias = proj.bias().rowPtr(0);
    const auto store = [&](const std::vector<Index> &rh, Index c0,
                           auto &&value) {
        for (Index i = 0; i < rh.size(); ++i) {
            float *dst = out.rowPtr(rh[i]) + c0;
            for (Index c = 0; c < dh; ++c)
                dst[c] = value(i, c) + bias[c0 + c];
        }
    };

    if (!quantize) {
        const SimdKernels &kr = activeKernels();
        const Matrix &w = proj.weight();
        std::vector<float> a_buf, c_buf;
        for (Index h = 0; h < rows.size(); ++h) {
            const std::vector<Index> &rh = rows[h];
            if (rh.empty())
                continue;
            const auto [a, lda] =
                gatherRows(x.rowPtr(0), x.rowStride(), d, t, rh, a_buf);
            c_buf.resize(rh.size() * dh);
            kr.gemmF32(a, lda, w.rowPtr(0) + h * dh, w.rowStride(),
                       c_buf.data(), dh, rh.size(), d, dh);
            store(rh, h * dh,
                  [&](Index i, Index c) { return c_buf[i * dh + c]; });
        }
        return;
    }

    std::vector<u8> any(t, 0);
    for (const std::vector<Index> &rh : rows)
        for (Index r : rh)
            any[r] = 1;
    const std::vector<Index> uni = neededIndices(any);
    if (uni.empty())
        return;
    std::vector<Index> pos(t, 0);
    Matrix packed(uni.size(), d);
    for (Index i = 0; i < uni.size(); ++i) {
        pos[uni[i]] = i;
        std::copy(x.rowPtr(uni[i]), x.rowPtr(uni[i]) + d,
                  packed.rowPtr(i));
    }
    const Matrix projected = execMatmul(packed, proj.weight(), true);
    for (Index h = 0; h < rows.size(); ++h)
        store(rows[h], h * dh, [&](Index i, Index c) {
            return projected(pos[rows[h][i]], h * dh + c);
        });
}

} // namespace

Matrix
epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                const EpConfig &ep, LodMode lod_mode, bool quantize,
                ExecStats &stats, const ExecObservers &observers)
{
    const SimdKernels &kr = activeKernels();
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
    const Matrix q_est = ldImageMatmul(x_img, images.wq);
    const Matrix k_est = ldImageMatmul(x_img, images.wk);
    std::vector<HeadDecision> decisions;
    decisions.reserve(n_heads);
    for (Index h = 0; h < n_heads; ++h) {
        Matrix predicted = predictScoreFromEstimates(
            sliceCols(q_est, h * dh, dh), sliceCols(k_est, h * dh, dh),
            lod_mode);
        for (Index i = 0; i < predicted.size(); ++i)
            predicted.data()[i] *=
                static_cast<float>(blk.scoreTemp());
        HeadDecision dec = decideFromPrediction(predicted, ep);
        if (observers.onScoreMask)
            observers.onScoreMask(blk.id(), static_cast<int>(h),
                                  dec.keep);
        stats.scoreSparsitySum += dec.scoreSparsity();
        ++stats.scoreSparsitySamples;
        decisions.push_back(std::move(dec));
    }
    // --- Real projections: per head, only the rows it needs (SDUE). ---
    std::vector<std::vector<Index>> q_rows(n_heads), k_rows(n_heads),
        v_rows(n_heads);
    stats.qRowsTotal += t * n_heads;
    stats.kColsTotal += t * n_heads;
    stats.vColsTotal += t * n_heads;
    for (Index h = 0; h < n_heads; ++h) {
        const ProjectionNeeds needs = headNeeds(decisions[h]);
        q_rows[h] = neededIndices(needs.qRowNeeded);
        k_rows[h] = neededIndices(needs.kRowNeeded);
        v_rows[h] = neededIndices(needs.vRowNeeded);
        stats.qRowsSkipped += t - q_rows[h].size();
        stats.kColsSkipped += t - k_rows[h].size();
        stats.vColsSkipped += t - v_rows[h].size();
        stats.qkvOpsExecuted += mmulOps(q_rows[h].size(), d, dh)
            + mmulOps(k_rows[h].size(), d, dh)
            + mmulOps(v_rows[h].size(), d, dh);
    }
    Matrix q(t, d), k(t, d), v(t, d);
    projectHeads(x_norm, blk.wq(), q_rows, quantize, q);
    projectHeads(x_norm, blk.wk(), k_rows, quantize, k);
    projectHeads(x_norm, blk.wv(), v_rows, quantize, v);
    stats.qkvOpsDense += 3 * mmulOps(t, d, d);

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
            // projection row is contiguous, so dotRowsF32 streams the
            // q row against the kept rows of K's head slice in place,
            // several golden chains at once (each k-chain is one
            // output element, one per vector lane).
            kr.dotRowsF32(q.rowPtr(r) + h * dh, k.rowPtr(0) + h * dh,
                          k.rowStride(), kept_cols.data(),
                          kept_cols.size(), dh, row_scores.data());
            float max_v = -std::numeric_limits<float>::infinity();
            for (Index idx = 0; idx < kept_cols.size(); ++idx) {
                row_scores[idx] *= inv_sqrt;
                max_v = std::max(max_v, row_scores[idx]);
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
    Matrix out = execMatmul(concat, blk.wo().weight(), quantize);
    addRowVector(out, blk.wo().bias());
    stats.attnOpsDense += mmulOps(t, d, d);
    stats.attnOpsExecuted += mmulOps(t, d, d);
    return out;
}

} // namespace exion
