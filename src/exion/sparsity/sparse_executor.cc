#include "exion/sparsity/sparse_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
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

Matrix
SparseExecutor::attention(const TransformerBlock &blk,
                          const Matrix &x_norm)
{
    if (!opt_.useEp)
        return denseAttentionImpl(blk, x_norm, opt_.quantize, members());
    return epAttentionImpl(blk, x_norm, opt_.ep, opt_.lodMode,
                           opt_.quantize, members(), observers);
}

Matrix
SparseExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    if (!opt_.useFfnReuse)
        return denseFfnImpl(blk, x_norm, opt_.quantize, members(),
                            observers);
    return ffnReuse_.run(blk, x_norm, members(), observers);
}

namespace
{

/**
 * Appends offset + r for every set entry r of a needs vector,
 * ascending, to idx; returns how many it appended.
 */
Index
appendNeeded(const std::vector<u8> &needed, Index offset,
             std::vector<Index> &idx)
{
    const Index before = idx.size();
    for (Index r = 0; r < needed.size(); ++r)
        if (needed[r])
            idx.push_back(offset + r);
    return idx.size() - before;
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
    std::vector<Index> uni;
    if (appendNeeded(any, 0, uni) == 0)
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

/**
 * Eager prediction's EPRE over a stack of members: every member's
 * skip decision per head, member m's head h at m * n_heads + h.
 *
 * Each member's rows are quantised with its own Int12 scale and
 * LOD-transformed in one pass (quantizeF32) into one stacked image,
 * which segments views one member (and scale) at a time; the weight
 * images come cached from the block, and one integer GEMM per
 * projection covers every member and head — per member and head
 * exactly predictHeadScore's projections. Each (member, head) then
 * reads its Q/K estimate block in place (predictScoreInto), with one
 * scratch reused across the call. The scores, decisions and
 * score-sparsity accounting stay per member, and onScoreMask fires
 * member-major, head-minor.
 */
std::vector<HeadDecision>
predictDecisions(const TransformerBlock &blk, const Matrix &x_norm,
                 const EpConfig &ep, LodMode lod_mode, Members members,
                 const ExecObservers &observers)
{
    const SimdKernels &kr = activeKernels();
    const Index n = members.size();
    const Index t = x_norm.rows() / n;
    const Index d = x_norm.cols();
    const Index dh = blk.headDim();
    const Index n_heads = blk.nHeads();
    const float temp = static_cast<float>(blk.scoreTemp());
    const std::span<const float> x = x_norm.data();
    std::vector<i32> x_img(x.size());
    std::vector<QuantMatrix> segments;
    segments.reserve(n);
    for (Index m = 0; m < n; ++m) {
        const std::span<const float> seg = x.subspan(m * t * d, t * d);
        const QuantParams params = chooseQuantParams(seg, IntWidth::Int12);
        i32 *img = x_img.data() + m * t * d;
        kr.quantizeF32(seg.data(), seg.size(), params.scale,
                       intWidthMax(IntWidth::Int12), lod_mode, img);
        segments.push_back(QuantMatrix::borrowStrided(img, t, d, d, params));
    }
    const EpWeightImages &images = blk.epWeightImages(lod_mode);
    const Matrix q_est = ldImageMatmul(segments, images.wq);
    const Matrix k_est = ldImageMatmul(segments, images.wk);
    const auto head_block = [&](const Matrix &est, Index m, Index h) {
        return Matrix::borrowStrided(est.rowPtr(m * t) + h * dh, t, dh,
                                     est.rowStride());
    };
    ScoreScratch scratch;
    std::vector<HeadDecision> decisions;
    decisions.reserve(n * n_heads);
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = members[m]->stats;
        for (Index h = 0; h < n_heads; ++h) {
            HeadDecision dec = decideFromPrediction(
                predictScoreInto(head_block(q_est, m, h),
                                 head_block(k_est, m, h), lod_mode, temp,
                                 scratch),
                ep);
            if (observers.onScoreMask)
                observers.onScoreMask(blk.id(), static_cast<int>(h),
                                      dec.keep);
            stats.scoreSparsitySum += dec.scoreSparsity();
            ++stats.scoreSparsitySamples;
            decisions.push_back(std::move(dec));
        }
    }
    return decisions;
}

} // namespace

Matrix
epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                const EpConfig &ep, LodMode lod_mode, bool quantize,
                Members members, const ExecObservers &observers)
{
    const SimdKernels &kr = activeKernels();
    const Index n = members.size();
    const Index t = segmentRows(x_norm, members, quantize);
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const Index n_heads = blk.nHeads();
    const float inv_sqrt = static_cast<float>(blk.scoreTemp())
        / std::sqrt(static_cast<float>(dh));

    // --- EPRE: predicted attention scores and skip decisions. ---
    const std::vector<HeadDecision> decisions =
        predictDecisions(blk, x_norm, ep, lod_mode, members, observers);
    // --- Real projections: per head, only the rows it needs (SDUE),
    // every member's needed rows (stacked row m * t + r) at once. ---
    std::vector<std::vector<Index>> q_rows(n_heads), k_rows(n_heads),
        v_rows(n_heads);
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = members[m]->stats;
        stats.qRowsTotal += t * n_heads;
        stats.kColsTotal += t * n_heads;
        stats.vColsTotal += t * n_heads;
        for (Index h = 0; h < n_heads; ++h) {
            const ProjectionNeeds needs =
                headNeeds(decisions[m * n_heads + h]);
            const Index nq = appendNeeded(needs.qRowNeeded, m * t, q_rows[h]);
            const Index nk = appendNeeded(needs.kRowNeeded, m * t, k_rows[h]);
            const Index nv = appendNeeded(needs.vRowNeeded, m * t, v_rows[h]);
            stats.qRowsSkipped += t - nq;
            stats.kColsSkipped += t - nk;
            stats.vColsSkipped += t - nv;
            stats.qkvOpsExecuted += mmulOps(nq, d, dh) + mmulOps(nk, d, dh)
                + mmulOps(nv, d, dh);
        }
        stats.qkvOpsDense += 3 * mmulOps(t, d, d);
    }
    Matrix q(x_norm.rows(), d), k(x_norm.rows(), d), v(x_norm.rows(), d);
    projectHeads(x_norm, blk.wq(), q_rows, quantize, q);
    projectHeads(x_norm, blk.wk(), k_rows, quantize, k);
    projectHeads(x_norm, blk.wv(), v_rows, quantize, v);

    // --- Real attention at kept positions only, per member segment
    // (rows r0 .. r0 + t of the stack). ---
    Matrix concat(x_norm.rows(), d);
    std::vector<float> row_scores(t);
    std::vector<Index> kept_cols;
    kept_cols.reserve(t);
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = members[m]->stats;
        const Index r0 = m * t;
        for (Index h = 0; h < n_heads; ++h) {
            const HeadDecision &dec = decisions[m * n_heads + h];
            OpCount kept_total = 0;
            for (Index r = 0; r < t; ++r) {
                if (dec.oneHot[r]) {
                    // One-hot approximation: output is V at the argmax.
                    const Index src = r0 + dec.oneHotArg[r];
                    for (Index c = 0; c < dh; ++c)
                        concat(r0 + r, h * dh + c) = v(src, h * dh + c);
                    continue;
                }
                kept_cols.clear();
                dec.keep.forEachSetBitInRow(
                    r, [&](Index c) { kept_cols.push_back(c); });
                EXION_ASSERT(!kept_cols.empty(),
                             "non-one-hot row with empty keep set");

                // Scores at kept positions. Head h's slice of a
                // projection row is contiguous, so dotRowsF32 streams
                // the q row against the kept rows of the member's K
                // head slice in place, several golden chains at once
                // (each k-chain is one output element, one per vector
                // lane).
                kr.dotRowsF32(q.rowPtr(r0 + r) + h * dh,
                              k.rowPtr(r0) + h * dh, k.rowStride(),
                              kept_cols.data(), kept_cols.size(), dh,
                              row_scores.data());
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
                // kept column into the (zero-initialised) concat
                // slice. Per output element the terms still add in
                // ascending idx order from +0.0f, with the probability
                // weight rounded once before the sweep — exactly the
                // original left-associated chain.
                float *crow = concat.rowPtr(r0 + r) + h * dh;
                for (Index idx = 0; idx < kept_cols.size(); ++idx)
                    kr.axpyF32(crow,
                               v.rowPtr(r0 + kept_cols[idx]) + h * dh,
                               row_scores[idx] * inv_denom, dh);
            }
            stats.attnOpsDense += mmulOps(t, dh, t) + mmulOps(t, t, dh);
            stats.attnOpsExecuted += 2 * 2 * kept_total * dh;
        }
    }

    // Output projection stays dense (all rows have outputs), once over
    // the stack.
    Matrix out = execMatmul(concat, blk.wo().weight(), quantize);
    addRowVector(out, blk.wo().bias());
    for (ExecContext *member : members) {
        member->stats.attnOpsDense += mmulOps(t, d, d);
        member->stats.attnOpsExecuted += mmulOps(t, d, d);
    }
    return out;
}

} // namespace exion
