#include "exion/sparsity/ffn_reuse.h"

#include <algorithm>
#include <vector>

#include "exion/tensor/ops.h"
#include "exion/tensor/select.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{

double
sparsityQuantile(std::span<const float> values, double target_sparsity)
{
    EXION_ASSERT(!values.empty(), "quantile of empty data");
    EXION_ASSERT(target_sparsity >= 0.0 && target_sparsity <= 1.0,
                 "sparsity target ", target_sparsity);
    const Index n = values.size();
    const Index rank = std::min<Index>(
        n - 1, static_cast<Index>(target_sparsity * static_cast<double>(n)));
    // The rank-th smallest magnitude (from 0) is the (n - rank)-th
    // largest: a counting selection over |v|, no copy and no sort.
    std::vector<u64> scratch;
    return kthLargest(values.data(), n, n - rank, RankBy::Magnitude,
                      scratch);
}

FfnReuse::FfnReuse(const FfnReuseConfig &cfg, bool quantize)
    : cfg_(cfg), quantize_(quantize)
{
    EXION_ASSERT(cfg_.denseInterval >= 0, "dense interval ",
                 cfg_.denseInterval);
}

bool
FfnReuse::isDenseIteration(int iteration) const
{
    // The period in 64 bits: denseInterval + 1 overflows an int at
    // INT_MAX, which then runs dense only at iteration 0.
    return iteration % (i64{cfg_.denseInterval} + 1) == 0;
}

Matrix
FfnReuse::run(const TransformerBlock &blk, const Matrix &x_norm,
              ExecContext &ctx, const ExecObservers &observers) const
{
    FfnReuseBlockState &st = ctx.ffn[blk.id()];
    if (isDenseIteration(ctx.iteration) || !st.initialized)
        return runDense(blk, x_norm, ctx.stats, observers, st);
    return runSparse(blk, x_norm, ctx.stats, observers, st);
}

namespace
{

/**
 * FFN-Reuse's second layer: st.psumSparse + h * W2 + b2, where h is
 * zero outside st.mask. Both iterations end here, so they run one
 * expression. The quantized path runs the dense product, since INT12
 * scales are per matrix. The float path accumulates only the mask's
 * set positions: per output element the masked contributions add in
 * ascending column order from +0.0f — exactly the dense product's
 * accumulation chain with its zero terms elided, which is bit-neutral
 * for finite operands (a zero activation times a finite weight
 * contributes +/-0.0, and a +0.0-started accumulator is never at -0.0
 * when one arrives) — then psum joins through the same add() as the
 * dense formulation. Bit-identical to add(psum, matmul(h, w2)) on
 * finite data. This is where the FFN sparsity shortcut lives now that
 * the golden matmul computes every term (gemm.h accumulation
 * contract): at the paper's ~80-90% reuse sparsity it does ~nnz*d work
 * instead of t*hid*d, matching the ffnOpsExecuted accounting.
 */
Matrix
secondLayer(const TransformerBlock &blk, const Matrix &h,
            const FfnReuseBlockState &st, bool quantize)
{
    const Matrix &w2 = blk.ffn2().weight();
    Matrix prod;
    if (quantize) {
        prod = execMatmul(h, w2, true);
    } else {
        const SimdKernels &kr = activeKernels();
        const Index n = w2.cols();
        prod = Matrix(h.rows(), n);
        for (Index r = 0; r < h.rows(); ++r) {
            float *out = prod.rowPtr(r);
            const float *hrow = h.rowPtr(r);
            // Word-at-a-time mask walk; each set column contributes
            // one axpy sweep across the output row — the same
            // ascending-c term order per output element as the dense
            // product.
            st.mask.forEachSetBitInRow(r, [&](Index c) {
                kr.axpyF32(out, w2.rowPtr(c), hrow[c], n);
            });
        }
    }
    Matrix out = add(st.psumSparse, prod);
    addRowVector(out, blk.ffn2().bias());
    return out;
}

} // namespace

Matrix
FfnReuse::runDense(const TransformerBlock &blk, const Matrix &x_norm,
                   ExecStats &stats, const ExecObservers &observers,
                   FfnReuseBlockState &st) const
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();
    const OpCount ffn1_dense =
        (blk.geglu() ? 2 : 1) * mmulOps(t, d, hid);

    Matrix hidden = ffnHidden(blk, x_norm, quantize_);
    stats.ffnOpsDense += ffn1_dense;
    stats.ffnOpsExecuted += ffn1_dense;

    if (observers.onFfnHidden)
        observers.onFfnHidden(blk.id(), hidden);

    // Calibrate theta (a counting selection over |H|, no copy and no
    // sort) and build the recompute mask with the threshold compare
    // kernel, 64 columns per call. theta is the quantile of float
    // magnitudes — exactly representable as float — so the kernel's
    // float compare decides identically to the promoted double
    // compare |h| > theta.
    st.theta = sparsityQuantile(hidden.data(), cfg_.targetSparsity);
    st.mask = Bitmask2D(t, hid);
    const SimdKernels &kr = activeKernels();
    const float ftheta = static_cast<float>(st.theta);
    for (Index r = 0; r < t; ++r) {
        const float *hrow = hidden.rowPtr(r);
        for (Index c0 = 0; c0 < hid; c0 += 64) {
            const Index nb = std::min<Index>(64, hid - c0);
            st.mask.writeRowBits(
                r, c0, kr.absGreaterMask64(hrow + c0, ftheta, nb),
                nb);
        }
    }

    if (observers.onFfnMask)
        observers.onFfnMask(blk.id(), st.mask, true);

    // Split H into recompute (h_keep) and reuse regions, the latter in
    // place; cache the reuse region's contribution through the second
    // FFN layer.
    Matrix h_keep(t, hid);
    st.mask.forEachSetBit([&](Index r, Index c) {
        h_keep(r, c) = hidden(r, c);
        hidden(r, c) = 0.0f;
    });
    st.psumSparse = execMatmul(hidden, blk.ffn2().weight(), quantize_);
    st.initialized = true;

    // The recompute region is sparse (1 - targetSparsity of H).
    Matrix out = secondLayer(blk, h_keep, st, quantize_);
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += mmulOps(t, hid, d);
    return out;
}

Matrix
FfnReuse::runSparse(const TransformerBlock &blk, const Matrix &x_norm,
                    ExecStats &stats, const ExecObservers &observers,
                    FfnReuseBlockState &st) const
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();
    EXION_ASSERT(st.mask.rows() == t && st.mask.cols() == hid,
                 "FFN-Reuse state shape mismatch for block ", blk.id());

    const u64 nnz = st.mask.countOnes();
    stats.ffnSparsitySum += 1.0 - static_cast<double>(nnz)
        / static_cast<double>(t * hid);
    ++stats.ffnSparsitySamples;
    if (observers.onFfnMask)
        observers.onFfnMask(blk.id(), st.mask, false);

    // Recompute only the masked elements of the hidden activation.
    // The float path dots each x row against the contiguous rows of
    // W1^T, which the block derives once (ffn1Transposed()), sending
    // each row's set columns through dotRowsF32, which runs several
    // golden chains at once, one per vector lane (the transpose only
    // removes the stride — same terms, same order). The quantized
    // path takes the set elements of the dense quantized hidden
    // activation: its integer sums are exact in any order, and W1's
    // Int12 image has the same max-|v| scale and codes as W1^T's, so
    // each element equals one integer dot of x's codes against a W1^T
    // row.
    Matrix h_keep(t, hid);
    const bool geglu = blk.geglu();
    if (quantize_) {
        const Matrix hidden = ffnHidden(blk, x_norm, true);
        st.mask.forEachSetBit(
            [&](Index r, Index c) { h_keep(r, c) = hidden(r, c); });
    } else {
        const SimdKernels &kr = activeKernels();
        const TransformerBlock::FfnTransposes &tw = blk.ffn1Transposed();
        std::vector<Index> cols;
        cols.reserve(hid);
        std::vector<float> dots(hid);
        std::vector<float> dots_v(geglu ? hid : 0);
        const float *bias = blk.ffn1().bias().rowPtr(0);
        const float *bias_v = geglu ? blk.ffn1Value().bias().rowPtr(0)
                                    : nullptr;
        for (Index r = 0; r < t; ++r) {
            const float *xrow = x_norm.rowPtr(r);
            cols.clear();
            st.mask.forEachSetBitInRow(
                r, [&](Index c) { cols.push_back(c); });
            kr.dotRowsF32(xrow, tw.w1t.rowPtr(0), tw.w1t.rowStride(),
                          cols.data(), cols.size(), d, dots.data());
            if (geglu)
                kr.dotRowsF32(xrow, tw.w1vt.rowPtr(0),
                              tw.w1vt.rowStride(), cols.data(),
                              cols.size(), d, dots_v.data());
            float *hrow = h_keep.rowPtr(r);
            for (Index i = 0; i < cols.size(); ++i) {
                const Index c = cols[i];
                float h = geluScalar(dots[i] + bias[c]);
                if (geglu)
                    h *= dots_v[i] + bias_v[c];
                hrow[c] = h;
            }
        }
    }

    const OpCount per_element = (geglu ? 2 : 1);
    stats.ffnOpsDense += (geglu ? 2 : 1) * mmulOps(t, d, hid);
    stats.ffnOpsExecuted += 2 * per_element * nnz * d;

    // Second layer: accumulate only the recomputed contributions onto
    // the cached partial sums.
    Matrix out = secondLayer(blk, h_keep, st, quantize_);
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += 2 * nnz * d;
    return out;
}

} // namespace exion
