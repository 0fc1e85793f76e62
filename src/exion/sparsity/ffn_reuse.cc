#include "exion/sparsity/ffn_reuse.h"

#include <algorithm>
#include <span>
#include <utility>
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
              Members members, const ExecObservers &observers) const
{
    const Index t = segmentRows(x_norm, members, quantize_);
    const auto calibrates = [&](ExecContext *ctx) {
        return isDenseIteration(ctx->iteration)
            || !ctx->ffn[blk.id()].initialized;
    };
    // A cohort steps in lockstep, so its members calibrate together:
    // FFN-1 and the partial-sum GEMM run once over every row.
    const bool dense = calibrates(members[0]);
    EXION_ASSERT(std::all_of(members.begin(), members.end(),
                             [&](ExecContext *ctx) {
                                 return calibrates(ctx) == dense;
                             }),
                 "FFN-Reuse stack mixes calibrating and reusing members "
                 "at block ", blk.id());
    if (dense)
        return runDense(blk, x_norm, members, observers);
    if (members.size() == 1)
        return runSparse(blk, x_norm, members[0]->stats, observers,
                         members[0]->ffn[blk.id()]);

    // Reuse runs member by member, each on a view of its rows and its
    // own mask.
    Matrix out(x_norm.rows(), blk.dModel());
    for (Index m = 0; m < members.size(); ++m)
        pasteRows(out,
                  runSparse(blk,
                            Matrix::borrowStrided(x_norm.rowPtr(m * t), t,
                                                  x_norm.cols(),
                                                  x_norm.rowStride()),
                            members[m]->stats, observers,
                            members[m]->ffn[blk.id()]),
                  m * t);
    return out;
}

namespace
{

/**
 * The recompute region's product through FFN-Reuse's second layer:
 * h' * W2, where h' equals h at mask's set positions and is zero
 * elsewhere; h's other entries are never read. The quantized path
 * builds h' and runs the dense product, since INT12 scales are per
 * matrix. The float path accumulates only the mask's set positions:
 * per output element the masked contributions add in ascending column
 * order from +0.0f — exactly the dense product's accumulation chain
 * with its zero terms elided, which is bit-neutral for finite operands
 * (a zero activation times a finite weight contributes +/-0.0, and a
 * +0.0-started accumulator is never at -0.0 when one arrives).
 * Bit-identical to matmul(h', w2) on finite data. This is where the
 * FFN sparsity shortcut lives now that the golden matmul computes
 * every term (gemm.h accumulation contract): at the paper's ~80-90%
 * reuse sparsity it does ~nnz*d work instead of t*hid*d, matching the
 * ffnOpsExecuted accounting.
 */
Matrix
maskedSecondLayer(const TransformerBlock &blk, const Matrix &h,
                  const Bitmask2D &mask, bool quantize)
{
    const Matrix &w2 = blk.ffn2().weight();
    if (quantize) {
        Matrix kept(h.rows(), h.cols());
        mask.forEachSetBit([&](Index r, Index c) { kept(r, c) = h(r, c); });
        return execMatmul(kept, w2, true);
    }
    const SimdKernels &kr = activeKernels();
    const Index n = w2.cols();
    Matrix prod(h.rows(), n);
    for (Index r = 0; r < h.rows(); ++r) {
        float *out = prod.rowPtr(r);
        const float *hrow = h.rowPtr(r);
        // Word-at-a-time mask walk; each set column contributes one
        // axpy sweep across the output row — the same ascending-c term
        // order per output element as the dense product.
        mask.forEachSetBitInRow(r, [&](Index c) {
            kr.axpyF32(out, w2.rowPtr(c), hrow[c], n);
        });
    }
    return prod;
}

/**
 * FFN-Reuse's output: the cached partial sums plus the recompute
 * region's product plus b2. Both iterations end here, through the
 * same add() as the dense formulation add(psum, matmul(h', w2)).
 */
Matrix
secondLayer(const TransformerBlock &blk, const Matrix &psum,
            const Matrix &prod)
{
    Matrix out = add(psum, prod);
    addRowVector(out, blk.ffn2().bias());
    return out;
}

} // namespace

Matrix
FfnReuse::runDense(const TransformerBlock &blk, const Matrix &x_norm,
                   Members members, const ExecObservers &observers) const
{
    const Index n = members.size();
    const Index t = x_norm.rows() / n;
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();
    const OpCount ffn1_dense =
        (blk.geglu() ? 2 : 1) * mmulOps(t, d, hid);

    // FFN-1 once over every member's rows.
    Matrix hidden = ffnHidden(blk, x_norm, quantize_);

    // Per member, on its own rows of H: calibrate theta (a counting
    // selection over |H|, no copy and no sort) and build the recompute
    // mask with the threshold compare kernel, 64 columns per call.
    // theta is the quantile of float magnitudes — exactly
    // representable as float — so the kernel's float compare decides
    // identically to the promoted double compare |h| > theta. Then
    // run the recompute region (sparse: 1 - targetSparsity of H)
    // through the second layer, and zero it in H, leaving the reuse
    // region in place.
    const SimdKernels &kr = activeKernels();
    std::vector<Matrix> prod(n);
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = members[m]->stats;
        FfnReuseBlockState &st = members[m]->ffn[blk.id()];
        const Index r0 = m * t;
        stats.ffnOpsDense += ffn1_dense;
        stats.ffnOpsExecuted += ffn1_dense;

        if (observers.onFfnHidden)
            observers.onFfnHidden(blk.id(),
                                  n == 1 ? hidden : sliceRows(hidden, r0, t));

        st.theta = sparsityQuantile(
            std::span<const float>(hidden.data()).subspan(r0 * hid, t * hid),
            cfg_.targetSparsity);
        st.mask = Bitmask2D(t, hid);
        const float ftheta = static_cast<float>(st.theta);
        for (Index r = 0; r < t; ++r) {
            const float *hrow = hidden.rowPtr(r0 + r);
            for (Index c0 = 0; c0 < hid; c0 += 64) {
                const Index nb = std::min<Index>(64, hid - c0);
                st.mask.writeRowBits(
                    r, c0, kr.absGreaterMask64(hrow + c0, ftheta, nb),
                    nb);
            }
        }

        if (observers.onFfnMask)
            observers.onFfnMask(blk.id(), st.mask, true);

        prod[m] = maskedSecondLayer(
            blk, Matrix::borrow(hidden.rowPtr(r0), t, hid), st.mask,
            quantize_);
        st.mask.forEachSetBit(
            [&](Index r, Index c) { hidden(r0 + r, c) = 0.0f; });
    }

    // Cache the reuse region's contribution through the second FFN
    // layer: one GEMM over every member's rows. H is spent after it.
    Matrix psum = execMatmul(hidden, blk.ffn2().weight(), quantize_);
    hidden = Matrix();
    Matrix out(n == 1 ? 0 : x_norm.rows(), d);
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = members[m]->stats;
        FfnReuseBlockState &st = members[m]->ffn[blk.id()];
        st.psumSparse = n == 1 ? std::move(psum) : sliceRows(psum, m * t, t);
        st.initialized = true;

        Matrix y = secondLayer(blk, st.psumSparse, prod[m]);
        stats.ffnOpsDense += mmulOps(t, hid, d);
        stats.ffnOpsExecuted += mmulOps(t, hid, d);
        if (n == 1)
            return y;
        pasteRows(out, y, m * t);
    }
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

    // Recompute only the masked elements of the hidden activation;
    // the second layer reads h at the mask's set positions only. The
    // float path dots each x row against the contiguous rows of W1^T,
    // which the block derives once (ffn1Transposed()), sending each
    // row's set columns through dotRowsF32, which runs several golden
    // chains at once, one per vector lane (the transpose only removes
    // the stride — same terms, same order). The quantized path takes
    // the set elements of the dense quantized hidden activation: its
    // integer sums are exact in any order, and W1's Int12 image has
    // the same max-|v| scale and codes as W1^T's, so each element
    // equals one integer dot of x's codes against a W1^T row.
    Matrix h;
    const bool geglu = blk.geglu();
    if (quantize_) {
        h = ffnHidden(blk, x_norm, true);
    } else {
        h = Matrix(t, hid);
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
            float *hrow = h.rowPtr(r);
            for (Index i = 0; i < cols.size(); ++i) {
                const Index c = cols[i];
                float value = geluScalar(dots[i] + bias[c]);
                if (geglu)
                    value *= dots_v[i] + bias_v[c];
                hrow[c] = value;
            }
        }
    }

    const OpCount per_element = (geglu ? 2 : 1);
    stats.ffnOpsDense += (geglu ? 2 : 1) * mmulOps(t, d, hid);
    stats.ffnOpsExecuted += 2 * per_element * nnz * d;

    // Second layer: accumulate only the recomputed contributions onto
    // the cached partial sums.
    Matrix out = secondLayer(blk, st.psumSparse,
                             maskedSecondLayer(blk, h, st.mask, quantize_));
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += 2 * nnz * d;
    return out;
}

} // namespace exion
