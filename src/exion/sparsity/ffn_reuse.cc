#include "exion/sparsity/ffn_reuse.h"

#include <algorithm>
#include <cmath>

#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{

double
sparsityQuantile(std::span<const float> values, double target_sparsity)
{
    EXION_ASSERT(!values.empty(), "quantile of empty data");
    EXION_ASSERT(target_sparsity >= 0.0 && target_sparsity <= 1.0,
                 "sparsity target ", target_sparsity);
    std::vector<float> magnitudes(values.size());
    for (Index i = 0; i < values.size(); ++i)
        magnitudes[i] = std::abs(values[i]);
    const Index rank = std::min<Index>(
        values.size() - 1,
        static_cast<Index>(target_sparsity
                           * static_cast<double>(values.size())));
    std::nth_element(magnitudes.begin(), magnitudes.begin() + rank,
                     magnitudes.end());
    return magnitudes[rank];
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
    return iteration % (cfg_.denseInterval + 1) == 0;
}

const FfnReuseBlockState *
FfnReuse::state(int block_id) const
{
    const auto it = state_->blocks.find(block_id);
    return it == state_->blocks.end() || !it->second.initialized
        ? nullptr : &it->second;
}

void
FfnReuse::reset()
{
    state_->reset();
}

Matrix
FfnReuse::run(const TransformerBlock &blk, const Matrix &x_norm,
              int iteration, ExecStats &stats, ExecObservers &observers)
{
    FfnReuseBlockState &st = state_->blocks[blk.id()];
    if (isDenseIteration(iteration) || !st.initialized)
        return runDense(blk, x_norm, stats, observers, st);
    return runSparse(blk, x_norm, stats, observers, st);
}

namespace
{

/** Computes the non-linear hidden activation densely. */
Matrix
denseHidden(const TransformerBlock &blk, const Matrix &x_norm,
            bool quantize)
{
    Matrix gate = execWeightMatmul(x_norm, blk.ffn1(), quantize);
    addRowVector(gate, blk.ffn1().bias());
    Matrix hidden = gelu(gate);
    if (blk.geglu()) {
        Matrix value = execWeightMatmul(x_norm, blk.ffn1Value(), quantize);
        addRowVector(value, blk.ffn1Value().bias());
        for (Index i = 0; i < hidden.size(); ++i)
            hidden.data()[i] *= value.data()[i];
    }
    return hidden;
}

/**
 * psum + h * W2 where h is zero outside the mask's set positions,
 * accumulating only those positions: per output element the masked
 * contributions add in ascending column order from +0.0f — exactly
 * the dense product's accumulation chain with its zero terms elided,
 * which is bit-neutral for finite operands (a zero activation times a
 * finite weight contributes +/-0.0, and a +0.0-started accumulator is
 * never at -0.0 when one arrives) — then psum joins through the same
 * add() as the dense formulation. Bit-identical to
 * add(psum, matmul(h, w2)) on finite data. This is where the FFN
 * sparsity shortcut lives now that the golden matmul computes every
 * term (gemm.h accumulation contract): at the paper's ~80-90% reuse
 * sparsity it does ~nnz*d work instead of t*hid*d, matching the
 * ffnOpsExecuted accounting.
 */
Matrix
addMaskedProduct(const Matrix &psum, const Matrix &h,
                 const Bitmask2D &mask, const Matrix &w2)
{
    const SimdKernels &kr = activeKernels();
    const Index n = w2.cols();
    Matrix prod(h.rows(), n);
    for (Index r = 0; r < h.rows(); ++r) {
        float *out = prod.rowPtr(r);
        const float *hrow = h.rowPtr(r);
        // Word-at-a-time mask walk; each set column contributes one
        // axpy sweep across the output row — the same ascending-c
        // term order per output element as the dense product.
        mask.forEachSetBitInRow(r, [&](Index c) {
            kr.axpyF32(out, w2.rowPtr(c), hrow[c], n);
        });
    }
    return add(psum, prod);
}

} // namespace

Matrix
FfnReuse::runDense(const TransformerBlock &blk, const Matrix &x_norm,
                   ExecStats &stats, ExecObservers &observers,
                   FfnReuseBlockState &st)
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();
    const OpCount ffn1_dense =
        (blk.geglu() ? 2 : 1) * mmulOps(t, d, hid);

    Matrix hidden = denseHidden(blk, x_norm, quantize_);
    stats.ffnOpsDense += ffn1_dense;
    stats.ffnOpsExecuted += ffn1_dense;

    if (observers.onFfnHidden)
        observers.onFfnHidden(blk.id(), hidden);

    // Calibrate theta and build the recompute mask with the threshold
    // compare kernel, 64 columns per call. theta is the quantile of
    // float magnitudes — exactly representable as float — so the
    // kernel's float compare decides identically to the promoted
    // double compare |h| > theta.
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
    st.psumSparse = execWeightMatmul(hidden, blk.ffn2(), quantize_);
    st.initialized = true;

    // The recompute region is sparse (1 - targetSparsity of H); in
    // the float path accumulate only its masked positions.
    Matrix out = quantize_
        ? add(st.psumSparse,
              execWeightMatmul(h_keep, blk.ffn2(), quantize_))
        : addMaskedProduct(st.psumSparse, h_keep, st.mask,
                           blk.ffn2().weight());
    addRowVector(out, blk.ffn2().bias());
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += mmulOps(t, hid, d);
    return out;
}

Matrix
FfnReuse::runSparse(const TransformerBlock &blk, const Matrix &x_norm,
                    ExecStats &stats, ExecObservers &observers,
                    FfnReuseBlockState &st)
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();
    EXION_ASSERT(st.mask.rows() == t && st.mask.cols() == hid,
                 "FFN-Reuse state shape mismatch for block ", blk.id());

    const u64 nnz = st.mask.countOnes();
    const double sparsity = st.mask.sparsity();
    stats.ffnSparsitySum += sparsity;
    ++stats.ffnSparsitySamples;
    if (observers.onFfnMask)
        observers.onFfnMask(blk.id(), st.mask, false);

    // Recompute only the masked elements of the hidden activation,
    // dotting each x row against the contiguous rows of the block's
    // at-rest transpose. The float dot is the golden serial chain (the
    // transpose only removes the stride — same terms, same order).
    // The integer dot is exact in any order, so the quant path uses
    // the vector kernel.
    Matrix h_keep(t, hid);
    const bool geglu = blk.geglu();
    const SimdKernels &kr = activeKernels();
    const TransformerBlock::FfnAtRest &tw = blk.ffn1AtRest();
    if (quantize_) {
        const QuantMatrix qx =
            QuantMatrix::fromFloat(x_norm, IntWidth::Int12);
        const double s1 = qx.scale() * tw.qw1t.scale();
        const double s1v =
            geglu ? qx.scale() * tw.qw1vt.scale() : 0.0;
        for (Index r = 0; r < t; ++r) {
            const i32 *xrow = qx.rowPtr(r);
            st.mask.forEachSetBitInRow(r, [&](Index c) {
                const i64 acc = kr.dotI32(xrow, tw.qw1t.rowPtr(c), d);
                float h = geluScalar(static_cast<float>(acc * s1)
                                     + blk.ffn1().bias()(0, c));
                if (geglu) {
                    const i64 accv =
                        kr.dotI32(xrow, tw.qw1vt.rowPtr(c), d);
                    h *= static_cast<float>(accv * s1v)
                        + blk.ffn1Value().bias()(0, c);
                }
                h_keep(r, c) = h;
            });
        }
    } else {
        for (Index r = 0; r < t; ++r) {
            const float *xrow = x_norm.rowPtr(r);
            st.mask.forEachSetBitInRow(r, [&](Index c) {
                float h = geluScalar(
                    simd::dotF32Scalar(xrow, tw.w1t.rowPtr(c), d)
                    + blk.ffn1().bias()(0, c));
                if (geglu)
                    h *= simd::dotF32Scalar(xrow, tw.w1vt.rowPtr(c), d)
                        + blk.ffn1Value().bias()(0, c);
                h_keep(r, c) = h;
            });
        }
    }

    const OpCount per_element = (geglu ? 2 : 1);
    stats.ffnOpsDense += (geglu ? 2 : 1) * mmulOps(t, d, hid);
    stats.ffnOpsExecuted += 2 * per_element * nnz * d;

    // Second layer: accumulate only the recomputed contributions onto
    // the cached partial sums — via the masked positions in the float
    // path, so the executed work tracks nnz instead of the dense
    // shape.
    Matrix out = quantize_
        ? add(st.psumSparse,
              execWeightMatmul(h_keep, blk.ffn2(), quantize_))
        : addMaskedProduct(st.psumSparse, h_keep, st.mask,
                           blk.ffn2().weight());
    addRowVector(out, blk.ffn2().bias());
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += 2 * nnz * d;
    return out;
}

} // namespace exion
