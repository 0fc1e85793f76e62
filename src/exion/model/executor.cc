#include "exion/model/executor.h"

#include <cmath>

#include "exion/model/transformer_block.h"
#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

void
ExecStats::merge(const ExecStats &other)
{
    qkvOpsDense += other.qkvOpsDense;
    qkvOpsExecuted += other.qkvOpsExecuted;
    attnOpsDense += other.attnOpsDense;
    attnOpsExecuted += other.attnOpsExecuted;
    ffnOpsDense += other.ffnOpsDense;
    ffnOpsExecuted += other.ffnOpsExecuted;
    ffnSparsitySum += other.ffnSparsitySum;
    ffnSparsitySamples += other.ffnSparsitySamples;
    scoreSparsitySum += other.scoreSparsitySum;
    scoreSparsitySamples += other.scoreSparsitySamples;
    qRowsTotal += other.qRowsTotal;
    qRowsSkipped += other.qRowsSkipped;
    kColsTotal += other.kColsTotal;
    kColsSkipped += other.kColsSkipped;
    vColsTotal += other.vColsTotal;
    vColsSkipped += other.vColsSkipped;
}

Matrix
execMatmul(const Matrix &a, const Matrix &b, bool quantize, SimdTier simd)
{
    if (!quantize)
        return matmul(a, b, simd);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    return matmulQuant(qa, qb, simd);
}

Matrix
execWeightMatmul(const Matrix &x, const Linear &lin, bool quantize,
                 SimdTier simd)
{
    if (!quantize)
        return matmul(x, lin.weight(), simd);
    const QuantMatrix qx = QuantMatrix::fromFloat(x, IntWidth::Int12);
    if (lin.hasQuantWeight())
        return matmulQuant(qx, lin.quantWeight(), simd);
    return matmulQuant(
        qx, QuantMatrix::fromFloat(lin.weight(), IntWidth::Int12), simd);
}

void
denseAttentionCoreInto(const TransformerBlock &blk, const Matrix &q,
                       const Matrix &k, const Matrix &v, Index r0,
                       Index rows, bool quantize, ExecStats &stats,
                       Matrix &concat, SimdTier simd)
{
    const Index t = rows;
    const Index dh = blk.headDim();
    const float inv_sqrt = static_cast<float>(blk.scoreTemp())
        / std::sqrt(static_cast<float>(dh));

    for (Index h = 0; h < blk.nHeads(); ++h) {
        const Matrix qh = sliceBlock(q, r0, t, h * dh, dh);
        const Matrix kh = sliceBlock(k, r0, t, h * dh, dh);
        const Matrix vh = sliceBlock(v, r0, t, h * dh, dh);

        Matrix scores = scale(matmulTransposed(qh, kh), inv_sqrt);
        const Matrix probs = softmax(scores);
        const Matrix out_h = execMatmul(probs, vh, quantize, simd);
        for (Index r = 0; r < t; ++r)
            for (Index c = 0; c < dh; ++c)
                concat(r0 + r, h * dh + c) = out_h(r, c);

        stats.attnOpsDense += mmulOps(t, dh, t) + mmulOps(t, t, dh);
        stats.attnOpsExecuted += mmulOps(t, dh, t) + mmulOps(t, t, dh);
    }
}

Matrix
denseAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                   bool quantize, ExecStats &stats,
                   ExecObservers &observers, SimdTier simd)
{
    (void)observers;
    const Index t = x_norm.rows();
    const Index d = blk.dModel();

    Matrix q = execWeightMatmul(x_norm, blk.wq(), quantize, simd);
    addRowVector(q, blk.wq().bias());
    Matrix k = execWeightMatmul(x_norm, blk.wk(), quantize, simd);
    addRowVector(k, blk.wk().bias());
    Matrix v = execWeightMatmul(x_norm, blk.wv(), quantize, simd);
    addRowVector(v, blk.wv().bias());

    stats.qkvOpsDense += 3 * mmulOps(t, d, d);
    stats.qkvOpsExecuted += 3 * mmulOps(t, d, d);
    stats.qRowsTotal += t;
    stats.kColsTotal += t;
    stats.vColsTotal += t;

    Matrix concat(t, d);
    denseAttentionCoreInto(blk, q, k, v, 0, t, quantize, stats,
                           concat, simd);

    Matrix out = execWeightMatmul(concat, blk.wo(), quantize, simd);
    addRowVector(out, blk.wo().bias());
    stats.attnOpsDense += mmulOps(t, d, d);
    stats.attnOpsExecuted += mmulOps(t, d, d);
    return out;
}

Matrix
denseFfnImpl(const TransformerBlock &blk, const Matrix &x_norm,
             bool quantize, ExecStats &stats, ExecObservers &observers,
             SimdTier simd)
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();

    Matrix gate = execWeightMatmul(x_norm, blk.ffn1(), quantize, simd);
    addRowVector(gate, blk.ffn1().bias());
    stats.ffnOpsDense += mmulOps(t, d, hid);
    stats.ffnOpsExecuted += mmulOps(t, d, hid);

    Matrix hidden;
    if (blk.geglu()) {
        Matrix value =
            execWeightMatmul(x_norm, blk.ffn1Value(), quantize, simd);
        addRowVector(value, blk.ffn1Value().bias());
        stats.ffnOpsDense += mmulOps(t, d, hid);
        stats.ffnOpsExecuted += mmulOps(t, d, hid);
        hidden = gelu(gate);
        for (Index i = 0; i < hidden.size(); ++i)
            hidden.data()[i] *= value.data()[i];
    } else {
        hidden = gelu(gate);
    }

    if (observers.onFfnHidden)
        observers.onFfnHidden(blk.id(), hidden);

    Matrix out = execWeightMatmul(hidden, blk.ffn2(), quantize, simd);
    addRowVector(out, blk.ffn2().bias());
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += mmulOps(t, hid, d);
    return out;
}

Matrix
DenseExecutor::attention(const TransformerBlock &blk, const Matrix &x_norm)
{
    return denseAttentionImpl(blk, x_norm, quantize_, stats(), observers,
                              simd_);
}

Matrix
DenseExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    return denseFfnImpl(blk, x_norm, quantize_, stats(), observers,
                        simd_);
}

} // namespace exion
