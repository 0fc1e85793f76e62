#include "exion/model/executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

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
execMatmul(const Matrix &a, const Matrix &b, bool quantize)
{
    if (!quantize)
        return matmul(a, b);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    return matmulQuant(qa, qb);
}

Index
segmentRows(const Matrix &x_norm, Members members, bool quantize)
{
    EXION_ASSERT(!members.empty() && x_norm.rows() % members.size() == 0,
                 "stacked rows ", x_norm.rows(), " vs ", members.size(),
                 " members");
    EXION_ASSERT(!quantize || members.size() == 1,
                 "quantize takes a stack of one, not ", members.size());
    return x_norm.rows() / members.size();
}

namespace
{

/**
 * Per-head score/softmax/AV core of dense attention on rows
 * [r0, r0+rows) of projected q/k/v, writing the concatenated head
 * outputs (pre output-projection) into the same rows of concat and
 * accumulating the per-head attn op counts.
 */
void
attentionCoreInto(const TransformerBlock &blk, const Matrix &q,
                  const Matrix &k, const Matrix &v, Index r0, Index rows,
                  bool quantize, ExecStats &stats, Matrix &concat)
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
        const Matrix out_h = execMatmul(probs, vh, quantize);
        for (Index r = 0; r < t; ++r)
            for (Index c = 0; c < dh; ++c)
                concat(r0 + r, h * dh + c) = out_h(r, c);

        stats.attnOpsDense += mmulOps(t, dh, t) + mmulOps(t, t, dh);
        stats.attnOpsExecuted += mmulOps(t, dh, t) + mmulOps(t, t, dh);
    }
}

} // namespace

Matrix
denseAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                   bool quantize, Members members)
{
    const Index t = segmentRows(x_norm, members, quantize);
    const Index d = blk.dModel();

    Matrix q = execMatmul(x_norm, blk.wq().weight(), quantize);
    addRowVector(q, blk.wq().bias());
    Matrix k = execMatmul(x_norm, blk.wk().weight(), quantize);
    addRowVector(k, blk.wk().bias());
    Matrix v = execMatmul(x_norm, blk.wv().weight(), quantize);
    addRowVector(v, blk.wv().bias());

    Matrix concat(x_norm.rows(), d);
    for (Index m = 0; m < members.size(); ++m) {
        ExecStats &stats = members[m]->stats;
        stats.qkvOpsDense += 3 * mmulOps(t, d, d);
        stats.qkvOpsExecuted += 3 * mmulOps(t, d, d);
        stats.qRowsTotal += t * blk.nHeads();
        stats.kColsTotal += t * blk.nHeads();
        stats.vColsTotal += t * blk.nHeads();
        attentionCoreInto(blk, q, k, v, m * t, t, quantize, stats, concat);
        stats.attnOpsDense += mmulOps(t, d, d);
        stats.attnOpsExecuted += mmulOps(t, d, d);
    }

    Matrix out = execMatmul(concat, blk.wo().weight(), quantize);
    addRowVector(out, blk.wo().bias());
    return out;
}

Matrix
ffnHidden(const TransformerBlock &blk, const Matrix &x_norm, bool quantize)
{
    Matrix hidden = execMatmul(x_norm, blk.ffn1().weight(), quantize);
    addRowVector(hidden, blk.ffn1().bias());
    for (float &h : hidden.data())
        h = geluScalar(h);
    if (blk.geglu()) {
        Matrix value = execMatmul(x_norm, blk.ffn1Value().weight(), quantize);
        addRowVector(value, blk.ffn1Value().bias());
        for (Index i = 0; i < hidden.size(); ++i)
            hidden.data()[i] *= value.data()[i];
    }
    return hidden;
}

Matrix
denseFfnImpl(const TransformerBlock &blk, const Matrix &x_norm,
             bool quantize, Members members,
             const ExecObservers &observers)
{
    const Index t = segmentRows(x_norm, members, quantize);
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();

    const Matrix hidden = ffnHidden(blk, x_norm, quantize);
    if (observers.onFfnHidden)
        observers.onFfnHidden(blk.id(), hidden);

    Matrix out = execMatmul(hidden, blk.ffn2().weight(), quantize);
    addRowVector(out, blk.ffn2().bias());
    const OpCount ops =
        (blk.geglu() ? 2 : 1) * mmulOps(t, d, hid) + mmulOps(t, hid, d);
    for (ExecContext *member : members) {
        member->stats.ffnOpsDense += ops;
        member->stats.ffnOpsExecuted += ops;
    }
    return out;
}

void
BlockExecutor::beginIteration(int iteration)
{
    ctx_.iteration = iteration;
    members_.assign(1, &ctx_);
}

void
BlockExecutor::beginCohortStep(const std::vector<Index> &slots,
                               const std::vector<int> &iterations)
{
    if (quantize_)
        throw std::invalid_argument(
            "an INT12 executor runs solo only: each operand's scale is "
            "calibrated per matrix, so stacking would change it");
    EXION_ASSERT(slots.size() == iterations.size(),
                 "cohort step slots ", slots.size(), " vs iterations ",
                 iterations.size());
    if (std::adjacent_find(iterations.begin(), iterations.end(),
                           std::not_equal_to<>())
        != iterations.end())
        throw std::invalid_argument(
            "a cohort steps in lockstep: its members' iterations differ");
    members_.clear();
    for (Index m = 0; m < slots.size(); ++m) {
        ExecContext &ctx = slotContext(slots[m]);
        ctx.iteration = iterations[m];
        members_.push_back(&ctx);
    }
}

Matrix
DenseExecutor::attention(const TransformerBlock &blk, const Matrix &x_norm)
{
    return denseAttentionImpl(blk, x_norm, quantize(), members());
}

Matrix
DenseExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    return denseFfnImpl(blk, x_norm, quantize(), members(), observers);
}

} // namespace exion
