#include "exion/sparsity/cohort_executor.h"

#include "exion/tensor/ops.h"

namespace exion
{

CohortExecutor::CohortExecutor(const SparseExecutor::Options &opt)
    : opt_(opt), ffnReuse_(opt.ffnReuse, opt.quantize)
{
}

CohortExecutor::Slot &
CohortExecutor::slot(Index id)
{
    Slot &s = slots_[id];
    if (s.ctx == nullptr) {
        s.ownedCtx = std::make_unique<ExecContext>();
        s.ctx = s.ownedCtx.get();
    }
    if (s.ffn == nullptr) {
        s.ownedFfn = std::make_unique<FfnReuseState>();
        s.ffn = s.ownedFfn.get();
    }
    return s;
}

void
CohortExecutor::attachSlot(Index id, ExecContext &ctx, FfnReuseState &ffn)
{
    Slot &s = slots_[id];
    s.ctx = &ctx;
    s.ffn = &ffn;
    s.ownedCtx.reset();
    s.ownedFfn.reset();
}

ExecObservers &
CohortExecutor::slotObservers(Index id)
{
    return slot(id).observers;
}

ExecContext &
CohortExecutor::slotContext(Index id)
{
    return *slot(id).ctx;
}

void
CohortExecutor::releaseSlot(Index id)
{
    slots_.erase(id);
}

void
CohortExecutor::beginCohortStep(const std::vector<Index> &slots,
                                const std::vector<int> &iterations)
{
    EXION_ASSERT(slots.size() == iterations.size(),
                 "cohort step slots ", slots.size(), " vs iterations ",
                 iterations.size());
    active_ = slots;
    iterations_ = iterations;
    for (Index m = 0; m < active_.size(); ++m)
        slot(active_[m]).ctx->iteration = iterations_[m];
}

ExecStats &
CohortExecutor::memberStats(Index m)
{
    return slot(active_[m]).ctx->stats;
}

Matrix
CohortExecutor::attention(const TransformerBlock &blk,
                          const Matrix &x_norm)
{
    const Index n = active_.size();
    EXION_ASSERT(n > 0, "cohort attention without beginCohortStep");
    EXION_ASSERT(x_norm.rows() % n == 0, "stacked rows ", x_norm.rows(),
                 " vs ", n, " members");
    const Index t_seg = x_norm.rows() / n;
    const Index d = blk.dModel();

    // Sparse / quantized paths partition by member: EP decisions and
    // INT12 scales are calibrated per request matrix.
    if (opt_.useEp || opt_.quantize) {
        Matrix out(x_norm.rows(), d);
        for (Index m = 0; m < n; ++m) {
            const Matrix x_m = sliceRows(x_norm, m * t_seg, t_seg);
            Slot &s = slot(active_[m]);
            const Matrix seg = opt_.useEp
                ? epAttentionImpl(blk, x_m, opt_.ep, opt_.lodMode,
                                  opt_.quantize, s.ctx->stats,
                                  s.observers)
                : denseAttentionImpl(blk, x_m, opt_.quantize,
                                     s.ctx->stats, s.observers);
            pasteRows(out, seg, m * t_seg);
        }
        return out;
    }

    // Dense float path: one tall GEMM per projection (row-independent,
    // so each member's rows match its solo run bit for bit), then the
    // token-mixing core per member segment. A tall stack reads each
    // weight matrix once for every member.
    Matrix q = execMatmul(x_norm, blk.wq().weight(), false);
    addRowVector(q, blk.wq().bias());
    Matrix k = execMatmul(x_norm, blk.wk().weight(), false);
    addRowVector(k, blk.wk().bias());
    Matrix v = execMatmul(x_norm, blk.wv().weight(), false);
    addRowVector(v, blk.wv().bias());

    Matrix concat(x_norm.rows(), d);
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = memberStats(m);
        stats.qkvOpsDense += 3 * mmulOps(t_seg, d, d);
        stats.qkvOpsExecuted += 3 * mmulOps(t_seg, d, d);
        stats.qRowsTotal += t_seg * blk.nHeads();
        stats.kColsTotal += t_seg * blk.nHeads();
        stats.vColsTotal += t_seg * blk.nHeads();

        denseAttentionCoreInto(blk, q, k, v, m * t_seg, t_seg, false,
                               stats, concat);
    }

    Matrix out = execMatmul(concat, blk.wo().weight(), false);
    addRowVector(out, blk.wo().bias());
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = memberStats(m);
        stats.attnOpsDense += mmulOps(t_seg, d, d);
        stats.attnOpsExecuted += mmulOps(t_seg, d, d);
    }
    return out;
}

Matrix
CohortExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    const Index n = active_.size();
    EXION_ASSERT(n > 0, "cohort ffn without beginCohortStep");
    EXION_ASSERT(x_norm.rows() % n == 0, "stacked rows ", x_norm.rows(),
                 " vs ", n, " members");
    const Index t_seg = x_norm.rows() / n;
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();

    if (opt_.useFfnReuse) {
        // Inter-iteration reuse: thresholds, masks and partial-sum
        // caches are per request — run each member against its own
        // bundle at its own iteration.
        Matrix out(x_norm.rows(), d);
        for (Index m = 0; m < n; ++m) {
            Slot &s = slot(active_[m]);
            ffnReuse_.bindState(*s.ffn);
            const Matrix x_m = sliceRows(x_norm, m * t_seg, t_seg);
            const Matrix seg =
                ffnReuse_.run(blk, x_m, iterations_[m], s.ctx->stats,
                              s.observers);
            pasteRows(out, seg, m * t_seg);
        }
        ffnReuse_.unbindState();
        return out;
    }

    // A hidden-activation observer wants per-member matrices; the
    // stacked fast path would hand it the whole stack instead.
    bool per_member = opt_.quantize;
    for (Index m = 0; m < n && !per_member; ++m)
        per_member = static_cast<bool>(
            slot(active_[m]).observers.onFfnHidden);

    if (per_member) {
        Matrix out(x_norm.rows(), d);
        for (Index m = 0; m < n; ++m) {
            Slot &s = slot(active_[m]);
            const Matrix x_m = sliceRows(x_norm, m * t_seg, t_seg);
            const Matrix seg = denseFfnImpl(blk, x_m, opt_.quantize,
                                            s.ctx->stats, s.observers);
            pasteRows(out, seg, m * t_seg);
        }
        return out;
    }

    // Dense float path: both FFN linears as tall GEMMs over the whole
    // stack; every op involved is row-independent. Account each
    // member exactly as denseFfnImpl would for its own t_seg rows.
    ExecStats scratch;
    ExecObservers none;
    Matrix out = denseFfnImpl(blk, x_norm, false, scratch, none);
    const OpCount per_member_ops =
        (blk.geglu() ? 2 : 1) * mmulOps(t_seg, d, hid)
        + mmulOps(t_seg, hid, d);
    for (Index m = 0; m < n; ++m) {
        ExecStats &stats = memberStats(m);
        stats.ffnOpsDense += per_member_ops;
        stats.ffnOpsExecuted += per_member_ops;
    }
    return out;
}

} // namespace exion
