#include "exion/sparsity/cohort_executor.h"

#include <stdexcept>

#include "exion/tensor/ops.h"

namespace exion
{

namespace
{

/**
 * fn(x, ctx) on each member's row segment of x_norm, pasted into one
 * stacked output. A cohort of one runs fn on x_norm itself, with no
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

CohortExecutor::CohortExecutor(const SparseExecutor::Options &opt)
    : opt_(opt), ffnReuse_(opt.ffnReuse, /*quantize=*/false)
{
    if (opt.quantize)
        throw std::invalid_argument(
            "CohortExecutor runs float only; quantize needs a solo "
            "executor");
}

void
CohortExecutor::attachSlot(Index id, ExecContext &ctx)
{
    slots_[id] = Slot{&ctx, nullptr};
}

ExecContext &
CohortExecutor::slotContext(Index id)
{
    Slot &s = slots_[id];
    if (s.ctx == nullptr) {
        s.owned = std::make_unique<ExecContext>();
        s.ctx = s.owned.get();
    }
    return *s.ctx;
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
    active_.clear();
    for (Index m = 0; m < slots.size(); ++m) {
        ExecContext &ctx = slotContext(slots[m]);
        ctx.iteration = iterations[m];
        active_.push_back(&ctx);
    }
}

Matrix
CohortExecutor::attention(const TransformerBlock &blk,
                          const Matrix &x_norm)
{
    if (!opt_.useEp)
        return denseAttentionImpl(blk, x_norm, false, active_);
    // Eager prediction's decisions are calibrated per request matrix.
    return eachMember(active_, x_norm,
                      [&](const Matrix &x, ExecContext &ctx) {
                          return epAttentionImpl(blk, x, opt_.ep,
                                                 opt_.lodMode, false,
                                                 ctx.stats, observers);
                      });
}

Matrix
CohortExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    if (!opt_.useFfnReuse)
        return denseFfnImpl(blk, x_norm, false, active_, observers);
    // Thresholds, masks and partial sums are per request.
    return eachMember(active_, x_norm,
                      [&](const Matrix &x, ExecContext &ctx) {
                          return ffnReuse_.run(blk, x, ctx, observers);
                      });
}

} // namespace exion
