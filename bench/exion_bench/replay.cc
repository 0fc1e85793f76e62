#include "replay.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "exion/sparsity/cohort_executor.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/tensor/ops.h"
#include "knobs.h"

namespace exion::bench
{

SparseExecutor::Options
engineExecOptions(const ModelConfig &cfg, ExecMode mode)
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    SparseExecutor::Options o =
        SparseExecutor::fromConfig(cfg, ffnr, ep, /*quantize=*/false);
    useEngineDefaults(o);
    return o;
}

bool
sameBytes(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float))
        == 0;
}

namespace
{

/** One attention()/ffn() input, kept for the shadow reruns. */
struct Capture
{
    bool attention = true;
    const TransformerBlock *blk = nullptr;
    const ModelConfig *cfg = nullptr;
    Matrix x;
    /** Stacked segment order and each segment's iteration. */
    std::vector<Index> slots;
    std::vector<int> iterations;
};

/** Span bookkeeping of one replay thread. */
class ThreadLog
{
  public:
    ThreadLog(TraceWriter trace, int tid) : trace(std::move(trace)), tid(tid)
    {}

    void startRun(const ModelConfig &cfg)
    {
        cfg_ = &cfg;
        schedule_.emplace(cfg.ffnReuse, /*quantize=*/false);
    }

    /** The members (and their iterations) of the coming forward. */
    void setStep(std::vector<Index> slots, std::vector<int> iterations)
    {
        slots_ = std::move(slots);
        iterations_ = std::move(iterations);
    }

    template <class Call>
    Matrix timed(bool attention, const TransformerBlock &blk,
                 const Matrix &x, Call &&call)
    {
        captures.push_back({attention, &blk, cfg_, x, slots_, iterations_});
        const auto t0 = Clock::now();
        Matrix out = call();
        const auto t1 = Clock::now();
        const double s = secondsBetween(t0, t1);
        if (attention) {
            totals.attnSeconds += s;
            stepAttn_ += s;
        } else {
            const double dense = denseShare();
            totals.ffnSeconds += s;
            totals.ffnDenseIterSeconds += s * dense;
            totals.ffnSparseIterSeconds += s * (1.0 - dense);
            stepFfn_ += s;
        }
        trace.span(attention ? "block.attention" : "block.ffn", "replay",
                   tid, t0, t1,
                   "{\"block\": " + std::to_string(blk.id()) + "}");
        return out;
    }

    /** Closes one iteration (solo) or cohort step spanning [t0, t1]. */
    void endStep(Clock::time_point t0, Clock::time_point t1,
                 const char *name)
    {
        const double span = secondsBetween(t0, t1);
        const double n = static_cast<double>(iterations_.size());
        const double dense = denseShare() * n;
        totals.iterSeconds += span;
        totals.memberIters += n;
        totals.denseMemberIters += dense;
        totals.sparseMemberIters += n - dense;
        if (span > 0.0)
            totals.worstChildShare = std::max(totals.worstChildShare,
                                              (stepAttn_ + stepFfn_) / span);
        trace.span(name, "replay", tid, t0, t1,
                   "{\"iteration\": "
                       + std::to_string(iterations_.empty()
                                            ? 0
                                            : iterations_.front())
                       + ", \"members\": "
                       + std::to_string(iterations_.size()) + "}");
        stepAttn_ = stepFfn_ = 0.0;
    }

    TraceWriter trace;
    const int tid;
    ReplayTotals totals;
    std::vector<Capture> captures;

  private:
    /** Share of the step's members on an FFN-Reuse dense iteration. */
    double denseShare() const
    {
        if (iterations_.empty())
            return 0.0;
        double dense = 0.0;
        for (int it : iterations_)
            dense += schedule_->isDenseIteration(it) ? 1.0 : 0.0;
        return dense / static_cast<double>(iterations_.size());
    }

    const ModelConfig *cfg_ = nullptr;
    /** Answers which iterations FFN-Reuse computes densely. */
    std::optional<FfnReuse> schedule_;
    std::vector<Index> slots_;
    std::vector<int> iterations_;
    double stepAttn_ = 0.0;
    double stepFfn_ = 0.0;
};

/** The engine's solo executor with every block call timed. */
class TimedSolo final : public SparseExecutor
{
  public:
    TimedSolo(const Options &o, ThreadLog &log) : SparseExecutor(o), log_(log)
    {}

    void beginIteration(int iteration) override
    {
        SparseExecutor::beginIteration(iteration);
        log_.setStep({0}, {iteration});
        iterStart_ = Clock::now();
    }

    Matrix attention(const TransformerBlock &blk, const Matrix &x) override
    {
        return log_.timed(true, blk, x,
                          [&] { return SparseExecutor::attention(blk, x); });
    }

    Matrix ffn(const TransformerBlock &blk, const Matrix &x) override
    {
        return log_.timed(false, blk, x,
                          [&] { return SparseExecutor::ffn(blk, x); });
    }

    Clock::time_point iterStart() const { return iterStart_; }

  private:
    ThreadLog &log_;
    Clock::time_point iterStart_;
};

/** The engine's cohort executor with every block call timed. */
class TimedCohort final : public CohortExecutor
{
  public:
    TimedCohort(const SparseExecutor::Options &o, ThreadLog &log)
        : CohortExecutor(o), log_(log)
    {}

    void beginCohortStep(const std::vector<Index> &slots,
                         const std::vector<int> &iterations) override
    {
        CohortExecutor::beginCohortStep(slots, iterations);
        log_.setStep(slots, iterations);
    }

    Matrix attention(const TransformerBlock &blk, const Matrix &x) override
    {
        return log_.timed(true, blk, x,
                          [&] { return CohortExecutor::attention(blk, x); });
    }

    Matrix ffn(const TransformerBlock &blk, const Matrix &x) override
    {
        return log_.timed(false, blk, x,
                          [&] { return CohortExecutor::ffn(blk, x); });
    }

  private:
    ThreadLog &log_;
};

void
addOps(ReplayTotals &t, const ExecStats &s)
{
    t.attnOps += static_cast<double>(s.qkvOpsExecuted + s.attnOpsExecuted);
    t.ffnOps += static_cast<double>(s.ffnOpsExecuted);
}

void
checkOutput(ReplayTotals &t, const ReplayItem &item, const Matrix &out)
{
    ++t.replayed;
    if (item.engineOutput == nullptr || !sameBytes(out, *item.engineOutput))
        ++t.mismatches;
}

void
replaySolo(const BatchEngine &engine, const std::vector<ReplayItem> &items,
           ThreadLog &log)
{
    for (const ReplayItem &item : items) {
        const DiffusionPipeline &pipe = engine.pipeline(item.benchmark);
        log.startRun(pipe.config());
        TimedSolo exec(engineExecOptions(pipe.config(), item.mode), log);
        RunOptions opts;
        opts.noiseSeed = item.noiseSeed;
        opts.onIteration = [&](int, const Matrix &) {
            log.endStep(exec.iterStart(), Clock::now(), "iteration");
        };
        const auto r0 = Clock::now();
        const Matrix out = pipe.run(exec, opts);
        log.trace.span("request", "replay", log.tid, r0, Clock::now(),
                       "{\"mode\": \"" + execModeName(item.mode) + "\"}");
        addOps(log.totals, exec.stats());
        checkOutput(log.totals, item, out);
    }
}

void
replayCohort(const BatchEngine &engine,
             const std::vector<ReplayItem> &items, ThreadLog &log)
{
    if (items.empty())
        return;
    const DiffusionPipeline &pipe = engine.pipeline(items[0].benchmark);
    log.startRun(pipe.config());
    TimedCohort exec(engineExecOptions(pipe.config(), items[0].mode), log);
    CohortRun run(pipe, exec);
    std::vector<Index> slots;
    for (const ReplayItem &item : items)
        slots.push_back(run.join(item.noiseSeed));
    const auto r0 = Clock::now();
    while (!run.done()) {
        const auto t0 = Clock::now();
        run.step();
        log.endStep(t0, Clock::now(), "step");
    }
    log.trace.span("cohort", "replay", log.tid, r0, Clock::now(),
                   "{\"members\": " + std::to_string(items.size()) + "}");
    for (size_t i = 0; i < items.size(); ++i) {
        addOps(log.totals, exec.slotContext(slots[i]).stats);
        checkOutput(log.totals, items[i], run.takeResult(slots[i]));
    }
}

/** Every captured block input through a dense executor. */
void
shadowDense(ThreadLog &log, bool cohort)
{
    for (const Capture &c : log.captures) {
        const SparseExecutor::Options o =
            engineExecOptions(*c.cfg, ExecMode::Dense);
        Clock::time_point t0, t1;
        if (cohort) {
            CohortExecutor exec(o);
            exec.beginCohortStep(c.slots, c.iterations);
            t0 = Clock::now();
            (void)(c.attention ? exec.attention(*c.blk, c.x)
                               : exec.ffn(*c.blk, c.x));
            t1 = Clock::now();
        } else {
            SparseExecutor exec(o);
            t0 = Clock::now();
            (void)(c.attention ? exec.attention(*c.blk, c.x)
                               : exec.ffn(*c.blk, c.x));
            t1 = Clock::now();
        }
        (c.attention ? log.totals.denseAttnSeconds
                     : log.totals.denseFfnSeconds) += secondsBetween(t0, t1);
        log.trace.span(c.attention ? "shadow.dense_attention"
                                   : "shadow.dense_ffn",
                       "shadow", log.tid, t0, t1);
    }
}

/**
 * Eager prediction alone on every captured attention input, one member
 * segment at a time as the executors run it, in two timed parts: the
 * Int12 quantisation of the segment and of every head's Wq/Wk slice,
 * which the executor redoes on every attention() call, then
 * predictHeadScore and decideFromPrediction per head and combineNeeds.
 */
void
shadowEp(ThreadLog &log)
{
    for (const Capture &c : log.captures) {
        if (!c.attention)
            continue;
        const TransformerBlock &blk = *c.blk;
        const Index dh = blk.headDim();
        const SparseExecutor::Options o =
            engineExecOptions(*c.cfg, ExecMode::Exion);
        const Index members = c.slots.size();
        const Index t = c.x.rows() / members;
        const float temp = static_cast<float>(blk.scoreTemp());
        for (Index m = 0; m < members; ++m) {
            const auto t0 = Clock::now();
            const QuantMatrix qx = QuantMatrix::fromFloat(
                sliceRows(c.x, m * t, t), IntWidth::Int12);
            std::vector<std::pair<QuantMatrix, QuantMatrix>> heads;
            heads.reserve(blk.nHeads());
            for (Index h = 0; h < blk.nHeads(); ++h)
                heads.emplace_back(
                    QuantMatrix::fromFloat(
                        sliceCols(blk.wq().weight(), h * dh, dh),
                        IntWidth::Int12),
                    QuantMatrix::fromFloat(
                        sliceCols(blk.wk().weight(), h * dh, dh),
                        IntWidth::Int12));
            const auto t1 = Clock::now();
            std::vector<HeadDecision> decisions;
            decisions.reserve(heads.size());
            for (const auto &[qwq, qwk] : heads) {
                Matrix predicted =
                    predictHeadScore(qx, qwq, qwk, o.lodMode);
                for (float &v : predicted.data())
                    v *= temp;
                decisions.push_back(decideFromPrediction(predicted, o.ep));
            }
            (void)combineNeeds(decisions, t);
            const auto t2 = Clock::now();
            log.totals.epQuantizeSeconds += secondsBetween(t0, t1);
            log.totals.epPredictSeconds += secondsBetween(t1, t2);
            log.trace.span("shadow.ep_quantize", "shadow", log.tid, t0, t1);
            log.trace.span("shadow.ep_predict", "shadow", log.tid, t1, t2);
        }
    }
}

void
accumulate(ReplayTotals &into, const ReplayTotals &t)
{
    into.memberIters += t.memberIters;
    into.denseMemberIters += t.denseMemberIters;
    into.sparseMemberIters += t.sparseMemberIters;
    into.iterSeconds += t.iterSeconds;
    into.attnSeconds += t.attnSeconds;
    into.ffnSeconds += t.ffnSeconds;
    into.ffnDenseIterSeconds += t.ffnDenseIterSeconds;
    into.ffnSparseIterSeconds += t.ffnSparseIterSeconds;
    into.denseAttnSeconds += t.denseAttnSeconds;
    into.denseFfnSeconds += t.denseFfnSeconds;
    into.epQuantizeSeconds += t.epQuantizeSeconds;
    into.epPredictSeconds += t.epPredictSeconds;
    into.attnOps += t.attnOps;
    into.ffnOps += t.ffnOps;
    into.replayed += t.replayed;
    into.mismatches += t.mismatches;
    into.worstChildShare = std::max(into.worstChildShare, t.worstChildShare);
}

} // namespace

ReplayTotals
replayRequests(const BatchEngine &engine,
               const std::vector<std::vector<ReplayItem>> &groups,
               bool cohort, TraceWriter &trace)
{
    std::vector<std::unique_ptr<ThreadLog>> logs;
    for (size_t g = 0; g < groups.size(); ++g) {
        const int tid = 100 + static_cast<int>(g);
        trace.threadName(tid, "replay " + std::to_string(g));
        logs.push_back(std::make_unique<ThreadLog>(trace.sibling(), tid));
    }
    std::vector<std::exception_ptr> errors(groups.size());
    {
        std::vector<std::jthread> threads;
        for (size_t g = 0; g < groups.size(); ++g) {
            threads.emplace_back([&, g] {
                try {
                    ThreadLog &log = *logs[g];
                    if (cohort)
                        replayCohort(engine, groups[g], log);
                    else
                        replaySolo(engine, groups[g], log);
                    shadowDense(log, cohort);
                    shadowEp(log);
                } catch (...) {
                    errors[g] = std::current_exception();
                }
            });
        }
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    ReplayTotals totals;
    for (const auto &log : logs) {
        accumulate(totals, log->totals);
        trace.append(log->trace.take());
    }
    return totals;
}

} // namespace exion::bench
