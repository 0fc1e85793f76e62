/**
 * @file
 * Per-layer replay: reruns a sample of a workload's requests through
 * the public pipeline surface (DiffusionPipeline::run(exec,
 * RunOptions), CohortRun) with executors that time every attention()
 * and ffn() call, then reruns the captured block inputs through a
 * dense executor and through eager prediction alone (its operand
 * quantisation and its prediction timed apart).
 */

#ifndef EXION_BENCH_REPLAY_H_
#define EXION_BENCH_REPLAY_H_

#include <vector>

#include "exion/serve/batch_engine.h"
#include "trace_events.h"

namespace exion::bench
{

/** One request to replay, and the engine's output it must reproduce. */
struct ReplayItem
{
    Benchmark benchmark = Benchmark::MLD;
    ExecMode mode = ExecMode::Exion;
    u64 noiseSeed = 0;
    const Matrix *engineOutput = nullptr;
};

/**
 * Sums over every replayed iteration. A "member iteration" is one
 * request's one denoising iteration; a cohort step of n members counts
 * n, so per-iteration figures compare across solo and cohort runs.
 */
struct ReplayTotals
{
    double memberIters = 0.0;
    /** Member iterations that FFN-Reuse computes densely / reuses. */
    double denseMemberIters = 0.0;
    double sparseMemberIters = 0.0;

    double iterSeconds = 0.0; //!< iteration (or cohort step) spans
    double attnSeconds = 0.0; //!< attention() spans
    double ffnSeconds = 0.0;  //!< ffn() spans
    double ffnDenseIterSeconds = 0.0;
    double ffnSparseIterSeconds = 0.0;

    /** Captured inputs through a dense executor, and through EP: its
        per-call Int12 quantisation, then its prediction. */
    double denseAttnSeconds = 0.0;
    double denseFfnSeconds = 0.0;
    double epQuantizeSeconds = 0.0;
    double epPredictSeconds = 0.0;

    /** Executed ops the replay's executors counted. */
    double attnOps = 0.0;
    double ffnOps = 0.0;

    u64 replayed = 0;
    u64 mismatches = 0;
    /** Largest (attention + ffn) / iteration span seen; <= 1 when the
        block spans nest inside their iteration. */
    double worstChildShare = 0.0;
};

/**
 * Replays each group on its own thread (as many threads as groups, so
 * the replay sees the contention of that many busy workers). With
 * cohort set, each group steps as one CohortRun and must share one
 * (benchmark, mode). Every replayed output is compared byte for byte
 * with the engine's. Spans go to trace, threads as tids 100, 101, ...
 */
ReplayTotals replayRequests(const BatchEngine &engine,
                            const std::vector<std::vector<ReplayItem>> &groups,
                            bool cohort, TraceWriter &trace);

/** Executor options the engine builds for a mode, at engine knobs. */
SparseExecutor::Options engineExecOptions(const ModelConfig &cfg,
                                          ExecMode mode);

/** Whether two outputs are the same bytes (shape included). */
bool sameBytes(const Matrix &a, const Matrix &b);

} // namespace exion::bench

#endif // EXION_BENCH_REPLAY_H_
