/**
 * @file
 * Cohort-stepping tests: bit-identity of stacked execution against
 * solo runs for every benchmark and ablation mode, cohort-of-1
 * degeneracy, late joiners at iteration boundaries, mid-flight
 * removal, per-member stats partitioning, the multi-segment network
 * forward, and the refusal of quantized options.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exion/common/rng.h"
#include "exion/model/pipeline.h"
#include "exion/serve/request.h"
#include "exion/sparsity/sparse_executor.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

/** Solo run of one request, mirroring the serving layer's executor
    construction for the mode. */
struct SoloResult
{
    Matrix output;
    ExecStats stats;
};

SparseExecutor::Options
optionsFor(const ModelConfig &cfg, ExecMode mode, bool quantize)
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    return SparseExecutor::fromConfig(cfg, ffnr, ep, quantize);
}

SoloResult
runSolo(const DiffusionPipeline &pipe, ExecMode mode, bool quantize,
        u64 seed)
{
    SoloResult out;
    if (mode == ExecMode::Dense) {
        DenseExecutor exec(quantize);
        out.output = pipe.run(exec, seed);
        out.stats = exec.stats();
    } else {
        SparseExecutor exec(optionsFor(pipe.config(), mode, quantize));
        out.output = pipe.run(exec, seed);
        out.stats = exec.stats();
    }
    return out;
}

void
expectSameStats(const ExecStats &a, const ExecStats &b)
{
    EXPECT_EQ(a.qkvOpsDense, b.qkvOpsDense);
    EXPECT_EQ(a.qkvOpsExecuted, b.qkvOpsExecuted);
    EXPECT_EQ(a.attnOpsDense, b.attnOpsDense);
    EXPECT_EQ(a.attnOpsExecuted, b.attnOpsExecuted);
    EXPECT_EQ(a.ffnOpsDense, b.ffnOpsDense);
    EXPECT_EQ(a.ffnOpsExecuted, b.ffnOpsExecuted);
    EXPECT_EQ(a.ffnSparsitySum, b.ffnSparsitySum);
    EXPECT_EQ(a.ffnSparsitySamples, b.ffnSparsitySamples);
    EXPECT_EQ(a.scoreSparsitySum, b.scoreSparsitySum);
    EXPECT_EQ(a.scoreSparsitySamples, b.scoreSparsitySamples);
    EXPECT_EQ(a.qRowsSkipped, b.qRowsSkipped);
    EXPECT_EQ(a.kColsSkipped, b.kColsSkipped);
    EXPECT_EQ(a.vColsSkipped, b.vColsSkipped);
}

void
expectSameMatrix(const Matrix &a, const Matrix &b, const char *label)
{
    ASSERT_EQ(a.rows(), b.rows()) << label;
    ASSERT_EQ(a.cols(), b.cols()) << label;
    for (Index e = 0; e < a.size(); ++e)
        ASSERT_EQ(a.data()[e], b.data()[e])
            << label << " element " << e;
}

/**
 * A cohort of n members must reproduce n sequential solo runs bit for
 * bit — outputs and per-member op accounting — in every ablation
 * mode.
 */
void
expectCohortMatchesSolo(ModelConfig cfg, Index n)
{
    // Short runs that still cross dense/sparse FFN-Reuse boundaries.
    cfg.iterations = 3;
    cfg.ffnReuse.denseInterval = 1;
    const DiffusionPipeline pipe(cfg);

    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    for (ExecMode mode : modes) {
        SparseExecutor exec(optionsFor(cfg, mode, /*quantize=*/false));
        CohortRun run(pipe, exec);
        std::vector<Index> slots;
        for (Index i = 0; i < n; ++i)
            slots.push_back(run.join(1000 + 17 * i));
        while (!run.done())
            run.step();
        for (Index i = 0; i < n; ++i) {
            const SoloResult solo =
                runSolo(pipe, mode, false, 1000 + 17 * i);
            SCOPED_TRACE(cfg.name + " mode "
                         + execModeName(mode) + " member "
                         + std::to_string(i));
            expectSameMatrix(run.takeResult(slots[i]), solo.output,
                             "output");
            expectSameStats(exec.slotContext(slots[i]).stats,
                            solo.stats);
        }
    }
}

TEST(Cohort, MatchesSolo_MLD)
{
    expectCohortMatchesSolo(makeConfig(Benchmark::MLD, Scale::Reduced),
                            4);
}

TEST(Cohort, MatchesSolo_MDM)
{
    expectCohortMatchesSolo(makeConfig(Benchmark::MDM, Scale::Reduced),
                            4);
}

TEST(Cohort, MatchesSolo_EDGE)
{
    expectCohortMatchesSolo(makeConfig(Benchmark::EDGE, Scale::Reduced),
                            4);
}

TEST(Cohort, MatchesSolo_MakeAnAudio)
{
    // UNet with ResBlocks, GEGLU and pooling across stacked segments.
    expectCohortMatchesSolo(
        makeConfig(Benchmark::MakeAnAudio, Scale::Reduced), 4);
}

TEST(Cohort, MatchesSolo_StableDiffusion)
{
    expectCohortMatchesSolo(
        makeConfig(Benchmark::StableDiffusion, Scale::Reduced), 4);
}

TEST(Cohort, MatchesSolo_DiT)
{
    expectCohortMatchesSolo(makeConfig(Benchmark::DiT, Scale::Reduced),
                            4);
}

TEST(Cohort, MatchesSolo_VideoCrafter2)
{
    expectCohortMatchesSolo(
        makeConfig(Benchmark::VideoCrafter2, Scale::Reduced), 4);
}

TEST(Cohort, RefusesQuantizedOptions)
{
    // INT12 scales are calibrated per member matrix, so a stacked
    // operand would change every member's quantisation grid. The
    // refusal is an exception, not an assertion, so no build runs
    // float under an INT12 flag — and it covers every executor.
    const ModelConfig cfg = makeTinyConfig(8, 16, 2, 4);
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    for (ExecMode mode : modes) {
        SCOPED_TRACE(execModeName(mode));
        SparseExecutor exec(optionsFor(cfg, mode, true));
        EXPECT_THROW(exec.beginCohortStep({0}, {0}),
                     std::invalid_argument);
    }
    DenseExecutor dense(/*quantize=*/true);
    EXPECT_THROW(dense.beginCohortStep({0}, {0}), std::invalid_argument);
}

TEST(Cohort, CohortOfOneEqualsSoloPath)
{
    // A cohort of one runs the solo path's sub-layers on the unsliced
    // input: output and accounting equal a solo run's, and the member's
    // FFN-Reuse state lands in its slot context, one entry per block.
    const ModelConfig cfg = makeTinyConfig(8, 16, 2, 5);
    const DiffusionPipeline pipe(cfg);
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    for (ExecMode mode : modes) {
        SCOPED_TRACE(execModeName(mode));
        SparseExecutor exec(optionsFor(cfg, mode, /*quantize=*/false));
        CohortRun run(pipe, exec);
        const Index slot = run.join(42);
        while (!run.done())
            run.step();
        const SoloResult solo = runSolo(pipe, mode, false, 42);
        expectSameMatrix(run.takeResult(slot), solo.output, "output");
        const ExecContext &ctx = exec.slotContext(slot);
        expectSameStats(ctx.stats, solo.stats);
        const bool ffnr =
            mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
        EXPECT_EQ(ctx.ffn.size(), ffnr ? cfg.totalBlocks() : 0u);
    }
}

TEST(Cohort, LateJoinerAttachesAtIterationBoundary)
{
    // A member joining after two steps starts its own iteration 0
    // while the earlier members run ahead (different timesteps in one
    // stacked forward) — and everyone still matches their solo run.
    const ModelConfig cfg = makeTinyConfig(8, 16, 2, 6);
    const DiffusionPipeline pipe(cfg);
    SparseExecutor exec(
        optionsFor(cfg, ExecMode::Exion, /*quantize=*/false));
    CohortRun run(pipe, exec);
    const Index a = run.join(100);
    const Index b = run.join(200);
    run.step();
    run.step();
    EXPECT_EQ(run.iterationOf(a), 2);
    const Index late = run.join(300);
    EXPECT_EQ(run.iterationOf(late), 0);
    while (!run.done())
        run.step();
    EXPECT_TRUE(run.isFinished(late));

    const u64 seeds[] = {100, 200, 300};
    const Index slots[] = {a, b, late};
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE("member " + std::to_string(i));
        const SoloResult solo =
            runSolo(pipe, ExecMode::Exion, false, seeds[i]);
        expectSameMatrix(run.takeResult(slots[i]), solo.output,
                         "output");
        expectSameStats(exec.slotContext(slots[i]).stats, solo.stats);
    }
}

TEST(Cohort, LeaveRemovesOnlyThatRow)
{
    const ModelConfig cfg = makeTinyConfig(8, 16, 2, 5);
    const DiffusionPipeline pipe(cfg);
    SparseExecutor exec(
        optionsFor(cfg, ExecMode::Exion, /*quantize=*/false));
    CohortRun run(pipe, exec);
    const Index a = run.join(1);
    const Index victim = run.join(2);
    const Index c = run.join(3);
    run.step();
    run.leave(victim);
    EXPECT_FALSE(run.isActive(victim));
    EXPECT_EQ(run.activeCount(), 2u);
    while (!run.done())
        run.step();

    EXPECT_FALSE(run.isFinished(victim));
    for (const auto &[slot, seed] :
         {std::pair<Index, u64>{a, 1}, std::pair<Index, u64>{c, 3}}) {
        const SoloResult solo =
            runSolo(pipe, ExecMode::Exion, false, seed);
        expectSameMatrix(run.takeResult(slot), solo.output, "output");
    }
}

TEST(Cohort, MultiSegmentForwardMatchesPerSegment)
{
    // The stacked network forward itself (heterogeneous timesteps)
    // equals two solo forwards pasted together.
    const ModelConfig cfg =
        makeConfig(Benchmark::MakeAnAudio, Scale::Reduced);
    const DiffusionPipeline pipe(cfg);
    Rng rng(9);
    Matrix a(cfg.latentTokens, cfg.latentDim);
    a.fillNormal(rng, 0.0f, 1.0f);
    Matrix b(cfg.latentTokens, cfg.latentDim);
    b.fillNormal(rng, 0.0f, 1.0f);
    Matrix stacked(2 * cfg.latentTokens, cfg.latentDim);
    pasteRows(stacked, a, 0);
    pasteRows(stacked, b, cfg.latentTokens);

    // DenseExecutor steps a cohort through the same code as a solo run.
    // The forward refuses a stack its executor did not announce, which
    // would attend across members, and a solo latent on a cohort step.
    const std::vector<int> timesteps{pipe.scheduler().timestep(0),
                                     pipe.scheduler().timestep(3)};
    DenseExecutor exec;
    EXPECT_THROW(pipe.network().forward(stacked, timesteps, exec),
                 std::invalid_argument);
    exec.beginCohortStep({0, 1}, {0, 3});
    const Matrix eps = pipe.network().forward(stacked, timesteps, exec);
    EXPECT_THROW(pipe.network().forward(a, timesteps[0], exec),
                 std::invalid_argument);

    DenseExecutor solo;
    const Matrix ea =
        pipe.network().forward(a, pipe.scheduler().timestep(0), solo);
    const Matrix eb =
        pipe.network().forward(b, pipe.scheduler().timestep(3), solo);
    expectSameMatrix(sliceRows(eps, 0, cfg.latentTokens), ea, "seg a");
    expectSameMatrix(sliceRows(eps, cfg.latentTokens, cfg.latentTokens),
                     eb, "seg b");
}

} // namespace
} // namespace exion
