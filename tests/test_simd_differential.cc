/**
 * @file
 * Differential tests of the Exact SIMD tier against Scalar through
 * every executor path: each (benchmark x mode x quantize) pipeline
 * run, a cohort-of-N stacked run, and the serving engine end-to-end
 * must produce byte-identical outputs — the tier is a pure wall-clock
 * knob, never a numerics knob. test_simd.cc holds the kernels to the
 * same contract one at a time; these hold whole pipelines to it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "exion/model/pipeline.h"
#include "exion/serve/batch_engine.h"
#include "exion/sparsity/cohort_executor.h"
#include "submit_all.h"

namespace exion
{
namespace
{

/** Bitwise equality: operator== would let -0.0 pass as +0.0. */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && (a.size() == 0
            || std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0);
}

SparseExecutor::Options
optionsFor(const ModelConfig &cfg, ExecMode mode, bool quantize,
           SimdTier simd)
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    SparseExecutor::Options opt =
        SparseExecutor::fromConfig(cfg, ffnr, ep, quantize);
    opt.simd = simd;
    return opt;
}

Matrix
runPipeline(const DiffusionPipeline &pipe, ExecMode mode, bool quantize,
            SimdTier simd, u64 seed)
{
    if (mode == ExecMode::Dense) {
        DenseExecutor exec(quantize, simd);
        return pipe.run(exec, seed);
    }
    SparseExecutor exec(optionsFor(pipe.config(), mode, quantize, simd));
    return pipe.run(exec, seed);
}

/** Short runs that still cross a dense/sparse FFN-Reuse boundary. */
ModelConfig
shortConfig(Benchmark b)
{
    ModelConfig cfg = makeConfig(b, Scale::Reduced);
    cfg.iterations = 3;
    cfg.ffnReuse.denseInterval = 1;
    return cfg;
}

/**
 * Every benchmark, every ablation mode, float and INT12: Exact and
 * Scalar executors must agree to the last bit over full pipeline runs
 * (randomised latents via the fixed per-case seed).
 */
TEST(SimdTierDifferentialTest, AllBenchmarksModesQuantLevels)
{
    const Benchmark benchmarks[] = {
        Benchmark::MLD,         Benchmark::MDM,
        Benchmark::EDGE,        Benchmark::MakeAnAudio,
        Benchmark::StableDiffusion, Benchmark::DiT,
        Benchmark::VideoCrafter2,
    };
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    u64 seed = 9000;
    for (Benchmark b : benchmarks) {
        const ModelConfig cfg = shortConfig(b);
        const DiffusionPipeline pipe(cfg);
        for (ExecMode mode : modes) {
            for (bool quantize : {false, true}) {
                SCOPED_TRACE(cfg.name + " mode " + execModeName(mode)
                             + (quantize ? " int12" : " float"));
                ++seed;
                const Matrix scalar = runPipeline(
                    pipe, mode, quantize, SimdTier::Scalar, seed);
                const Matrix exact = runPipeline(
                    pipe, mode, quantize, SimdTier::Exact, seed);
                ASSERT_TRUE(bitIdentical(scalar, exact));
            }
        }
    }
}

/**
 * Cohort-of-N on the Exact tier vs solo runs on Scalar: the two
 * orthogonal bit-identity guarantees (stacking and tier) must
 * compose.
 */
TEST(SimdTierDifferentialTest, CohortStackedExactMatchesSoloScalar)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const DiffusionPipeline pipe(cfg);
    const Index n = 5;
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    for (ExecMode mode : modes) {
        SCOPED_TRACE(execModeName(mode));
        CohortExecutor exec(optionsFor(cfg, mode, /*quantize=*/false,
                                       SimdTier::Exact));
        CohortRun run(pipe, exec);
        std::vector<Index> slots;
        for (Index i = 0; i < n; ++i)
            slots.push_back(run.join(4200 + 31 * i));
        while (!run.done())
            run.step();
        for (Index i = 0; i < n; ++i) {
            SCOPED_TRACE(::testing::Message() << "member " << i);
            const Matrix solo = runPipeline(pipe, mode, false,
                                            SimdTier::Scalar, 4200 + 31 * i);
            const Matrix stacked = run.takeResult(slots[i]);
            ASSERT_TRUE(bitIdentical(solo, stacked));
        }
    }
}

/**
 * Engine end-to-end: identical request streams through a Scalar-tier
 * engine and an Exact-tier engine (with cohort batching on, so the
 * tall fast path is exercised) must deliver bit-identical outputs and
 * identical op accounting.
 */
TEST(SimdTierDifferentialTest, EngineExactMatchesScalarEngine)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    std::vector<ServeRequest> requests;
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::Exion,
                              ExecMode::FfnReuseOnly, ExecMode::EpOnly};
    for (u64 i = 0; i < 8; ++i) {
        ServeRequest req;
        req.id = i;
        req.benchmark = cfg.benchmark;
        req.mode = modes[i % 4];
        req.quantize = i % 5 == 4;
        req.noiseSeed = 7700 + i;
        requests.push_back(req);
    }

    const auto run_with = [&](SimdTier simd) {
        BatchEngine::Options opts;
        opts.workers = 2;
        opts.cohortBatching = true;
        opts.simdTier = simd;
        BatchEngine engine(opts);
        engine.addModel(cfg);
        return submitAll(engine, requests);
    };
    const std::vector<RequestResult> scalar = run_with(SimdTier::Scalar);
    const std::vector<RequestResult> exact = run_with(SimdTier::Exact);
    ASSERT_EQ(scalar.size(), exact.size());
    for (Index i = 0; i < scalar.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "request " << i);
        ASSERT_TRUE(scalar[i].ok());
        ASSERT_TRUE(exact[i].ok());
        ASSERT_TRUE(bitIdentical(scalar[i].output, exact[i].output));
        EXPECT_EQ(scalar[i].stats.totalDense(),
                  exact[i].stats.totalDense());
        EXPECT_EQ(scalar[i].stats.totalExecuted(),
                  exact[i].stats.totalExecuted());
    }
}

} // namespace
} // namespace exion
