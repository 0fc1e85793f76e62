/**
 * @file
 * Differential tests of the process's kernel table against the scalar
 * reference through every executor path: each (benchmark x mode x
 * quantize) pipeline run, a cohort-of-N stacked run, and the serving
 * engine end-to-end. Each test runs its cases on the active table,
 * then re-runs itself, limited to the same test, as a child under
 * EXION_SIMD=scalar (rerun_self.h) and byte-compares every output and
 * op count with the child's — the table is a pure wall-clock choice,
 * never a numerics one. test_simd.cc holds the kernels to the same
 * contract one at a time; these hold whole pipelines to it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exion/common/rerun_self.h"
#include "exion/model/pipeline.h"
#include "exion/serve/batch_engine.h"
#include "exion/sparsity/cohort_executor.h"
#include "exion/tensor/simd_dispatch.h"
#include "submit_all.h"

namespace exion
{
namespace
{

/** Argument marking the child compareWithScalarChild() starts. */
constexpr char kChildArg[] = "--scalar-child";

/** Prefix of the lines the child reports on (gtest shares stdout). */
constexpr char kLinePrefix[] = "scalar-child: ";

/** One compared case: a label and the bytes both processes produce. */
using Case = std::pair<std::string, std::string>;

/** Whether this process was started by compareWithScalarChild(). */
bool
isScalarChild()
{
    std::ifstream in("/proc/self/cmdline", std::ios::binary);
    std::string arg;
    while (std::getline(in, arg, '\0'))
        if (arg == kChildArg)
            return true;
    return false;
}

/**
 * A case's bytes: the output's shape and floats, then its op counts.
 * Raw bytes, so -0.0 never passes for +0.0 or one NaN for another.
 */
std::string
caseBytes(const Matrix &out, const ExecStats &stats)
{
    std::string bytes;
    const auto put = [&](const void *p, size_t n) {
        bytes.append(static_cast<const char *>(p), n);
    };
    const Index shape[] = {out.rows(), out.cols()};
    put(shape, sizeof shape);
    if (out.size() > 0)
        put(out.data().data(), out.size() * sizeof(float));
    const OpCount ops[] = {stats.totalDense(), stats.totalExecuted()};
    put(ops, sizeof ops);
    return bytes;
}

std::string
hex(const std::string &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string s;
    s.reserve(2 * bytes.size());
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        s += kDigits[b >> 4];
        s += kDigits[b & 15];
    }
    return s;
}

/**
 * In the parent: re-runs the current test in a child under
 * EXION_SIMD=scalar and requires the child to report level scalar and
 * the same bytes for every case. In the child: asserts its level is
 * scalar and reports its cases.
 */
void
compareWithScalarChild(const std::vector<Case> &cases)
{
    if (isScalarChild()) {
        ASSERT_EQ(activeSimdLevel(), SimdLevel::Scalar);
        std::printf("%slevel %s\n", kLinePrefix,
                    simdLevelName(activeSimdLevel()));
        for (const Case &c : cases)
            std::printf("%s%s\n", kLinePrefix, hex(c.second).c_str());
        std::fflush(stdout);
        return;
    }

    const ::testing::TestInfo &test =
        *::testing::UnitTest::GetInstance()->current_test_info();
    const ChildRun child = rerunSelf(
        {std::string("--gtest_filter=") + test.test_suite_name() + "."
             + test.name(),
         kChildArg});
    ASSERT_EQ(child.status, 0) << child.out << child.err;

    std::vector<std::string> reported;
    std::istringstream lines(child.out);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind(kLinePrefix, 0) == 0)
            reported.push_back(line.substr(std::strlen(kLinePrefix)));
    ASSERT_EQ(reported.size(), cases.size() + 1) << child.out;
    ASSERT_EQ(reported[0], "level scalar");
    for (size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(cases[i].first);
        EXPECT_TRUE(hex(cases[i].second) == reported[i + 1])
            << "differs from the scalar child";
    }
}

SparseExecutor::Options
optionsFor(const ModelConfig &cfg, ExecMode mode, bool quantize)
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    return SparseExecutor::fromConfig(cfg, ffnr, ep, quantize);
}

std::string
runPipeline(const DiffusionPipeline &pipe, ExecMode mode, bool quantize,
            u64 seed)
{
    if (mode == ExecMode::Dense) {
        DenseExecutor exec(quantize);
        const Matrix out = pipe.run(exec, seed);
        return caseBytes(out, exec.stats());
    }
    SparseExecutor exec(optionsFor(pipe.config(), mode, quantize));
    const Matrix out = pipe.run(exec, seed);
    return caseBytes(out, exec.stats());
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
 * Every benchmark, every ablation mode, float and INT12: full
 * pipeline runs (randomised latents via the fixed per-case seed) must
 * agree with the scalar child to the last bit.
 */
TEST(SimdDifferentialTest, AllBenchmarksModesQuantLevels)
{
    const Benchmark benchmarks[] = {
        Benchmark::MLD,         Benchmark::MDM,
        Benchmark::EDGE,        Benchmark::MakeAnAudio,
        Benchmark::StableDiffusion, Benchmark::DiT,
        Benchmark::VideoCrafter2,
    };
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    std::vector<Case> cases;
    u64 seed = 9000;
    for (Benchmark b : benchmarks) {
        const ModelConfig cfg = shortConfig(b);
        const DiffusionPipeline pipe(cfg);
        for (ExecMode mode : modes) {
            for (bool quantize : {false, true}) {
                ++seed;
                cases.emplace_back(
                    cfg.name + " mode " + execModeName(mode)
                        + (quantize ? " int12" : " float"),
                    runPipeline(pipe, mode, quantize, seed));
            }
        }
    }
    compareWithScalarChild(cases);
}

/**
 * Cohort-of-N stacked runs in every mode: each member's rows and op
 * counts must match the scalar child's. test_cohort.cc holds stacked
 * runs to solo runs on either table, so the two guarantees compose.
 */
TEST(SimdDifferentialTest, CohortStackedMatchesScalarChild)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const DiffusionPipeline pipe(cfg);
    const Index n = 5;
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    std::vector<Case> cases;
    for (ExecMode mode : modes) {
        CohortExecutor exec(optionsFor(cfg, mode, /*quantize=*/false));
        CohortRun run(pipe, exec);
        std::vector<Index> slots;
        for (Index i = 0; i < n; ++i)
            slots.push_back(run.join(4200 + 31 * i));
        while (!run.done())
            run.step();
        for (Index i = 0; i < n; ++i)
            cases.emplace_back(
                execModeName(mode) + " member " + std::to_string(i),
                caseBytes(run.takeResult(slots[i]),
                          exec.slotContext(slots[i]).stats));
    }
    compareWithScalarChild(cases);
}

/**
 * Engine end-to-end: the same request stream through an engine (with
 * cohort batching on, so the tall fast path is exercised) must deliver
 * the scalar child's outputs and op accounting.
 */
TEST(SimdDifferentialTest, EngineMatchesScalarChild)
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

    BatchEngine::Options opts;
    opts.workers = 2;
    opts.cohortBatching = true;
    std::vector<RequestResult> results;
    {
        BatchEngine engine(opts);
        engine.addModel(cfg);
        results = submitAll(engine, requests);
    }
    std::vector<Case> cases;
    for (const RequestResult &r : results) {
        ASSERT_TRUE(r.ok());
        cases.emplace_back("request " + std::to_string(r.id),
                           caseBytes(r.output, r.stats));
    }
    compareWithScalarChild(cases);
}

} // namespace
} // namespace exion
