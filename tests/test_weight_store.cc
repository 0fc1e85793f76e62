/**
 * @file
 * The immutable weight store: EXWS format round-trips, corruption
 * detection, quantized-at-rest exactness, and the differential gate —
 * a pipeline served from a saved, mmap'd store must be bit-identical
 * to the seeded in-memory build across every benchmark, execution
 * mode and quantisation level, solo and cohort, and two engines
 * registering one store must share its weight image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exion/common/mmap_file.h"
#include "exion/common/rng.h"
#include "exion/model/pipeline.h"
#include "exion/model/scheduler.h"
#include "exion/model/weight_store.h"
#include "exion/serve/batch_engine.h"
#include "exion/sparsity/cohort_executor.h"
#include "exion/tensor/ops.h"
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

/** Bitwise equality of quantized images, scale bits included. */
bool
bitIdenticalQuant(const QuantMatrix &a, const QuantMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && std::memcmp(&a.params().scale, &b.params().scale,
                       sizeof(double)) == 0
        && a.params().width == b.params().width
        && (a.size() == 0
            || std::memcmp(a.rowPtr(0), b.rowPtr(0),
                           a.size() * sizeof(i32)) == 0);
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
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

Matrix
runPipeline(const DiffusionPipeline &pipe, ExecMode mode, bool quantize,
            u64 seed)
{
    if (mode == ExecMode::Dense) {
        DenseExecutor exec(quantize);
        return pipe.run(exec, seed);
    }
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    SparseExecutor exec(
        SparseExecutor::fromConfig(pipe.config(), ffnr, ep, quantize));
    return pipe.run(exec, seed);
}

Matrix
randomMatrix(Index rows, Index cols, u64 seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    m.fillNormal(rng, 0.0f, 1.0f);
    return m;
}

// ------------------------------------------------------------ mmap

TEST(MmapFileTest, MapsExistingFileReadOnly)
{
    const std::string path = tempPath("mmap_basic.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "exion mmap payload";
    }
    const MmapFile f = MmapFile::open(path);
    ASSERT_EQ(f.size(), 18u);
    EXPECT_EQ(std::memcmp(f.data(), "exion mmap payload", 18), 0);
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(f.mapped());
#endif
    std::remove(path.c_str());
}

TEST(MmapFileTest, MissingFileThrows)
{
    EXPECT_THROW(MmapFile::open(tempPath("no_such_file.bin")),
                 std::runtime_error);
}

// ---------------------------------------------------------- format

TEST(WeightStoreTest, SaveLoadRoundTripPreservesEverything)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto built = WeightStore::build(cfg);
    const std::string path = tempPath("roundtrip.exws");
    built->save(path);
    const auto loaded = WeightStore::load(path);

#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(loaded->mapped());
#endif
    EXPECT_EQ(built->checksum(), loaded->checksum());
    EXPECT_EQ(built->sizeBytes(), loaded->sizeBytes());

    const ModelConfig &lc = loaded->config();
    EXPECT_EQ(lc.name, cfg.name);
    EXPECT_EQ(lc.benchmark, cfg.benchmark);
    EXPECT_EQ(lc.scale, cfg.scale);
    EXPECT_EQ(lc.iterations, cfg.iterations);
    EXPECT_EQ(lc.seed, cfg.seed);
    EXPECT_EQ(lc.stages.size(), cfg.stages.size());
    EXPECT_EQ(lc.latentTokens, cfg.latentTokens);
    EXPECT_EQ(lc.latentDim, cfg.latentDim);
    EXPECT_EQ(lc.geglu, cfg.geglu);
    EXPECT_EQ(lc.ffnReuse.denseInterval, cfg.ffnReuse.denseInterval);

    ASSERT_EQ(built->entries().size(), loaded->entries().size());
    for (const auto &[name, e] : built->entries()) {
        SCOPED_TRACE(name);
        ASSERT_EQ(loaded->entries().count(name), 1u);
        const auto &le = loaded->entries().at(name);
        EXPECT_EQ(le.kind, e.kind);
        EXPECT_EQ(le.rows, e.rows);
        EXPECT_EQ(le.cols, e.cols);
        EXPECT_EQ(le.byteLen, e.byteLen);
        EXPECT_EQ(le.offset % 64, 0u);
        if (e.kind == WeightStore::TensorKind::Float32)
            EXPECT_TRUE(bitIdentical(built->matrix(name),
                                     loaded->matrix(name)));
        else
            EXPECT_TRUE(bitIdenticalQuant(built->quant(name),
                                          loaded->quant(name)));
    }
    EXPECT_TRUE(built->matrix("inProj.w").borrowed());
    EXPECT_TRUE(loaded->matrix("inProj.w").borrowed());
    std::remove(path.c_str());
}

TEST(WeightStoreTest, CorruptionAndForeignImagesAreRejected)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto built = WeightStore::build(cfg);
    const std::string path = tempPath("corrupt.exws");
    built->save(path);

    std::vector<char> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const auto write_variant = [&](auto mutate) {
        std::vector<char> bytes = image;
        mutate(bytes);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // A flipped payload byte fails the checksum.
    write_variant([](std::vector<char> &b) { b[b.size() / 2] ^= 0x01; });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // Truncation fails the size check.
    write_variant([](std::vector<char> &b) { b.resize(b.size() / 2); });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // Foreign magic is refused before any parsing.
    write_variant([](std::vector<char> &b) { b[0] = 'X'; });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // An unknown version is refused.
    write_variant([](std::vector<char> &b) { b[12] = 99; });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // The pristine image still loads after all that.
    write_variant([](std::vector<char> &) {});
    EXPECT_NO_THROW(WeightStore::load(path));
    std::remove(path.c_str());
}

/**
 * Saves a store holding only a config that went through mutate, then
 * expects load() to refuse the file with the typed error.
 */
template <typename Mutate>
void
expectLoadRefuses(const std::string &file, Mutate mutate)
{
    ModelConfig cfg = shortConfig(Benchmark::MLD);
    mutate(cfg);
    const std::string path = tempPath(file);
    WeightStoreBuilder(cfg).finish()->save(path);
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);
    std::remove(path.c_str());
}

constexpr double kNanSetting = std::numeric_limits<double>::quiet_NaN();
constexpr double kInfSetting = std::numeric_limits<double>::infinity();

TEST(WeightStoreTest, LoadRefusesTopKOutsideZeroToOne)
{
    // topK = 2 made decideFromPrediction keep twice a row's width.
    for (const double top_k : {2.0, 1.0000001, 0.0, -0.5, kNanSetting,
                               kInfSetting})
        expectLoadRefuses("topk.exws", [&](ModelConfig &cfg) {
            cfg.ep.topK = top_k;
        });
}

TEST(WeightStoreTest, LoadRefusesNonFiniteQTh)
{
    for (const double q_th : {kNanSetting, kInfSetting, -kInfSetting})
        expectLoadRefuses("qth.exws", [&](ModelConfig &cfg) {
            cfg.ep.qTh = q_th;
        });
}

TEST(WeightStoreTest, LoadRefusesTargetSparsityOutsideUnitInterval)
{
    for (const double target : {1.5, -0.01, kNanSetting, kInfSetting})
        expectLoadRefuses("target.exws", [&](ModelConfig &cfg) {
            cfg.ffnReuse.targetSparsity = target;
        });
}

TEST(WeightStoreTest, LoadRefusesNegativeDenseInterval)
{
    // -1 divides by zero in FfnReuse::isDenseIteration once the
    // constructor's assertion is compiled out.
    for (const int interval : {-1, std::numeric_limits<int>::min()})
        expectLoadRefuses("interval.exws", [&](ModelConfig &cfg) {
            cfg.ffnReuse.denseInterval = interval;
        });
}

TEST(WeightStoreTest, LoadRefusesConfigWithoutStages)
{
    // The network's first view asserted a stage exists.
    expectLoadRefuses("nostages.exws",
                      [](ModelConfig &cfg) { cfg.stages.clear(); });
}

TEST(WeightStoreTest, LoadRefusesZeroHeads)
{
    // 0 heads divided by zero (SIGFPE) when the block was viewed.
    expectLoadRefuses("zeroheads.exws",
                      [](ModelConfig &cfg) { cfg.stages[0].nHeads = 0; });
}

TEST(WeightStoreTest, LoadRefusesHeadsNotDividingWidth)
{
    expectLoadRefuses("oddheads.exws",
                      [](ModelConfig &cfg) { cfg.stages[0].nHeads = 3; });
}

TEST(WeightStoreTest, LoadRefusesZeroFfnMult)
{
    // An empty FFN hidden layer has no sparsity quantile.
    expectLoadRefuses("zeromult.exws",
                      [](ModelConfig &cfg) { cfg.stages[0].ffnMult = 0; });
}

TEST(WeightStoreTest, LoadRefusesZeroWidth)
{
    expectLoadRefuses("zerowidth.exws",
                      [](ModelConfig &cfg) { cfg.stages[0].dModel = 0; });
}

TEST(WeightStoreTest, LoadRefusesZeroTokens)
{
    // 0 stage tokens divided by zero (SIGFPE) at the first request.
    expectLoadRefuses("zerotokens.exws",
                      [](ModelConfig &cfg) { cfg.stages[0].tokens = 0; });
    expectLoadRefuses("zerolatent.exws", [](ModelConfig &cfg) {
        cfg.latentTokens = 0;
        cfg.stages[0].tokens = 0;
    });
}

TEST(WeightStoreTest, LoadRefusesStageTokensOffWholeFactors)
{
    // MLD's one stage runs at its 8 latent tokens. 3 is no whole
    // factor of 8 down, 12 none up, and a lone 4-token stage pools
    // by 2 but never returns to 8.
    for (const Index tokens : {Index{3}, Index{12}, Index{4}})
        expectLoadRefuses("tokens.exws", [&](ModelConfig &cfg) {
            cfg.stages[0].tokens = tokens;
        });
    // A UNet whose decoder comes back up by 3 from 16 to 48 tokens,
    // not to the 64 it left.
    expectLoadRefuses("unet.exws", [](ModelConfig &cfg) {
        cfg = shortConfig(Benchmark::MakeAnAudio);
        cfg.stages.back().tokens = 48;
    });
}

TEST(WeightStoreTest, LoadRefusesIterationsOffTheTrainingSchedule)
{
    // 0 iterations, or more than the schedule's training steps,
    // aborted registration on the scheduler's assertion.
    for (const int iterations : {0, -1, std::numeric_limits<int>::min(),
                                 kTrainSteps + 1})
        expectLoadRefuses("iterations.exws", [&](ModelConfig &cfg) {
            cfg.iterations = iterations;
        });
}

TEST(WeightStoreTest, LoadAcceptsEveryBenchmarkConfig)
{
    std::vector<ModelConfig> configs = {makeTinyConfig()};
    for (Benchmark b : allBenchmarks())
        for (Scale scale : {Scale::Full, Scale::Reduced})
            configs.push_back(makeConfig(b, scale));
    const std::string path = tempPath("configs.exws");
    for (const ModelConfig &cfg : configs) {
        SCOPED_TRACE(cfg.name);
        WeightStoreBuilder(cfg).finish()->save(path);
        EXPECT_NO_THROW(WeightStore::load(path));
    }
    std::remove(path.c_str());
}

TEST(WeightStoreTest, LoadAcceptsSparsitySettingsAtTheirBounds)
{
    ModelConfig cfg = shortConfig(Benchmark::MLD);
    cfg.ep = {-3.0, 1.0};
    cfg.ffnReuse = {0, 0.0};
    const std::string path = tempPath("bounds.exws");
    WeightStore::build(cfg)->save(path);
    EXPECT_NO_THROW(WeightStore::load(path));
    cfg.ffnReuse.targetSparsity = 1.0;
    cfg.ep.topK = std::numeric_limits<double>::denorm_min();
    WeightStore::build(cfg)->save(path);
    EXPECT_NO_THROW(WeightStore::load(path));
    std::remove(path.c_str());
}

// ------------------------------------------------- quantized at rest

TEST(WeightStoreTest, QuantAtRestRoundTripMatchesLiveQuantization)
{
    // 63/64/65 columns straddle the store's 64-byte section alignment
    // and the kernels' 64-lane mask granularity.
    ModelConfig cfg = shortConfig(Benchmark::MLD);
    u64 seed = 31337;
    for (Index cols : {Index{63}, Index{64}, Index{65}}) {
        SCOPED_TRACE(::testing::Message() << cols << " cols");
        const Matrix w = randomMatrix(17, cols, ++seed);
        const QuantMatrix live = QuantMatrix::fromFloat(w, IntWidth::Int12);

        WeightStoreBuilder builder(cfg);
        builder.add("w", w);
        builder.add("w.q", live);
        const auto store = builder.finish();
        const std::string path =
            tempPath("qrt" + std::to_string(cols) + ".exws");
        store->save(path);
        const auto loaded = WeightStore::load(path);

        const QuantMatrix at_rest = loaded->quant("w.q");
        EXPECT_TRUE(at_rest.borrowed());
        EXPECT_TRUE(bitIdenticalQuant(live, at_rest));
        // Re-quantizing the stored float image reproduces the at-rest
        // image: quantisation is deterministic, so quantized-at-rest
        // and quantized-per-request are the same bits.
        EXPECT_TRUE(bitIdenticalQuant(
            QuantMatrix::fromFloat(loaded->matrix("w"), IntWidth::Int12),
            at_rest));
        // Dequantize and integer matmul agree to the bit.
        EXPECT_TRUE(bitIdentical(live.toFloat(), at_rest.toFloat()));
        const QuantMatrix qx = QuantMatrix::fromFloat(
            randomMatrix(5, 17, 999), IntWidth::Int12);
        // x (5x17) * w (17xcols) in the quant domain.
        EXPECT_TRUE(bitIdentical(matmulQuant(qx, live),
                                 matmulQuant(qx, at_rest)));
        std::remove(path.c_str());
    }
}

TEST(WeightStoreTest, QuantAtRestAdversarialScalesAndShapes)
{
    ModelConfig cfg = shortConfig(Benchmark::MLD);
    WeightStoreBuilder builder(cfg);

    // Extreme dynamic range: quantize() clamps per contract, and the
    // clamped image must round-trip exactly.
    Matrix extreme(2, 3);
    extreme(0, 0) = std::numeric_limits<float>::max();
    extreme(0, 1) = std::numeric_limits<float>::denorm_min();
    extreme(0, 2) = -std::numeric_limits<float>::max();
    extreme(1, 0) = 0.0f;
    extreme(1, 1) = -0.0f;
    extreme(1, 2) = 1.0f;
    const QuantMatrix extreme_q =
        QuantMatrix::fromFloat(extreme, IntWidth::Int12);
    builder.add("extreme.q", extreme_q);

    // Adversarial stored scales (Inf / NaN doubles) must survive the
    // index round-trip bit-for-bit — the loader validates structure,
    // not numerology.
    QuantParams inf_params;
    inf_params.scale = std::numeric_limits<double>::infinity();
    inf_params.width = IntWidth::Int12;
    const i32 inf_ints[4] = {1, -2, 3, -4};
    builder.add("inf.q", QuantMatrix::borrow(inf_ints, 2, 2, inf_params));

    QuantParams nan_params;
    nan_params.scale = std::numeric_limits<double>::quiet_NaN();
    nan_params.width = IntWidth::Int16;
    const i32 nan_ints[2] = {7, -7};
    builder.add("nan.q", QuantMatrix::borrow(nan_ints, 1, 2, nan_params));

    // Degenerate shapes: zero rows and zero cols, float and quant.
    builder.add("zr", Matrix(0, 5));
    builder.add("zc", Matrix(5, 0));
    builder.add("zr.q", QuantMatrix::fromFloat(Matrix(0, 5),
                                               IntWidth::Int12));
    builder.add("zc.q", QuantMatrix::fromFloat(Matrix(5, 0),
                                               IntWidth::Int12));

    const auto store = builder.finish();
    const std::string path = tempPath("adversarial.exws");
    store->save(path);
    const auto loaded = WeightStore::load(path);

    EXPECT_TRUE(bitIdenticalQuant(extreme_q, loaded->quant("extreme.q")));
    // The FLT_MAX magnitude maps to the INT12 extreme, the rest of
    // the range collapses to 0/±1-ish small codes — clamp engaged.
    EXPECT_EQ(loaded->quant("extreme.q").rowPtr(0)[0], 2047);
    EXPECT_EQ(loaded->quant("extreme.q").rowPtr(0)[2], -2047);

    const QuantMatrix inf_loaded = loaded->quant("inf.q");
    EXPECT_TRUE(std::isinf(inf_loaded.params().scale));
    EXPECT_EQ(std::memcmp(inf_loaded.rowPtr(0), inf_ints,
                          sizeof(inf_ints)),
              0);
    const QuantMatrix nan_loaded = loaded->quant("nan.q");
    EXPECT_TRUE(std::isnan(nan_loaded.params().scale));
    EXPECT_EQ(nan_loaded.params().width, IntWidth::Int16);
    EXPECT_EQ(std::memcmp(nan_loaded.rowPtr(0), nan_ints,
                          sizeof(nan_ints)),
              0);

    EXPECT_EQ(loaded->matrix("zr").rows(), 0);
    EXPECT_EQ(loaded->matrix("zr").cols(), 5);
    EXPECT_EQ(loaded->matrix("zc").rows(), 5);
    EXPECT_EQ(loaded->matrix("zc").cols(), 0);
    EXPECT_EQ(loaded->quant("zr.q").size(), 0);
    EXPECT_EQ(loaded->quant("zc.q").size(), 0);
    EXPECT_EQ(loaded->quant("zr.q").params().scale, 1.0);
    std::remove(path.c_str());
}

/**
 * Every at-rest image build() writes equals what it is derived from:
 * "<name>.w.q" the Int12 image of "<name>.w", "<name>.wT" the
 * transpose of "<name>.w", "<name>.wT.q" the Int12 image of that.
 * No request path derives them any more, so nothing else holds them
 * to their sources.
 */
TEST(WeightStoreTest, BuiltAtRestImagesMatchTheirSources)
{
    const auto ends_with = [](const std::string &name, const char *tail) {
        const std::string t(tail);
        return name.size() > t.size()
            && name.compare(name.size() - t.size(), t.size(), t) == 0;
    };
    for (Benchmark b : allBenchmarks()) {
        const ModelConfig cfg = makeConfig(b, Scale::Reduced);
        SCOPED_TRACE(cfg.name);
        const auto store = WeightStore::build(cfg);
        Index weights = 0, images = 0, transposes = 0, transposed_images = 0;
        for (const auto &[name, e] : store->entries()) {
            SCOPED_TRACE(name);
            if (ends_with(name, ".w")) {
                ++weights;
            } else if (ends_with(name, ".w.q")) {
                ++images;
                const std::string w = name.substr(0, name.size() - 2);
                EXPECT_TRUE(bitIdenticalQuant(
                    store->quant(name),
                    QuantMatrix::fromFloat(store->matrix(w),
                                           IntWidth::Int12)));
            } else if (ends_with(name, ".wT")) {
                ++transposes;
                const std::string w = name.substr(0, name.size() - 1);
                EXPECT_TRUE(bitIdentical(store->matrix(name),
                                         transpose(store->matrix(w))));
            } else if (ends_with(name, ".wT.q")) {
                ++transposed_images;
                const std::string wt = name.substr(0, name.size() - 2);
                EXPECT_TRUE(bitIdenticalQuant(
                    store->quant(name),
                    QuantMatrix::fromFloat(store->matrix(wt),
                                           IntWidth::Int12)));
            }
        }
        EXPECT_GT(weights, 0u);
        EXPECT_EQ(images, weights);
        const Index first_ffn_layers = cfg.totalBlocks() * (cfg.geglu ? 2 : 1);
        EXPECT_EQ(transposes, first_ffn_layers);
        EXPECT_EQ(transposed_images, first_ffn_layers);
    }
}

// ------------------------------------------------------------ views

/**
 * The store build(cfg) makes, with tensor name taken out and then
 * whatever put adds in its place (nothing, to leave it missing).
 */
template <typename Put>
std::shared_ptr<const WeightStore>
rebuiltWith(const ModelConfig &cfg, const std::string &name, Put put)
{
    const auto built = WeightStore::build(cfg);
    WeightStoreBuilder b(cfg);
    for (const auto &[n, e] : built->entries()) {
        if (n == name)
            continue;
        if (e.kind == WeightStore::TensorKind::Float32)
            b.add(n, built->matrix(n));
        else
            b.add(n, built->quant(n));
    }
    put(b, *built);
    return b.finish();
}

/**
 * Checksum-valid stores whose tensors disagree with their config, one
 * tensor each: short, long or untransposed float tensors, Int12
 * images of the wrong shape or width, and a missing image. Before the
 * views checked shapes, a 1x63 bias or a 67-row inProj.w registered
 * and then panicked at the first request, or read past its section
 * with assertions off.
 */
std::vector<std::pair<std::string, std::shared_ptr<const WeightStore>>>
misfitStores()
{
    const ModelConfig mld = shortConfig(Benchmark::MLD);           // d 64
    const ModelConfig geglu = shortConfig(Benchmark::MakeAnAudio); // d 48
    const auto matrix = [](const std::string &name, Index rows,
                           Index cols) {
        return [=](WeightStoreBuilder &b, const WeightStore &) {
            b.add(name, Matrix(rows, cols));
        };
    };
    const auto image = [](const std::string &name, const std::string &of,
                          Index rows, IntWidth width) {
        return [=](WeightStoreBuilder &b, const WeightStore &built) {
            b.add(name, QuantMatrix::fromFloat(
                            sliceRows(built.matrix(of), 0, rows), width));
        };
    };
    const auto copy = [](const std::string &name, const std::string &of) {
        return [=](WeightStoreBuilder &b, const WeightStore &built) {
            b.add(name, built.matrix(of));
        };
    };
    const auto nothing = [](WeightStoreBuilder &, const WeightStore &) {};
    std::vector<std::pair<std::string, std::shared_ptr<const WeightStore>>>
        stores;
    const auto misfit = [&](const ModelConfig &cfg, const std::string &name,
                            auto put) {
        stores.emplace_back(cfg.name + " " + name,
                            rebuiltWith(cfg, name, put));
    };
    misfit(mld, "blk0.wq.b", matrix("blk0.wq.b", 1, 63));
    misfit(mld, "inProj.w", matrix("inProj.w", 67, 64));
    misfit(mld, "condEmbed", matrix("condEmbed", 1, 63));
    misfit(mld, "s0.timeProj.w",
           matrix("s0.timeProj.w", kTimeEmbedDim + 1, 64));
    misfit(mld, "blk0.wq.w.q",
           image("blk0.wq.w.q", "blk0.wq.w", 63, IntWidth::Int12));
    misfit(mld, "blk1.ffn2.w.q",
           image("blk1.ffn2.w.q", "blk1.ffn2.w", 256, IntWidth::Int16));
    misfit(mld, "blk2.wo.w.q", nothing);
    misfit(mld, "blk3.ffn1.wT", copy("blk3.ffn1.wT", "blk3.ffn1.w"));
    misfit(mld, "blk3.ffn1.wT.q",
           image("blk3.ffn1.wT.q", "blk3.ffn1.wT", 255, IntWidth::Int12));
    misfit(geglu, "blk1.ffn1v.wT", copy("blk1.ffn1v.wT", "blk1.ffn1v.w"));
    misfit(geglu, "s1.channelProj.w", matrix("s1.channelProj.w", 47, 96));
    misfit(geglu, "s2.res0.conv2.w", matrix("s2.res0.conv2.w", 48, 47));
    return stores;
}

TEST(WeightStoreViewTest, PipelineRefusesTensorsOffTheConfig)
{
    for (const auto &[what, store] : misfitStores()) {
        SCOPED_TRACE(what);
        EXPECT_THROW(DiffusionPipeline{store}, WeightStoreError);
    }
}

TEST(WeightStoreViewTest, EngineRefusesTensorsOffTheConfigAndServesOn)
{
    const ModelConfig edge = shortConfig(Benchmark::EDGE);
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(edge);
    for (const auto &[what, store] : misfitStores()) {
        SCOPED_TRACE(what);
        EXPECT_THROW(
            engine.registerModel(store->config().benchmark, store),
            WeightStoreError);
    }
    ServeRequest req;
    req.benchmark = Benchmark::MLD;
    EXPECT_THROW(engine.submit(req), UnknownModelError);

    req.benchmark = edge.benchmark;
    req.mode = ExecMode::Dense;
    req.noiseSeed = 5;
    const RequestResult result = engine.submit(req).get();
    ASSERT_TRUE(result.ok());
    DenseExecutor exec;
    EXPECT_TRUE(bitIdentical(DiffusionPipeline(edge).run(exec, 5),
                             result.output));
}

// ----------------------------------------------------- differential

/**
 * The tentpole gate: every benchmark, every ablation mode, float and
 * INT12 — a pipeline over the saved-then-mmap'd store must reproduce
 * the seeded in-memory build to the last bit.
 */
TEST(WeightStoreDifferentialTest, MmapStoreMatchesSeededBuildEverywhere)
{
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    u64 seed = 77000;
    for (Benchmark b : allBenchmarks()) {
        const ModelConfig cfg = shortConfig(b);
        const DiffusionPipeline seeded(cfg);

        const std::string path = tempPath(cfg.name + ".exws");
        seeded.store()->save(path);
        const auto loaded = WeightStore::load(path);
        const DiffusionPipeline mapped(loaded);

        for (ExecMode mode : modes) {
            for (bool quantize : {false, true}) {
                SCOPED_TRACE(cfg.name + " mode " + execModeName(mode)
                             + (quantize ? " int12" : " float"));
                ++seed;
                const Matrix ref =
                    runPipeline(seeded, mode, quantize, seed);
                const Matrix got =
                    runPipeline(mapped, mode, quantize, seed);
                ASSERT_EQ(maxAbsDiff(ref, got), 0.0);
                ASSERT_TRUE(bitIdentical(ref, got));
            }
        }
        std::remove(path.c_str());
    }
}

/** Cohort stepping over the mmap'd store vs solo seeded-build runs. */
TEST(WeightStoreDifferentialTest, CohortOverMmapStoreMatchesSoloSeeded)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const DiffusionPipeline seeded(cfg);
    const std::string path = tempPath("cohort.exws");
    seeded.store()->save(path);
    const DiffusionPipeline mapped(WeightStore::load(path));

    const Index n = 5;
    for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
        SCOPED_TRACE(execModeName(mode));
        const bool sparse = mode == ExecMode::Exion;
        CohortExecutor exec(SparseExecutor::fromConfig(
            cfg, /*use_ffn_reuse=*/sparse, /*use_ep=*/sparse,
            /*quantize=*/false));
        CohortRun run(mapped, exec);
        std::vector<Index> slots;
        for (Index i = 0; i < n; ++i)
            slots.push_back(run.join(6100 + 17 * i));
        while (!run.done())
            run.step();
        for (Index i = 0; i < n; ++i) {
            SCOPED_TRACE(::testing::Message() << "member " << i);
            const Matrix solo = runPipeline(seeded, mode, false,
                                            6100 + 17 * i);
            const Matrix stacked = run.takeResult(slots[i]);
            ASSERT_EQ(maxAbsDiff(solo, stacked), 0.0);
            ASSERT_TRUE(bitIdentical(solo, stacked));
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------- serving

TEST(WeightStoreEngineTest, TwoEnginesShareOneStoreBitIdentically)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const std::string path = tempPath("engines.exws");
    WeightStore::build(cfg)->save(path);
    const auto store = WeightStore::load(path);
    const long base_use = store.use_count();

    std::vector<ServeRequest> requests;
    for (u64 i = 0; i < 4; ++i) {
        ServeRequest req;
        req.id = i;
        req.benchmark = cfg.benchmark;
        req.mode = i % 2 == 0 ? ExecMode::Dense : ExecMode::Exion;
        req.noiseSeed = 8800 + i;
        requests.push_back(req);
    }

    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine first(opts);
    first.registerModel(cfg.benchmark, store);
    BatchEngine second(opts);
    second.registerModel(cfg.benchmark, store);
    // Both engines hold views into the one store — no copy happened.
    EXPECT_EQ(store.use_count(), base_use + 2);
    EXPECT_EQ(first.pipeline(cfg.benchmark).store().get(), store.get());
    EXPECT_EQ(second.pipeline(cfg.benchmark).store().get(), store.get());

    // A third engine on the legacy build path is the reference.
    BatchEngine legacy(opts);
    legacy.addModel(cfg);

    const auto a = submitAll(first, requests);
    const auto b = submitAll(second, requests);
    const auto c = submitAll(legacy, requests);
    ASSERT_EQ(a.size(), requests.size());
    for (Index i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "request " << i);
        ASSERT_TRUE(a[i].ok() && b[i].ok() && c[i].ok());
        ASSERT_TRUE(bitIdentical(a[i].output, b[i].output));
        ASSERT_TRUE(bitIdentical(a[i].output, c[i].output));
    }
    std::remove(path.c_str());
}

TEST(WeightStoreEngineTest, RegisterFromFileServesTheBenchmark)
{
    const ModelConfig cfg = shortConfig(Benchmark::EDGE);
    const std::string path = tempPath("fromfile.exws");
    WeightStore::build(cfg)->save(path);

    BatchEngine engine;
    engine.registerModelFromFile(path);
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.mode = ExecMode::Dense;
    req.noiseSeed = 321;
    Ticket t = engine.submit(req);
    ASSERT_TRUE(t.get().ok());

    const DiffusionPipeline seeded(cfg);
    DenseExecutor exec;
    EXPECT_TRUE(bitIdentical(seeded.run(exec, 321), t.get().output));
    std::remove(path.c_str());
}

TEST(WeightStoreEngineTest, RegisterWrongBenchmarkOrNullStoreThrows)
{
    BatchEngine engine;
    EXPECT_THROW(engine.registerModel(Benchmark::MLD, nullptr),
                 std::invalid_argument);
    const auto store = WeightStore::build(shortConfig(Benchmark::MLD));
    EXPECT_THROW(engine.registerModel(Benchmark::DiT, store),
                 std::invalid_argument);
    // The matching benchmark registers fine.
    EXPECT_NO_THROW(engine.registerModel(Benchmark::MLD, store));
}

TEST(WeightStoreEngineTest, RegistrationOnStoppedEngineThrowsTyped)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto store = WeightStore::build(cfg);
    BatchEngine engine;
    engine.shutdown();
    EXPECT_THROW(engine.registerModel(cfg.benchmark, store),
                 EngineStopped);
    EXPECT_THROW(engine.addModel(cfg), EngineStopped);
    const std::string path = tempPath("stopped.exws");
    store->save(path);
    EXPECT_THROW(engine.registerModelFromFile(path), EngineStopped);
    std::remove(path.c_str());
}

TEST(WeightStoreEngineTest, FileRegistrationServesExionLikeTheStore)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto store = WeightStore::build(cfg);
    const std::string path = tempPath("file_engine.exws");
    store->save(path);

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.mode = ExecMode::Exion;
    req.noiseSeed = 11;

    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine plain(opts);
    plain.registerModel(cfg.benchmark, store);
    const RequestResult reference = plain.submit(req).get();

    BatchEngine viaFile(opts);
    viaFile.registerModelFromFile(path);
    const RequestResult result = viaFile.submit(req).get();

    ASSERT_EQ(result.output.rows(), reference.output.rows());
    ASSERT_EQ(result.output.cols(), reference.output.cols());
    const auto got = result.output.data();
    const auto want = reference.output.data();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    std::remove(path.c_str());
}

} // namespace
} // namespace exion
