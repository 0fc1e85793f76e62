/**
 * @file
 * The immutable weight store: EXWS format round-trips, corruption
 * detection, a float-only layout, and the differential gate — a
 * pipeline served from a saved, mmap'd store must be bit-identical to
 * the seeded in-memory build across every benchmark, execution mode
 * and quantisation level, solo and cohort, and two engines registering
 * one store must share its weight image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exion/common/mmap_file.h"
#include "exion/model/pipeline.h"
#include "exion/model/scheduler.h"
#include "exion/model/weight_store.h"
#include "exion/serve/batch_engine.h"
#include "exion/sparsity/sparse_executor.h"
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
        EXPECT_EQ(le.rows, e.rows);
        EXPECT_EQ(le.cols, e.cols);
        EXPECT_EQ(le.byteLen, e.byteLen);
        EXPECT_EQ(le.offset % 64, 0u);
        EXPECT_TRUE(bitIdentical(built->matrix(name), loaded->matrix(name)));
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

    // So is a version-1 file, whose index also described Int12 images.
    // The version sits in the header, outside the checksum.
    write_variant([](std::vector<char> &b) {
        const u32 v1 = 1;
        std::memcpy(b.data() + 12, &v1, sizeof(v1));
    });
    try {
        WeightStore::load(path);
        ADD_FAILURE() << "a version-1 store loaded";
    } catch (const WeightStoreError &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
                  std::string::npos)
            << e.what();
    }

    // The pristine image still loads after all that.
    write_variant([](std::vector<char> &) {});
    EXPECT_NO_THROW(WeightStore::load(path));
    std::remove(path.c_str());
}

/** FNV-1a-64, the checksum a store keeps of its bytes past the
    64-byte header. */
u64
fnv1a64(const char *data, size_t n)
{
    u64 h = 14695981039346656037ULL;
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(WeightStoreTest, RefusesTensorWhoseByteLengthWraps)
{
    // 1 x 2^62 floats take 2^64 bytes, which wrap to the 0 bytes the
    // record claims; the view would then reach far past its empty
    // section. The file is re-sealed, so only the shape check stands
    // in the way.
    WeightStoreBuilder builder(shortConfig(Benchmark::MLD));
    builder.add("x", Matrix(1, 1));
    const std::string path = tempPath("wrap.exws");
    builder.finish()->save(path);
    ASSERT_NO_THROW(WeightStore::load(path));
    std::vector<char> b;
    {
        std::ifstream in(path, std::ios::binary);
        b.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    }
    // Header bytes [48, 56) hold the index offset. The one record is
    // a u32 name length, the name, then rows, cols, section offset
    // and byte length as u64.
    u64 index_at = 0;
    std::memcpy(&index_at, b.data() + 48, sizeof(index_at));
    ASSERT_LE(index_at + 5 + 32, b.size());
    u32 name_len = 0;
    std::memcpy(&name_len, b.data() + index_at, sizeof(name_len));
    ASSERT_EQ(name_len, 1u);
    ASSERT_EQ(b[index_at + 4], 'x');
    const u64 record = index_at + 5;
    const u64 rows = 1, cols = u64{1} << 62, byte_len = 0;
    std::memcpy(b.data() + record, &rows, sizeof(rows));
    std::memcpy(b.data() + record + 8, &cols, sizeof(cols));
    std::memcpy(b.data() + record + 24, &byte_len, sizeof(byte_len));
    const u64 sum = fnv1a64(b.data() + 64, b.size() - 64);
    std::memcpy(b.data() + 24, &sum, sizeof(sum));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(b.data(), static_cast<std::streamsize>(b.size()));
    }
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);
    std::remove(path.c_str());
}

/** The message load(path) refuses the file with ("" if it loads). */
std::string
loadRefusal(const std::string &path)
{
    try {
        WeightStore::load(path);
    } catch (const WeightStoreError &e) {
        return e.what();
    }
    return "";
}

TEST(WeightStoreTest, RefusesTransposeThatIsNotItsSource)
{
    // FFN-Reuse's sparse iterations read blk0.ffn1.wT and every dense
    // product reads blk0.ffn1.w. A file whose transpose was zeroed and
    // re-sealed loaded, and served wrong FFN-Reuse outputs.
    const auto built = WeightStore::build(makeConfig(Benchmark::MLD,
                                                     Scale::Reduced));
    const std::string path = tempPath("transpose.exws");
    built->save(path);
    std::vector<char> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const WeightStore::Entry &wt = built->entries().at("blk0.ffn1.wT");
    const auto write_resealed = [&](auto mutate) {
        std::vector<char> b = image;
        mutate(b.data() + wt.offset);
        const u64 sum = fnv1a64(b.data() + 64, b.size() - 64);
        std::memcpy(b.data() + 24, &sum, sizeof(sum));
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(b.data(), static_cast<std::streamsize>(b.size()));
    };
    const std::string refusal = "weight store: tensor 'blk0.ffn1.wT' is "
                                "not the transpose of 'blk0.ffn1.w'";
    write_resealed([&](char *t) { std::fill(t, t + wt.byteLen, 0); });
    EXPECT_EQ(loadRefusal(path), refusal);
    // One flipped sign bit is refused as well.
    write_resealed([&](char *t) { t[wt.byteLen - 1] ^= char(0x80); });
    EXPECT_EQ(loadRefusal(path), refusal);
    write_resealed([](char *) {});
    EXPECT_EQ(loadRefusal(path), "");

    // The compare is bitwise: -0.0 is not the transpose of +0.0. A
    // transpose without its source, or shaped as the source, is
    // refused too.
    const auto store_of = [&](const std::vector<std::pair<std::string,
                                                          Matrix>> &ts) {
        WeightStoreBuilder builder(shortConfig(Benchmark::MLD));
        for (const auto &[name, m] : ts)
            builder.add(name, m);
        builder.finish()->save(path);
        return loadRefusal(path);
    };
    Matrix w(2, 3);
    w(1, 2) = 5.0f;
    Matrix signed_zero = transpose(w);
    signed_zero(0, 0) = -0.0f;
    EXPECT_EQ(store_of({{"x.w", w}, {"x.wT", transpose(w)}}), "");
    EXPECT_EQ(store_of({{"x.w", w}, {"x.wT", signed_zero}}),
              "weight store: tensor 'x.wT' is not the transpose of 'x.w'");
    EXPECT_EQ(store_of({{"x.wT", transpose(w)}}),
              "weight store: tensor 'x.wT' has no source 'x.w'");
    EXPECT_EQ(store_of({{"x.w", w}, {"x.wT", w}}),
              "weight store: tensor 'x.wT' is not shaped as the "
              "transpose of 'x.w'");
    std::remove(path.c_str());
}

TEST(WeightStoreTest, ZeroRowAndZeroColumnTensorsRoundTrip)
{
    WeightStoreBuilder builder(shortConfig(Benchmark::MLD));
    builder.add("zr", Matrix(0, 5));
    builder.add("zc", Matrix(5, 0));
    const std::string path = tempPath("empty.exws");
    builder.finish()->save(path);
    const auto loaded = WeightStore::load(path);
    EXPECT_EQ(loaded->matrix("zr").rows(), 0);
    EXPECT_EQ(loaded->matrix("zr").cols(), 5);
    EXPECT_EQ(loaded->matrix("zc").rows(), 5);
    EXPECT_EQ(loaded->matrix("zc").cols(), 0);
    EXPECT_EQ(loaded->entries().at("zr").byteLen, 0u);
    EXPECT_EQ(loaded->entries().at("zc").byteLen, 0u);
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

TEST(WeightStoreTest, BuildRefusesWhatLoadRefuses)
{
    // A config load() refuses is refused by build() too, so a library
    // caller gets a WeightStoreError instead of the scheduler's
    // assertion (iterations past kTrainSteps) or a model that cannot
    // run; through the engine as well, which then serves on.
    std::vector<std::pair<std::string, ModelConfig>> bad;
    ModelConfig cfg = shortConfig(Benchmark::MLD);
    cfg.iterations = kTrainSteps + 1;
    bad.emplace_back("iterations 1001", cfg);
    cfg = shortConfig(Benchmark::MLD);
    cfg.ep.topK = 0.0;
    bad.emplace_back("topK 0", cfg);
    cfg = shortConfig(Benchmark::MLD);
    cfg.stages.clear();
    bad.emplace_back("no stages", cfg);

    const ModelConfig good = shortConfig(Benchmark::MLD);
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    for (const auto &[what, config] : bad) {
        SCOPED_TRACE(what);
        EXPECT_THROW(WeightStore::build(config), WeightStoreError);
        EXPECT_THROW(engine.addModel(config), WeightStoreError);
    }
    ServeRequest req;
    req.benchmark = good.benchmark;
    EXPECT_THROW(engine.submit(req), UnknownModelError);

    engine.addModel(good);
    req.mode = ExecMode::Exion;
    req.noiseSeed = 7;
    const RequestResult result = engine.submit(req).get();
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(bitIdentical(runPipeline(DiffusionPipeline(good),
                                         ExecMode::Exion, false, 7),
                             result.output));
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

// ------------------------------------------------------------ layout

/**
 * A built store holds float tensors only: each layer's "<name>.w" and
 * "<name>.b", condEmbed, and "<name>.wT" = transpose("<name>.w") for
 * each first FFN layer. No request path derives the transposes, so
 * nothing else holds them to their source.
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
        Index weights = 0, biases = 0, transposes = 0;
        for (const auto &[name, e] : store->entries()) {
            SCOPED_TRACE(name);
            EXPECT_EQ(e.byteLen, e.rows * e.cols * sizeof(float));
            if (ends_with(name, ".w")) {
                ++weights;
            } else if (ends_with(name, ".b")) {
                ++biases;
                const std::string w = name.substr(0, name.size() - 1) + "w";
                ASSERT_EQ(store->entries().count(w), 1u);
                EXPECT_EQ(e.cols, store->entries().at(w).cols);
            } else if (ends_with(name, ".wT")) {
                ++transposes;
                const std::string w = name.substr(0, name.size() - 1);
                EXPECT_TRUE(bitIdentical(store->matrix(name),
                                         transpose(store->matrix(w))));
            } else {
                EXPECT_EQ(name, "condEmbed");
            }
        }
        EXPECT_GT(weights, 0u);
        EXPECT_EQ(biases, weights);
        const Index first_ffn_layers = cfg.totalBlocks() * (cfg.geglu ? 2 : 1);
        EXPECT_EQ(transposes, first_ffn_layers);
        EXPECT_EQ(store->entries().size(), weights + biases + transposes + 1);
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
    for (const auto &[n, e] : built->entries())
        if (n != name)
            b.add(n, built->matrix(n));
    put(b, *built);
    return b.finish();
}

/**
 * Checksum-valid stores whose tensors disagree with their config, one
 * tensor each: short, long or untransposed tensors and a missing one.
 * Before the views checked shapes, a 1x63 bias or a 67-row inProj.w
 * registered and then panicked at the first request, or read past its
 * section with assertions off.
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
    misfit(mld, "blk2.wo.b", nothing);
    misfit(mld, "blk3.ffn1.wT", copy("blk3.ffn1.wT", "blk3.ffn1.w"));
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
        SparseExecutor exec(SparseExecutor::fromConfig(
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
