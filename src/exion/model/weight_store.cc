#include "exion/model/weight_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "exion/common/rng.h"
#include "exion/model/scheduler.h"
#include "exion/tensor/ops.h"

namespace exion
{

namespace
{

constexpr char kMagic[8] = {'E', 'X', 'I', 'O', 'N', 'W', 'S', '1'};
constexpr u32 kEndianTag = 0x01020304u;
constexpr u32 kVersion = 1;
constexpr u64 kHeaderSize = 64;
constexpr u64 kSectionAlign = 64;

// Header field offsets (see weight_store.h for the layout).
constexpr u64 kOffEndian = 8;
constexpr u64 kOffVersion = 12;
constexpr u64 kOffFileSize = 16;
constexpr u64 kOffChecksum = 24;
constexpr u64 kOffConfigOffset = 32;
constexpr u64 kOffConfigSize = 40;
constexpr u64 kOffIndexOffset = 48;
constexpr u64 kOffIndexCount = 56;

u64
fnv1a64(const u8 *data, u64 n)
{
    u64 h = 14695981039346656037ULL;
    for (u64 i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

template <typename T>
void
put(std::vector<u8> &buf, T v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t at = buf.size();
    buf.resize(at + sizeof(T));
    std::memcpy(buf.data() + at, &v, sizeof(T));
}

template <typename T>
void
putAt(std::vector<u8> &buf, u64 at, T v)
{
    std::memcpy(buf.data() + at, &v, sizeof(T));
}

void
putStr(std::vector<u8> &buf, const std::string &s)
{
    put<u32>(buf, static_cast<u32>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
}

/** Bounds-checked sequential reader over the image. */
class Reader
{
  public:
    Reader(const u8 *data, u64 size, u64 at) : data_(data), size_(size),
                                               at_(at)
    {
    }

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        need(sizeof(T));
        T v;
        std::memcpy(&v, data_ + at_, sizeof(T));
        at_ += sizeof(T);
        return v;
    }

    std::string
    getStr(u64 max_len)
    {
        const u32 len = get<u32>();
        if (len > max_len)
            throw WeightStoreError("weight store: string length "
                                   + std::to_string(len)
                                   + " exceeds limit");
        need(len);
        std::string s(reinterpret_cast<const char *>(data_ + at_), len);
        at_ += len;
        return s;
    }

    u64 at() const { return at_; }

  private:
    void
    need(u64 n) const
    {
        if (at_ + n > size_ || at_ + n < at_)
            throw WeightStoreError("weight store: truncated image");
    }

    const u8 *data_;
    u64 size_;
    u64 at_;
};

u8
encodeWidth(IntWidth w)
{
    switch (w) {
      case IntWidth::Int12:
        return 0;
      case IntWidth::Int16:
        return 1;
      case IntWidth::Int32:
        return 2;
    }
    EXION_PANIC("unhandled IntWidth");
}

IntWidth
decodeWidth(u8 v)
{
    switch (v) {
      case 0:
        return IntWidth::Int12;
      case 1:
        return IntWidth::Int16;
      case 2:
        return IntWidth::Int32;
    }
    throw WeightStoreError("weight store: bad IntWidth tag "
                           + std::to_string(v));
}

void
serializeConfig(std::vector<u8> &buf, const ModelConfig &cfg)
{
    putStr(buf, cfg.name);
    put<u32>(buf, static_cast<u32>(cfg.benchmark));
    put<u32>(buf, static_cast<u32>(cfg.type));
    put<u32>(buf, static_cast<u32>(cfg.scale));
    put<u64>(buf, cfg.stages.size());
    for (const StageConfig &sc : cfg.stages) {
        put<u64>(buf, sc.tokens);
        put<u64>(buf, sc.dModel);
        put<u64>(buf, sc.nHeads);
        put<u64>(buf, sc.ffnMult);
        put<u64>(buf, sc.nBlocks);
        put<u64>(buf, sc.nResBlocks);
        put<double>(buf, sc.scoreTemp);
    }
    put<u64>(buf, cfg.latentTokens);
    put<u64>(buf, cfg.latentDim);
    put<u8>(buf, cfg.geglu ? 1 : 0);
    put<i32>(buf, cfg.iterations);
    put<i32>(buf, cfg.ffnReuse.denseInterval);
    put<double>(buf, cfg.ffnReuse.targetSparsity);
    put<double>(buf, cfg.ep.qTh);
    put<double>(buf, cfg.ep.topK);
    put<double>(buf, cfg.intraTargetSparsity);
    put<u64>(buf, cfg.seed);
}

template <typename Enum>
Enum
checkedEnum(u32 v, u32 count, const char *what)
{
    if (v >= count)
        throw WeightStoreError(std::string("weight store: bad ") + what
                               + " tag " + std::to_string(v));
    return static_cast<Enum>(v);
}

ModelConfig
deserializeConfig(Reader &r)
{
    ModelConfig cfg;
    cfg.name = r.getStr(4096);
    cfg.benchmark = checkedEnum<Benchmark>(r.get<u32>(), 7, "benchmark");
    cfg.type = checkedEnum<NetworkType>(r.get<u32>(), 3, "network type");
    cfg.scale = checkedEnum<Scale>(r.get<u32>(), 2, "scale");
    const u64 n_stages = r.get<u64>();
    if (n_stages > 4096)
        throw WeightStoreError("weight store: implausible stage count");
    cfg.stages.resize(n_stages);
    for (StageConfig &sc : cfg.stages) {
        sc.tokens = r.get<u64>();
        sc.dModel = r.get<u64>();
        sc.nHeads = r.get<u64>();
        sc.ffnMult = r.get<u64>();
        sc.nBlocks = r.get<u64>();
        sc.nResBlocks = r.get<u64>();
        sc.scoreTemp = r.get<double>();
    }
    cfg.latentTokens = r.get<u64>();
    cfg.latentDim = r.get<u64>();
    cfg.geglu = r.get<u8>() != 0;
    cfg.iterations = r.get<i32>();
    cfg.ffnReuse.denseInterval = r.get<i32>();
    cfg.ffnReuse.targetSparsity = r.get<double>();
    cfg.ep.qTh = r.get<double>();
    cfg.ep.topK = r.get<double>();
    cfg.intraTargetSparsity = r.get<double>();
    cfg.seed = r.get<u64>();
    return cfg;
}

/**
 * Refuses sparsity settings a file may carry that the executors cannot
 * run: a top-k ratio outside (0, 1], a q_th or FFN-Reuse target that is
 * not a number in range, a negative dense interval.
 */
void
checkSparsitySettings(const ModelConfig &cfg)
{
    const auto bad = [](const std::string &what, double v) {
        throw WeightStoreError("weight store: " + what + " "
                               + std::to_string(v) + " out of range");
    };
    if (!std::isfinite(cfg.ep.topK) || cfg.ep.topK <= 0.0
        || cfg.ep.topK > 1.0)
        bad("ep.topK", cfg.ep.topK);
    if (!std::isfinite(cfg.ep.qTh))
        bad("ep.qTh", cfg.ep.qTh);
    if (!std::isfinite(cfg.ffnReuse.targetSparsity)
        || cfg.ffnReuse.targetSparsity < 0.0
        || cfg.ffnReuse.targetSparsity > 1.0)
        bad("ffnReuse.targetSparsity", cfg.ffnReuse.targetSparsity);
    if (cfg.ffnReuse.denseInterval < 0)
        bad("ffnReuse.denseInterval", cfg.ffnReuse.denseInterval);
}

/**
 * Refuses a config a file may carry that no network can be built from
 * or run: no stages; a stage with zero tokens, dModel or ffnMult, or
 * whose nHeads is zero or does not divide dModel; stage token counts
 * that do not go from latentTokens and back to it by whole factors
 * (the network pools and repeats tokens by their ratio); an iteration
 * count the scheduler cannot sample from its training schedule.
 */
void
checkNetworkShape(const ModelConfig &cfg)
{
    const auto bad = [](const std::string &what) {
        throw WeightStoreError("weight store: " + what);
    };
    if (cfg.stages.empty())
        bad("config has no stages");
    Index tokens = cfg.latentTokens;
    for (Index s = 0; s < cfg.stages.size(); ++s) {
        const StageConfig &sc = cfg.stages[s];
        const std::string stage = "stage " + std::to_string(s) + " ";
        if (sc.tokens == 0 || sc.dModel == 0 || sc.ffnMult == 0)
            bad(stage + "has zero tokens, dModel or ffnMult");
        if (sc.nHeads == 0 || sc.dModel % sc.nHeads != 0)
            bad(stage + "nHeads " + std::to_string(sc.nHeads)
                + " does not divide dModel " + std::to_string(sc.dModel));
        const Index lo = std::min(tokens, sc.tokens);
        if (lo == 0 || std::max(tokens, sc.tokens) % lo != 0)
            bad(stage + "tokens " + std::to_string(sc.tokens)
                + " are no whole factor of " + std::to_string(tokens));
        tokens = sc.tokens;
    }
    if (tokens != cfg.latentTokens)
        bad("last stage ends at " + std::to_string(tokens)
            + " tokens, not latentTokens "
            + std::to_string(cfg.latentTokens));
    if (cfg.iterations <= 0 || cfg.iterations > kTrainSteps)
        bad("iterations " + std::to_string(cfg.iterations)
            + " not in [1, " + std::to_string(kTrainSteps) + "]");
}

/** Refuses a view of name unless it is rows x cols. */
template <typename View>
View
shaped(View v, const std::string &name, Index rows, Index cols)
{
    if (v.rows() != rows || v.cols() != cols)
        throw WeightStoreError(
            "weight store: tensor '" + name + "' is "
            + std::to_string(v.rows()) + "x" + std::to_string(v.cols())
            + ", config needs " + std::to_string(rows) + "x"
            + std::to_string(cols));
    return v;
}

} // namespace

// ------------------------------------------------------------ builder

WeightStoreBuilder::WeightStoreBuilder(const ModelConfig &cfg)
    : cfg_(cfg), buf_(kHeaderSize, 0)
{
    const u64 config_offset = buf_.size();
    serializeConfig(buf_, cfg);
    putAt<u64>(buf_, kOffConfigOffset, config_offset);
    putAt<u64>(buf_, kOffConfigSize, buf_.size() - config_offset);
}

u64
WeightStoreBuilder::reserve(u64 n)
{
    u64 at = buf_.size();
    at = (at + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
    buf_.resize(at + n, 0);
    return at;
}

void
WeightStoreBuilder::add(const std::string &name, const Matrix &m)
{
    EXION_ASSERT(!finished_, "add() after finish()");
    WeightStore::Entry e;
    e.kind = WeightStore::TensorKind::Float32;
    e.rows = m.rows();
    e.cols = m.cols();
    e.byteLen = static_cast<u64>(m.size()) * sizeof(float);
    e.offset = reserve(e.byteLen);
    if (e.byteLen != 0)
        std::memcpy(buf_.data() + e.offset, m.data().data(), e.byteLen);
    records_.push_back({name, e});
}

void
WeightStoreBuilder::add(const std::string &name, const QuantMatrix &q)
{
    EXION_ASSERT(!finished_, "add() after finish()");
    WeightStore::Entry e;
    e.kind = WeightStore::TensorKind::QuantInt;
    e.params = q.params();
    e.rows = q.rows();
    e.cols = q.cols();
    e.byteLen = static_cast<u64>(q.size()) * sizeof(i32);
    e.offset = reserve(e.byteLen);
    if (e.byteLen != 0)
        std::memcpy(buf_.data() + e.offset, q.rowPtr(0), e.byteLen);
    records_.push_back({name, e});
}

Matrix
WeightStoreBuilder::addLinear(const std::string &name, Index in, Index out,
                              Rng &rng)
{
    Matrix w(in, out);
    w.fillNormal(rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(in)));
    add(name + ".w", w);
    add(name + ".b", Matrix(1, out));
    add(name + ".w.q", QuantMatrix::fromFloat(w, IntWidth::Int12));
    return w;
}

void
WeightStoreBuilder::addTransposed(const std::string &name, const Matrix &w)
{
    const Matrix wt = transpose(w);
    add(name + ".wT", wt);
    add(name + ".wT.q", QuantMatrix::fromFloat(wt, IntWidth::Int12));
}

std::shared_ptr<const WeightStore>
WeightStoreBuilder::finish()
{
    EXION_ASSERT(!finished_, "finish() twice");
    finished_ = true;

    const u64 index_offset = reserve(0);
    for (const Record &rec : records_) {
        putStr(buf_, rec.name);
        put<u8>(buf_, static_cast<u8>(rec.entry.kind));
        put<u8>(buf_, encodeWidth(rec.entry.params.width));
        put<u64>(buf_, rec.entry.rows);
        put<u64>(buf_, rec.entry.cols);
        put<double>(buf_, rec.entry.params.scale);
        put<u64>(buf_, rec.entry.offset);
        put<u64>(buf_, rec.entry.byteLen);
    }

    std::memcpy(buf_.data(), kMagic, sizeof(kMagic));
    putAt<u32>(buf_, kOffEndian, kEndianTag);
    putAt<u32>(buf_, kOffVersion, kVersion);
    putAt<u64>(buf_, kOffFileSize, buf_.size());
    putAt<u64>(buf_, kOffIndexOffset, index_offset);
    putAt<u64>(buf_, kOffIndexCount, records_.size());
    putAt<u64>(buf_, kOffChecksum,
               fnv1a64(buf_.data() + kHeaderSize,
                       buf_.size() - kHeaderSize));

    std::shared_ptr<WeightStore> store(new WeightStore());
    store->heap_ = std::move(buf_);
    store->size_ = store->heap_.size();
    store->parse();
    return store;
}

// -------------------------------------------------------------- store

void
WeightStore::parse()
{
    const u8 *p = bytes();
    if (size_ < kHeaderSize)
        throw WeightStoreError("weight store: file shorter than header");
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0)
        throw WeightStoreError("weight store: bad magic "
                               "(not an EXWS file)");
    Reader hdr(p, size_, kOffEndian);
    const u32 endian = hdr.get<u32>();
    if (endian != kEndianTag)
        throw WeightStoreError("weight store: foreign endianness");
    const u32 version = hdr.get<u32>();
    if (version != kVersion)
        throw WeightStoreError("weight store: unsupported version "
                               + std::to_string(version));
    const u64 file_size = hdr.get<u64>();
    if (file_size != size_)
        throw WeightStoreError("weight store: size mismatch (header "
                               + std::to_string(file_size) + ", file "
                               + std::to_string(size_) + ")");
    checksum_ = hdr.get<u64>();
    const u64 actual = fnv1a64(p + kHeaderSize, size_ - kHeaderSize);
    if (actual != checksum_)
        throw WeightStoreError("weight store: checksum mismatch "
                               "(corrupt image)");
    const u64 config_offset = hdr.get<u64>();
    const u64 config_size = hdr.get<u64>();
    const u64 index_offset = hdr.get<u64>();
    const u64 index_count = hdr.get<u64>();
    if (config_offset > size_ || config_size > size_ - config_offset)
        throw WeightStoreError("weight store: config out of bounds");

    Reader cr(p, config_offset + config_size, config_offset);
    cfg_ = deserializeConfig(cr);

    if (index_offset > size_)
        throw WeightStoreError("weight store: index out of bounds");
    Reader ir(p, size_, index_offset);
    for (u64 i = 0; i < index_count; ++i) {
        const std::string name = ir.getStr(4096);
        Entry e;
        const u8 kind = ir.get<u8>();
        if (kind > static_cast<u8>(TensorKind::QuantInt))
            throw WeightStoreError("weight store: bad tensor kind");
        e.kind = static_cast<TensorKind>(kind);
        e.params.width = decodeWidth(ir.get<u8>());
        e.rows = ir.get<u64>();
        e.cols = ir.get<u64>();
        e.params.scale = ir.get<double>();
        e.offset = ir.get<u64>();
        e.byteLen = ir.get<u64>();
        const u64 elem = e.kind == TensorKind::Float32 ? sizeof(float)
                                                       : sizeof(i32);
        if (e.rows != 0 && e.cols > ~u64{0} / e.rows)
            throw WeightStoreError("weight store: tensor shape "
                                   "overflow");
        if (e.byteLen != e.rows * e.cols * elem)
            throw WeightStoreError("weight store: tensor '" + name
                                   + "' length/shape mismatch");
        if (e.offset % kSectionAlign != 0 || e.offset > size_
            || e.byteLen > size_ - e.offset)
            throw WeightStoreError("weight store: tensor '" + name
                                   + "' section out of bounds");
        if (!index_.emplace(name, e).second)
            throw WeightStoreError("weight store: duplicate tensor '"
                                   + name + "'");
    }
}

std::shared_ptr<const WeightStore>
WeightStore::load(const std::string &path)
{
    std::shared_ptr<WeightStore> store(new WeightStore());
    store->file_ = MmapFile::open(path);
    store->size_ = store->file_.size();
    store->parse();
    checkNetworkShape(store->cfg_);
    checkSparsitySettings(store->cfg_);
    return store;
}

void
WeightStore::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw WeightStoreError("weight store: cannot write " + path);
    const size_t wrote = size_ == 0
        ? 0 : std::fwrite(bytes(), 1, size_, f);
    const bool ok = wrote == size_ && std::fclose(f) == 0;
    if (!ok)
        throw WeightStoreError("weight store: short write to " + path);
}

const WeightStore::Entry &
WeightStore::entry(const std::string &name) const
{
    const auto it = index_.find(name);
    if (it == index_.end())
        throw WeightStoreError("weight store: no tensor '" + name + "'");
    return it->second;
}

Matrix
WeightStore::matrix(const std::string &name) const
{
    const Entry &e = entry(name);
    if (e.kind != TensorKind::Float32)
        throw WeightStoreError("weight store: tensor '" + name
                               + "' is not float32");
    return Matrix::borrow(
        reinterpret_cast<const float *>(bytes() + e.offset), e.rows,
        e.cols);
}

QuantMatrix
WeightStore::quant(const std::string &name) const
{
    const Entry &e = entry(name);
    if (e.kind != TensorKind::QuantInt)
        throw WeightStoreError("weight store: tensor '" + name
                               + "' is not quantized");
    return QuantMatrix::borrow(
        reinterpret_cast<const i32 *>(bytes() + e.offset), e.rows,
        e.cols, e.params);
}

Matrix
WeightStore::matrix(const std::string &name, Index rows, Index cols) const
{
    return shaped(matrix(name), name, rows, cols);
}

QuantMatrix
WeightStore::quant12(const std::string &name, Index rows, Index cols) const
{
    QuantMatrix q = shaped(quant(name), name, rows, cols);
    if (q.params().width != IntWidth::Int12)
        throw WeightStoreError("weight store: tensor '" + name
                               + "' is not an Int12 image");
    return q;
}

std::shared_ptr<const WeightStore>
WeightStore::build(const ModelConfig &cfg)
{
    EXION_ASSERT(!cfg.stages.empty(), "store needs at least one stage");
    WeightStoreBuilder b(cfg);
    Rng rng(cfg.seed);

    // Draw order: inProj, outProj, condEmbed, then per stage
    // channelProj/timeProj/ResBlocks/blocks, each block drawing wq, wk,
    // wv, wo, ffn1, ffn2 and (GEGLU only, last) ffn1v. Transposition
    // and quantisation draw nothing.
    b.addLinear("inProj", cfg.latentDim, cfg.stages.front().dModel, rng);
    b.addLinear("outProj", cfg.stages.back().dModel, cfg.latentDim, rng);
    Matrix cond(1, cfg.stages.front().dModel);
    cond.fillNormal(rng, 0.0f, 0.5f);
    b.add("condEmbed", cond);

    int block_id = 0;
    Index prev_d = cfg.stages.front().dModel;
    Index stage_id = 0;
    for (const StageConfig &sc : cfg.stages) {
        const std::string sp = "s" + std::to_string(stage_id++);
        const Index d = sc.dModel;
        if (d != prev_d)
            b.addLinear(sp + ".channelProj", prev_d, d, rng);
        b.addLinear(sp + ".timeProj", kTimeEmbedDim, d, rng);
        for (Index i = 0; i < sc.nResBlocks; ++i) {
            const std::string rp = sp + ".res" + std::to_string(i);
            b.addLinear(rp + ".conv1", d, d, rng);
            b.addLinear(rp + ".conv2", d, d, rng);
        }
        for (Index i = 0; i < sc.nBlocks; ++i) {
            const std::string bp = "blk" + std::to_string(block_id++);
            const Index hid = sc.ffnMult * d;
            for (const char *proj : {".wq", ".wk", ".wv", ".wo"})
                b.addLinear(bp + proj, d, d, rng);
            const Matrix w1 = b.addLinear(bp + ".ffn1", d, hid, rng);
            b.addLinear(bp + ".ffn2", hid, d, rng);
            b.addTransposed(bp + ".ffn1", w1);
            if (cfg.geglu)
                b.addTransposed(bp + ".ffn1v",
                                b.addLinear(bp + ".ffn1v", d, hid, rng));
        }
        prev_d = d;
    }
    return b.finish();
}

} // namespace exion
