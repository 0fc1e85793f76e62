/**
 * @file
 * Immutable serialized model weights (the EXWS format).
 *
 * A WeightStore is the single owner of a model's parameters: one
 * contiguous byte image holding the ModelConfig, every tensor as
 * float32, and — for the MMUL weights — a quantized-at-rest INT12
 * image plus the transposed first-FFN-layer copies the FFN-Reuse
 * sparse path reads, so serving consumes weights directly (borrowed
 * Matrix/QuantMatrix views) with no per-request quantisation or
 * transposition. The same image is the on-disk format: build() lays
 * the bytes out exactly as save() writes them and load() maps them,
 * so in-memory construction, a saved file and an mmap'd file are one
 * code path and bit-identical by construction.
 *
 * Format (EXWS version 1, host-endian with an endian tag — in
 * practice little-endian on every supported platform):
 *
 *   [ 0, 64)  header: magic "EXIONWS1", endian tag 0x01020304,
 *             version, file size, FNV-1a-64 checksum of [64, size),
 *             config offset/size, index offset/count
 *   config    serialized ModelConfig (field-by-field, see .cc)
 *   tensors   raw row-major element bytes, each section 64-byte
 *             aligned within the file (pages of an mmap'd store are
 *             therefore element-aligned too)
 *   index     one variable-length record per tensor: name, kind
 *             (float32 / quantized int), IntWidth, rows, cols,
 *             scale, section offset, byte length
 *
 * The loader refuses foreign magic/version/endianness, truncated
 * files, checksum mismatches and configs no network can be built from
 * with a typed WeightStoreError. Layers are views of a store and
 * nothing else; each view refuses a missing tensor, or one whose shape
 * or width disagrees with the config, the same way.
 */

#ifndef EXION_MODEL_WEIGHT_STORE_H_
#define EXION_MODEL_WEIGHT_STORE_H_

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exion/common/mmap_file.h"
#include "exion/common/types.h"
#include "exion/model/config.h"
#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

class Rng;

/** Malformed, corrupt or incompatible weight-store image. */
class WeightStoreError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Immutable, shareable model weights backed by one byte image
 * (in-memory or memory-mapped). Thread-safe after construction:
 * every accessor is const and returns borrowed views into the image.
 */
class WeightStore
{
  public:
    /** What a tensor section holds. */
    enum class TensorKind : u8
    {
        Float32 = 0,  //!< row-major float elements
        QuantInt = 1, //!< row-major i32 elements + QuantParams
    };

    /** One named tensor section of the image. */
    struct Entry
    {
        TensorKind kind = TensorKind::Float32;
        QuantParams params; //!< meaningful for QuantInt sections
        Index rows = 0;
        Index cols = 0;
        u64 offset = 0;  //!< byte offset of the section (64-aligned)
        u64 byteLen = 0; //!< section length in bytes
    };

    /**
     * Builds the store for a config, drawing every weight from
     * Rng(cfg.seed): inProj, outProj, condEmbed, then per stage
     * channelProj, timeProj, ResBlocks and blocks, each Linear laid
     * out by WeightStoreBuilder::addLinear and each block's first FFN
     * layer(s) also by addTransposed ("blk<i>.ffn1.wT"[".q"],
     * "...ffn1v.wT"[".q"]) for the FFN-Reuse sparse path.
     */
    static std::shared_ptr<const WeightStore> build(const ModelConfig &cfg);

    /**
     * Opens a serialized store, preferring a read-only shared memory
     * mapping (heap read when mmap is unavailable).
     * @throws WeightStoreError on malformed/corrupt images; on a
     *         config no network can be built from: no stages, a stage
     *         with zero tokens, dModel or ffnMult, nHeads zero or not
     *         dividing dModel, stage token counts that do not go from
     *         latentTokens and back to it by whole factors,
     *         iterations not in [1, kTrainSteps]; and on sparsity
     *         settings no executor can run: ep.topK not in (0, 1],
     *         ep.qTh not finite, ffnReuse.targetSparsity not in
     *         [0, 1], ffnReuse.denseInterval negative
     * @throws std::runtime_error when the file cannot be read
     */
    static std::shared_ptr<const WeightStore> load(const std::string &path);

    /**
     * Writes the image to path (atomically replaceable: plain
     * truncate-and-write of the already-checksummed bytes).
     * @throws WeightStoreError on I/O failure
     */
    void save(const std::string &path) const;

    /** The model this store parameterises. */
    const ModelConfig &config() const { return cfg_; }

    /**
     * Borrowed float view of a Float32 tensor. The view aliases the
     * store's image; keep the store alive for the view's lifetime.
     * @throws WeightStoreError for unknown names / kind mismatches
     */
    Matrix matrix(const std::string &name) const;

    /** matrix(name), refused with WeightStoreError unless it is
        rows x cols. */
    Matrix matrix(const std::string &name, Index rows, Index cols) const;

    /** Borrowed integer view of a QuantInt tensor (see matrix()). */
    QuantMatrix quant(const std::string &name) const;

    /** quant(name), refused with WeightStoreError unless it is a
        rows x cols Int12 image. */
    QuantMatrix quant12(const std::string &name, Index rows,
                        Index cols) const;

    /** All tensor sections by name. */
    const std::map<std::string, Entry> &entries() const { return index_; }

    /** FNV-1a-64 checksum of the payload (header excluded). */
    u64 checksum() const { return checksum_; }

    /** Total image size in bytes. */
    u64 sizeBytes() const { return size_; }

    /** True when the image is an actual file mapping (pages shared
        across processes); false for in-memory / heap-read images. */
    bool mapped() const { return file_.mapped(); }

  private:
    friend class WeightStoreBuilder;

    WeightStore() = default;

    const Entry &entry(const std::string &name) const;

    /** Validates the header/checksum and fills cfg_ and index_. */
    void parse();

    const u8 *bytes() const
    {
        return file_.data() != nullptr ? file_.data() : heap_.data();
    }

    ModelConfig cfg_;
    std::map<std::string, Entry> index_;
    u64 checksum_ = 0;
    u64 size_ = 0;
    std::vector<u8> heap_; //!< build()-mode image
    MmapFile file_;        //!< load()-mode image
};

/**
 * Incremental writer of a store image. build() uses it to snapshot a
 * seeded model; tests and tools can use it to serialize arbitrary
 * tensors. Tensors appear in the store in insertion order; names must
 * be unique.
 */
class WeightStoreBuilder
{
  public:
    /** Starts an image for the given config. */
    explicit WeightStoreBuilder(const ModelConfig &cfg);

    /** Appends a float tensor section. */
    void add(const std::string &name, const Matrix &m);

    /** Appends a quantized tensor section (params stored alongside). */
    void add(const std::string &name, const QuantMatrix &q);

    /**
     * Appends the tensors Linear::fromStore views: an in x out weight
     * "<name>.w" drawn N(0, 1/sqrt(in)) from rng, a zero 1 x out bias
     * "<name>.b" and the weight's Int12 image "<name>.w.q".
     * @return the weight
     */
    Matrix addLinear(const std::string &name, Index in, Index out,
                     Rng &rng);

    /** Appends "<name>.wT" = transpose(w) and its Int12 image
        "<name>.wT.q" (a first FFN layer's at-rest copies). */
    void addTransposed(const std::string &name, const Matrix &w);

    /**
     * Seals the image (index, header, checksum) and parses it into a
     * ready store — the identical code path load() uses.
     */
    std::shared_ptr<const WeightStore> finish();

  private:
    struct Record
    {
        std::string name;
        WeightStore::Entry entry;
    };

    /** Reserves a 64-aligned section of n bytes; returns its offset. */
    u64 reserve(u64 n);

    ModelConfig cfg_;
    std::vector<u8> buf_;
    std::vector<Record> records_;
    bool finished_ = false;
};

} // namespace exion

#endif // EXION_MODEL_WEIGHT_STORE_H_
