/**
 * @file
 * Immutable serialized model weights (the EXWS format).
 *
 * A WeightStore is the single owner of a model's parameters: one
 * contiguous byte image holding the ModelConfig and every tensor as
 * float32, so serving consumes weights directly (borrowed Matrix
 * views). It holds the model and nothing derived from it: operands in
 * another layout (FFN-Reuse's W1^T, eager prediction's LOD images) are
 * built by each TransformerBlock on first use, and INT12 operands by
 * the solo quantized paths where they use them
 * (QuantMatrix::fromFloat). The same image is the on-disk format:
 * build() lays the bytes out exactly as save() writes them and load()
 * maps them, so in-memory construction, a saved file and an mmap'd
 * file are one code path and bit-identical by construction.
 *
 * Format (EXWS version 2, host-endian with an endian tag — in
 * practice little-endian on every supported platform):
 *
 *   [ 0, 64)  header: magic "EXIONWS1", endian tag 0x01020304,
 *             version, file size, FNV-1a-64 checksum of [64, size),
 *             config offset/size, index offset/count
 *   config    serialized ModelConfig (field-by-field, see .cc)
 *   tensors   raw row-major float32 bytes, each section 64-byte
 *             aligned within the file (pages of an mmap'd store are
 *             therefore element-aligned too)
 *   index     one variable-length record per tensor: name, rows,
 *             cols, section offset, byte length
 *
 * Version 1 also held an INT12 image of every weight; a version-1
 * file is refused like any other unknown version. The loader refuses
 * foreign magic/version/endianness, truncated files, checksum
 * mismatches, index entries whose byte length cannot be rows x cols
 * floats and configs no network can be built from with a typed
 * WeightStoreError. Layers are views of a store and nothing else; each
 * view refuses a missing tensor, or one whose shape disagrees with the
 * config, the same way.
 */

#ifndef EXION_MODEL_WEIGHT_STORE_H_
#define EXION_MODEL_WEIGHT_STORE_H_

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exion/common/mmap_file.h"
#include "exion/common/rng.h"
#include "exion/common/types.h"
#include "exion/model/config.h"
#include "exion/tensor/matrix.h"

namespace exion
{

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
    /** One named float32 tensor section of the image. */
    struct Entry
    {
        Index rows = 0;
        Index cols = 0;
        u64 offset = 0;  //!< byte offset of the section (64-aligned)
        u64 byteLen = 0; //!< section length in bytes
    };

    /**
     * Builds the store for a config, drawing every weight from
     * Rng(cfg.seed): inProj, outProj, condEmbed, then per stage
     * channelProj, timeProj, ResBlocks and blocks, each Linear laid
     * out by WeightStoreBuilder::addLinear. The store holds each
     * layer's "<name>.w" and "<name>.b", and condEmbed; nothing else.
     * The image is allocated once, at its final size; the weights are
     * drawn straight into their sections on up to
     * min(hardware_concurrency(), 8) threads, all joined before it
     * returns, and the payload is hashed once (see
     * WeightStoreBuilder::finish()).
     *
     * @throws WeightStoreError on a config load() would refuse (no
     *         stages, a misfit stage, an iteration count outside
     *         [1, kTrainSteps], sparsity settings out of range)
     */
    static std::shared_ptr<const WeightStore> build(const ModelConfig &cfg);

    /**
     * Opens a serialized store, preferring a read-only shared memory
     * mapping (heap read when mmap is unavailable).
     * @throws WeightStoreError on malformed/corrupt images (an index
     *         entry whose byte length is not rows x cols floats, or
     *         whose rows x cols x 4 bytes overflow 64 bits); on a
     *         config no network can be built from: no stages, a stage
     *         with zero tokens, dModel or ffnMult, nHeads zero or not
     *         dividing dModel, stage token counts that do not go from
     *         latentTokens and back to it by whole factors,
     *         iterations not in [1, kTrainSteps]; and on sparsity
     *         settings no executor can run: ep.topK not in (0, 1],
     *         ep.qTh not finite, ffnReuse.targetSparsity not in
     *         [0, 1], ffnReuse.denseInterval negative. Tensors no
     *         layer views (such as the first FFN layers' transposes
     *         that older files hold) load and are never read.
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
     * Borrowed float view of a tensor. The view aliases the store's
     * image; keep the store alive for the view's lifetime.
     * @throws WeightStoreError for unknown names
     */
    Matrix matrix(const std::string &name) const;

    /** matrix(name), refused with WeightStoreError unless it is
        rows x cols. */
    Matrix matrix(const std::string &name, Index rows, Index cols) const;

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

    /**
     * Validates the header and fills cfg_, index_ and checksum_;
     * checks the payload against the checksum when verify_checksum
     * (load()), not for an image its builder has just hashed.
     */
    void parse(bool verify_checksum);

    const u8 *bytes() const
    {
        return file_.data() != nullptr ? file_.data() : heap_.get();
    }

    /** Releases a calloc'd image. */
    struct FreeImage
    {
        void operator()(u8 *p) const { std::free(p); }
    };

    ModelConfig cfg_;
    std::map<std::string, Entry> index_;
    u64 checksum_ = 0;
    u64 size_ = 0;
    std::unique_ptr<u8[], FreeImage> heap_; //!< builder-made image
    MmapFile file_;                         //!< load()-mode image
};

/**
 * Incremental writer of a store image. build() uses it to snapshot a
 * seeded model; tests and tools can use it to serialize arbitrary
 * tensors. Tensors appear in the store in insertion order; names must
 * be unique. Adding a tensor fixes its section; finish() allocates the
 * image once, at its final size, and writes every section in place.
 */
class WeightStoreBuilder
{
  public:
    /** Starts an image for the given config. */
    explicit WeightStoreBuilder(const ModelConfig &cfg);

    /** Appends a float tensor section holding a copy of m. */
    void add(const std::string &name, const Matrix &m);

    /**
     * Appends a rows x cols tensor of N(mean, stddev) draws. They are
     * taken from rng now (it advances as rows x cols normal() calls
     * would; Rng::planNormals) and written into the section by
     * finish().
     */
    void addNormal(const std::string &name, Index rows, Index cols,
                   Rng &rng, double mean, double stddev);

    /**
     * Appends the tensors Linear::fromStore views: an in x out weight
     * "<name>.w" drawn N(0, 1/sqrt(in)) from rng as addNormal() does,
     * and a zero 1 x out bias "<name>.b".
     */
    void addLinear(const std::string &name, Index in, Index out,
                   Rng &rng);

    /**
     * Seals the image and parses it into a ready store — the code path
     * load() uses. Allocates the image at its final size and writes
     * every section in place, the drawn ones through
     * Rng::fillNormals on up to min(hardware_concurrency(), 8)
     * threads joined before it returns. The payload is hashed once,
     * on the calling thread, behind the fill: each section as soon as
     * it is written. The store's parse does not hash it again.
     */
    std::shared_ptr<const WeightStore> finish();

  private:
    struct Record
    {
        std::string name;
        WeightStore::Entry entry;
        std::vector<float> data;              //!< add()'s copy
        std::optional<Rng::NormalDraw> draw;  //!< addNormal()'s draws
    };

    /** Appends a rows x cols section at the next 64-aligned offset;
        it stays zero unless the record gets data or a draw. */
    Record &append(const std::string &name, Index rows, Index cols);

    std::vector<u8> config_; //!< the serialized config
    u64 end_ = 0;            //!< first byte past the last section
    std::vector<Record> records_;
    bool finished_ = false;
};

} // namespace exion

#endif // EXION_MODEL_WEIGHT_STORE_H_
