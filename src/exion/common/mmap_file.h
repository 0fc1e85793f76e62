/**
 * @file
 * Read-only memory-mapped file with a heap-read fallback.
 *
 * The WeightStore maps serialized models through this layer so every
 * engine — and every process — serving the same file shares one
 * physical copy of the weight pages (the mapping is MAP_SHARED and
 * PROT_READ; the kernel's page cache is the single backing store).
 * On platforms without mmap, or when mapping fails, the file is read
 * into heap memory instead: same bytes, same API, no sharing.
 */

#ifndef EXION_COMMON_MMAP_FILE_H_
#define EXION_COMMON_MMAP_FILE_H_

#include <string>
#include <vector>

#include "exion/common/types.h"

namespace exion
{

/**
 * An open read-only file image: either an mmap'd region or a heap
 * buffer holding the file's bytes. Movable, not copyable; unmaps on
 * destruction.
 */
class MmapFile
{
  public:
    /** Empty (no file). */
    MmapFile() = default;

    ~MmapFile();

    MmapFile(MmapFile &&other) noexcept;
    MmapFile &operator=(MmapFile &&other) noexcept;

    MmapFile(const MmapFile &) = delete;
    MmapFile &operator=(const MmapFile &) = delete;

    /**
     * Opens path read-only, preferring mmap.
     *
     * @throws std::runtime_error when the file cannot be opened/read
     */
    static MmapFile open(const std::string &path);

    /** First byte of the image (nullptr when empty). */
    const u8 *data() const { return data_; }

    /** Image length in bytes. */
    u64 size() const { return size_; }

    /** True when the image is an actual memory mapping (shared
        physical pages); false for the heap-read fallback. */
    bool mapped() const { return map_ != nullptr; }

  private:
    void reset() noexcept;

    const u8 *data_ = nullptr;
    u64 size_ = 0;
    void *map_ = nullptr; //!< mmap base (null in heap mode)
    std::vector<u8> heap_;
};

} // namespace exion

#endif // EXION_COMMON_MMAP_FILE_H_
