#include "exion/common/mmap_file.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define EXION_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace exion
{

MmapFile::~MmapFile()
{
    reset();
}

MmapFile::MmapFile(MmapFile &&other) noexcept
    : data_(other.data_), size_(other.size_), map_(other.map_),
      heap_(std::move(other.heap_))
{
    other.data_ = nullptr;
    other.size_ = 0;
    other.map_ = nullptr;
}

MmapFile &
MmapFile::operator=(MmapFile &&other) noexcept
{
    if (this != &other) {
        reset();
        data_ = other.data_;
        size_ = other.size_;
        map_ = other.map_;
        heap_ = std::move(other.heap_);
        other.data_ = nullptr;
        other.size_ = 0;
        other.map_ = nullptr;
    }
    return *this;
}

void
MmapFile::reset() noexcept
{
#ifdef EXION_HAVE_MMAP
    if (map_ != nullptr)
        ::munmap(map_, size_);
#endif
    map_ = nullptr;
    data_ = nullptr;
    size_ = 0;
    heap_.clear();
}

namespace
{

/** Whole-file read into a heap buffer (the no-mmap path). */
std::vector<u8>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw std::runtime_error("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long len = std::ftell(f);
    if (len < 0) {
        std::fclose(f);
        throw std::runtime_error("cannot stat " + path);
    }
    std::fseek(f, 0, SEEK_SET);
    std::vector<u8> buf(static_cast<size_t>(len));
    const size_t got = buf.empty()
        ? 0 : std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
    if (got != buf.size())
        throw std::runtime_error("short read of " + path);
    return buf;
}

} // namespace

MmapFile
MmapFile::open(const std::string &path)
{
    MmapFile out;
#ifdef EXION_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw std::runtime_error("cannot open " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw std::runtime_error("cannot stat " + path);
    }
    out.size_ = static_cast<u64>(st.st_size);
    if (out.size_ == 0) {
        // Zero-length mappings are invalid; an empty image needs no
        // storage at all.
        ::close(fd);
        return out;
    }
    void *map = ::mmap(nullptr, out.size_, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (map != MAP_FAILED) {
        out.map_ = map;
        out.data_ = static_cast<const u8 *>(map);
        return out;
    }
    out.size_ = 0;
    // Fall through to the heap read below.
#endif
    out.heap_ = readAll(path);
    out.data_ = out.heap_.empty() ? nullptr : out.heap_.data();
    out.size_ = out.heap_.size();
    return out;
}

} // namespace exion
