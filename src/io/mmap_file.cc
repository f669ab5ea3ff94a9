#include "io/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dssddi::io {

MmapFile::~MmapFile() { Reset(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_), size_(other.size_), path_(std::move(other.path_)) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  data_ = other.data_;
  size_ = other.size_;
  path_ = std::move(other.path_);
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

void MmapFile::Reset() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  size_ = 0;
}

Status MmapFile::Open(const std::string& path, MmapFile* out) {
  out->Reset();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Error("cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Error("cannot stat " + path + ": " + std::strerror(err));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::Error("not a regular file: " + path);
  }
  if (st.st_size == 0) {
    ::close(fd);
    return Status::Error("empty file: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  // MAP_SHARED (not PRIVATE) is what makes shard processes share one
  // page-cache copy; PROT_READ means a stray write through the mapping
  // faults instead of corrupting the served weights on disk.
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  const int map_err = errno;
  // The mapping keeps its own reference to the file; the descriptor is
  // not needed past this point.
  ::close(fd);
  if (mapping == MAP_FAILED) {
    return Status::Error("cannot mmap " + path + ": " + std::strerror(map_err));
  }
  out->data_ = static_cast<unsigned char*>(mapping);
  out->size_ = size;
  out->path_ = path;
  return Status::Ok();
}

}  // namespace dssddi::io
