#ifndef DSSDDI_IO_MMAP_FILE_H_
#define DSSDDI_IO_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "io/binary.h"

namespace dssddi::io {

/// RAII read-only memory mapping of a whole file (PROT_READ, MAP_SHARED):
/// every process mapping the same bundle shares one page-cache copy, and
/// load cost is O(pages touched) instead of O(bytes parsed). The v4
/// bundle loader holds one of these behind a shared_ptr inside the
/// InferenceBundle, so the mapping is unmapped exactly when the last
/// snapshot (and therefore the last in-flight batch) referencing it is
/// destroyed — that is the whole reload-retirement story.
///
/// Movable, not copyable. A default-constructed instance maps nothing.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. Faults are demand driven, so the cost of a
  /// load is O(pages actually used) and a process mapping an
  /// already-warm file does not grow its RSS by the file size.
  static Status Open(const std::string& path, MmapFile* out);

  const unsigned char* data() const { return data_; }
  size_t size() const { return size_; }
  bool mapped() const { return data_ != nullptr; }
  const std::string& path() const { return path_; }

 private:
  void Reset() noexcept;

  unsigned char* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

}  // namespace dssddi::io

#endif  // DSSDDI_IO_MMAP_FILE_H_
