#ifndef DSSDDI_IO_BINARY_H_
#define DSSDDI_IO_BINARY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dssddi::io {

/// Status-style result for fallible I/O (the public API does not throw).
struct Status {
  bool ok = true;
  std::string message;

  static Status Ok() { return {}; }
  static Status Error(std::string message) { return {false, std::move(message)}; }
  explicit operator bool() const { return ok; }
};

/// 64-bit FNV-1a hash over `data`, used as the payload checksum in every
/// DSSDDI file so truncation and bit-rot are detected at load time.
uint64_t Fnv1a64(const char* data, size_t size);
inline uint64_t Fnv1a64(const std::string& data) {
  return Fnv1a64(data.data(), data.size());
}

/// Appends little-endian fixed-width values to an in-memory buffer.
/// All multi-byte values are written byte-by-byte so the format is
/// identical across host endianness.
class BinaryWriter {
 public:
  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value);
  void WriteF32(float value);
  void WriteF64(double value);
  /// u32 length prefix + raw bytes.
  void WriteString(const std::string& value);
  /// u32 count prefix + packed little-endian floats.
  void WriteFloatArray(const float* values, size_t count);
  void WriteIntVector(const std::vector<int>& values);

  const std::string& buffer() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Reads little-endian values from a buffer with a sticky failure flag:
/// after the first short or malformed read, `ok()` turns false and every
/// subsequent read returns a zero value without advancing.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buffer) : buffer_(&buffer) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int32_t ReadI32();
  float ReadF32();
  double ReadF64();
  std::string ReadString();
  /// Reads a u32 count prefix then that many floats into `out`.
  bool ReadFloatArray(std::vector<float>* out) { return ReadFloatsInto(out); }
  /// Same, for any vector-like float container (e.g. the tensor
  /// library's aligned storage) — avoids a copy through a temporary.
  template <typename FloatVector>
  bool ReadFloatsInto(FloatVector* out) {
    const uint32_t count = ReadU32();
    if (!ok_ || position_ + static_cast<size_t>(count) * 4 > buffer_->size()) {
      ok_ = false;
      return false;
    }
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) (*out)[i] = ReadF32();
    return ok_;
  }
  bool ReadIntVector(std::vector<int>* out);

  bool ok() const { return ok_; }
  size_t position() const { return position_; }
  size_t remaining() const { return ok_ ? buffer_->size() - position_ : 0; }
  /// Marks the reader failed (used by codecs on semantic errors).
  void Fail() { ok_ = false; }

 private:
  bool Take(void* out, size_t count);

  const std::string* buffer_;
  size_t position_ = 0;
  bool ok_ = true;
};

/// Reads a whole file into `out`. Returns an error Status on any failure.
Status ReadFileToString(const std::string& path, std::string* out);
/// Writes `data` to `path`, replacing any existing file atomically: the
/// bytes go to a temporary file in the same directory, which is then
/// renamed over `path`. A process that has `path` open or mapped keeps
/// the old file's bytes, and on failure the temporary file is removed
/// and the old file is left as it was. (No fsync: this guards readers of
/// the file, not against power loss.)
Status WriteStringToFile(const std::string& path, const std::string& data);

/// Magic tag that opens every framed file ("DSSD" read as a little-endian
/// u32).
inline constexpr uint32_t kFrameMagic = 0x44535344;

/// Frames `payload` with a magic tag, a format id + version, and an
/// FNV-1a checksum, then writes it to `path`. `format_id` distinguishes
/// artifact kinds (dataset vs. checkpoint vs. matrix) so loading a file
/// as the wrong kind fails cleanly instead of misparsing.
Status WriteFramedFile(const std::string& path, uint32_t format_id,
                       uint32_t version, const std::string& payload);

/// Reads and verifies a framed file; on success fills `payload` and
/// `version`. Fails on wrong magic, wrong format id, version newer than
/// `max_version`, or checksum mismatch.
Status ReadFramedFile(const std::string& path, uint32_t format_id,
                      uint32_t max_version, std::string* payload,
                      uint32_t* version);

}  // namespace dssddi::io

#endif  // DSSDDI_IO_BINARY_H_
