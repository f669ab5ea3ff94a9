#include "io/binary.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace dssddi::io {
namespace {

constexpr uint32_t kFrameHeaderVersion = 1;

// Encodes an IEEE-754 float as its bit pattern for endian-stable writes.
uint32_t FloatBits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

float BitsToFloat(uint32_t bits) {
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void BinaryWriter::WriteU8(uint8_t value) {
  buffer_.push_back(static_cast<char>(value));
}

void BinaryWriter::WriteU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void BinaryWriter::WriteU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void BinaryWriter::WriteI32(int32_t value) {
  WriteU32(static_cast<uint32_t>(value));
}

void BinaryWriter::WriteF32(float value) { WriteU32(FloatBits(value)); }

void BinaryWriter::WriteF64(double value) { WriteU64(DoubleBits(value)); }

void BinaryWriter::WriteString(const std::string& value) {
  WriteU32(static_cast<uint32_t>(value.size()));
  buffer_.append(value);
}

void BinaryWriter::WriteFloatArray(const float* values, size_t count) {
  WriteU32(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) WriteF32(values[i]);
}

void BinaryWriter::WriteIntVector(const std::vector<int>& values) {
  WriteU32(static_cast<uint32_t>(values.size()));
  for (int v : values) WriteI32(v);
}

bool BinaryReader::Take(void* out, size_t count) {
  if (!ok_ || position_ + count > buffer_->size()) {
    ok_ = false;
    std::memset(out, 0, count);
    return false;
  }
  std::memcpy(out, buffer_->data() + position_, count);
  position_ += count;
  return true;
}

uint8_t BinaryReader::ReadU8() {
  unsigned char byte = 0;
  Take(&byte, 1);
  return byte;
}

uint32_t BinaryReader::ReadU32() {
  unsigned char bytes[4] = {};
  Take(bytes, 4);
  return static_cast<uint32_t>(bytes[0]) | (static_cast<uint32_t>(bytes[1]) << 8) |
         (static_cast<uint32_t>(bytes[2]) << 16) | (static_cast<uint32_t>(bytes[3]) << 24);
}

uint64_t BinaryReader::ReadU64() {
  const uint64_t low = ReadU32();
  const uint64_t high = ReadU32();
  return low | (high << 32);
}

int32_t BinaryReader::ReadI32() { return static_cast<int32_t>(ReadU32()); }

float BinaryReader::ReadF32() { return BitsToFloat(ReadU32()); }

double BinaryReader::ReadF64() { return BitsToDouble(ReadU64()); }

std::string BinaryReader::ReadString() {
  const uint32_t size = ReadU32();
  if (!ok_ || position_ + size > buffer_->size()) {
    ok_ = false;
    return {};
  }
  std::string value(buffer_->data() + position_, size);
  position_ += size;
  return value;
}

bool BinaryReader::ReadIntVector(std::vector<int>* out) {
  const uint32_t count = ReadU32();
  if (!ok_ || position_ + static_cast<size_t>(count) * 4 > buffer_->size()) {
    ok_ = false;
    return false;
  }
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) (*out)[i] = ReadI32();
  return ok_;
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::Error("cannot open for reading: " + path);
  out->clear();
  char chunk[1 << 16];
  size_t read;
  while ((read = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    out->append(chunk, read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::Error("read error: " + path);
  return Status::Ok();
}

Status WriteStringToFile(const std::string& path, const std::string& data) {
  // Rewriting `path` in place would change the pages under any process
  // that maps it, and truncating it would SIGBUS that process past the
  // new end of file. So write a sibling (same directory, hence same
  // filesystem, so the rename is atomic) and rename it over `path`: the
  // old inode lives on for whoever still has it open. The pid and a
  // process-wide sequence keep concurrent writers off each other's
  // temporary file; "x" refuses one left behind by a crashed run.
  static std::atomic<uint64_t> sequence{0};
  std::string temp;
  std::FILE* file = nullptr;
  do {
    temp = path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(sequence.fetch_add(1));
    file = std::fopen(temp.c_str(), "wbx");
  } while (file == nullptr && errno == EEXIST);
  if (file == nullptr) return Status::Error("cannot open for writing: " + path);
  const size_t written = std::fwrite(data.data(), 1, data.size(), file);
  const bool failed = std::fclose(file) != 0 || written != data.size() ||
                      std::rename(temp.c_str(), path.c_str()) != 0;
  if (failed) {
    std::remove(temp.c_str());
    return Status::Error("write error: " + path);
  }
  return Status::Ok();
}

Status WriteFramedFile(const std::string& path, uint32_t format_id,
                       uint32_t version, const std::string& payload) {
  BinaryWriter frame;
  frame.WriteU32(kFrameMagic);
  frame.WriteU32(kFrameHeaderVersion);
  frame.WriteU32(format_id);
  frame.WriteU32(version);
  frame.WriteU64(payload.size());
  frame.WriteU64(Fnv1a64(payload));
  std::string data = frame.buffer();
  data.append(payload);
  return WriteStringToFile(path, data);
}

Status ReadFramedFile(const std::string& path, uint32_t format_id,
                      uint32_t max_version, std::string* payload,
                      uint32_t* version) {
  std::string data;
  if (Status status = ReadFileToString(path, &data); !status.ok) return status;

  BinaryReader reader(data);
  const uint32_t magic = reader.ReadU32();
  const uint32_t header_version = reader.ReadU32();
  const uint32_t file_format = reader.ReadU32();
  const uint32_t file_version = reader.ReadU32();
  const uint64_t payload_size = reader.ReadU64();
  const uint64_t checksum = reader.ReadU64();
  if (!reader.ok()) return Status::Error("truncated header: " + path);
  if (magic != kFrameMagic) return Status::Error("not a DSSDDI file: " + path);
  if (header_version != kFrameHeaderVersion) {
    return Status::Error("unsupported frame version: " + path);
  }
  if (file_format != format_id) {
    return Status::Error("wrong artifact kind (format id " +
                         std::to_string(file_format) + ", expected " +
                         std::to_string(format_id) + "): " + path);
  }
  if (file_version > max_version) {
    return Status::Error("file version " + std::to_string(file_version) +
                         " is newer than supported " + std::to_string(max_version) +
                         ": " + path);
  }
  if (reader.remaining() != payload_size) {
    return Status::Error("payload size mismatch (truncated or trailing data): " + path);
  }
  payload->assign(data, reader.position(), payload_size);
  if (Fnv1a64(*payload) != checksum) {
    return Status::Error("checksum mismatch (corrupted file): " + path);
  }
  if (version != nullptr) *version = file_version;
  return Status::Ok();
}

}  // namespace dssddi::io
