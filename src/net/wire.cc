#include "net/wire.h"

#include <cctype>
#include <cstring>
#include <limits>

namespace dssddi::net::wire {
namespace {

// -------------------------------------------------------------------
// Little-endian primitives. Explicit byte shifts, not memcpy of host
// integers: the frame layout must not depend on host endianness.
// -------------------------------------------------------------------

void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string& out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutF32(std::string& out, float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v), "binary32 expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
}

uint64_t LoadU64(const char* data) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  return v;
}

/// Bounded little-endian reader over one frame's bytes.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  bool U8(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U16(uint16_t* out) {
    if (remaining() < 2) return false;
    *out = 0;
    for (int i = 0; i < 2; ++i) {
      *out |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return true;
  }
  bool U32(uint32_t* out) {
    if (remaining() < 4) return false;
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      *out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return true;
  }
  bool U64(uint64_t* out) {
    if (remaining() < 8) return false;
    *out = 0;
    for (int i = 0; i < 8; ++i) {
      *out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return true;
  }
  bool F32(float* out) {
    uint32_t bits;
    if (!U32(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  bool Bytes(size_t n, std::string* out) {
    if (remaining() < n) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void PutHeader(std::string& out, FrameType type, size_t payload_bytes,
               uint64_t request_id) {
  PutU16(out, kMagic);
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(type));
  PutU32(out, static_cast<uint32_t>(payload_bytes));
  PutU64(out, request_id);
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Validates the first 4 header bytes (magic, version, known type).
/// Shared by the strict whole-buffer peek and the incremental stream
/// extractor; `have` must be >= 4.
bool CheckHeaderPrefix(const char* data, std::string* error) {
  const uint16_t magic = static_cast<uint16_t>(
      static_cast<uint8_t>(data[0]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(data[1])) << 8));
  const uint8_t version = static_cast<uint8_t>(data[2]);
  const uint8_t type = static_cast<uint8_t>(data[3]);
  if (magic != kMagic) return Fail(error, "bad magic");
  if (version != kVersion) {
    return Fail(error,
                "unsupported frame version " + std::to_string(version));
  }
  if (type != static_cast<uint8_t>(FrameType::kSuggestRequest) &&
      type != static_cast<uint8_t>(FrameType::kSuggestResponse) &&
      type != static_cast<uint8_t>(FrameType::kError)) {
    return Fail(error, "unknown frame type " + std::to_string(type));
  }
  return true;
}

/// Validates the header against the buffer and the expected type;
/// returns a Reader positioned at the payload and fills `*request_id`
/// from the header.
bool OpenFrame(const std::string& buffer, FrameType want, Reader* payload,
               uint64_t* request_id, std::string* error) {
  FrameType type;
  if (!PeekFrameType(buffer, &type, error)) return false;
  if (type != want) {
    return Fail(error, "unexpected frame type " +
                           std::to_string(static_cast<int>(type)) + " (want " +
                           std::to_string(static_cast<int>(want)) + ")");
  }
  *request_id = LoadU64(buffer.data() + kRequestIdOffset);
  *payload = Reader(buffer.data() + kHeaderBytes, buffer.size() - kHeaderBytes);
  return true;
}

}  // namespace

bool PeekFrameType(const std::string& buffer, FrameType* out,
                   std::string* error) {
  if (buffer.size() < kHeaderBytes) {
    return Fail(error, "truncated frame header (" +
                           std::to_string(buffer.size()) + " bytes, want >= " +
                           std::to_string(kHeaderBytes) + ")");
  }
  if (!CheckHeaderPrefix(buffer.data(), error)) return false;
  Reader reader(buffer.data() + 4, buffer.size() - 4);
  uint32_t length = 0;
  reader.U32(&length);
  if (buffer.size() < kHeaderBytes + length) {
    return Fail(error, "truncated frame: declares " + std::to_string(length) +
                           " payload bytes, " +
                           std::to_string(buffer.size() - kHeaderBytes) +
                           " present");
  }
  if (buffer.size() > kHeaderBytes + length) {
    return Fail(error, "oversized frame: " +
                           std::to_string(buffer.size() - kHeaderBytes - length) +
                           " trailing bytes after declared payload");
  }
  *out = static_cast<FrameType>(static_cast<uint8_t>(buffer[3]));
  return true;
}

ExtractResult ExtractFrame(const char* data, size_t size,
                           size_t max_payload_bytes, FrameView* out,
                           std::string* error) {
  if (size >= 2) {
    // Fail fast on the cheap checks before the full header arrives —
    // garbage must never sit in the buffer waiting for 16 bytes.
    if (!LooksLikeFramePrefix(data, size)) {
      Fail(error, "bad magic");
      return ExtractResult::kError;
    }
  }
  if (size >= 4 && !CheckHeaderPrefix(data, error)) {
    return ExtractResult::kError;
  }
  if (size < kHeaderBytes) return ExtractResult::kNeedMore;
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(data[4 + i]))
              << (8 * i);
  }
  if (static_cast<size_t>(length) > max_payload_bytes) {
    Fail(error, "frame payload " + std::to_string(length) +
                    " bytes exceeds cap " + std::to_string(max_payload_bytes));
    return ExtractResult::kError;
  }
  if (size < kHeaderBytes + length) return ExtractResult::kNeedMore;
  out->type = static_cast<FrameType>(static_cast<uint8_t>(data[3]));
  out->request_id = LoadU64(data + kRequestIdOffset);
  out->frame_bytes = kHeaderBytes + static_cast<size_t>(length);
  return ExtractResult::kFrame;
}

bool LooksLikeFramePrefix(const char* data, size_t size) {
  if (size >= 1 && static_cast<uint8_t>(data[0]) != (kMagic & 0xff)) {
    return false;
  }
  if (size >= 2 && static_cast<uint8_t>(data[1]) != ((kMagic >> 8) & 0xff)) {
    return false;
  }
  return true;
}

bool IsBinaryContentType(const std::string& value) {
  size_t end = value.find(';');
  if (end == std::string::npos) end = value.size();
  while (end > 0 && (value[end - 1] == ' ' || value[end - 1] == '\t')) --end;
  size_t begin = 0;
  while (begin < end && (value[begin] == ' ' || value[begin] == '\t')) ++begin;
  const size_t size = sizeof(kContentType) - 1;
  if (end - begin != size) return false;
  for (size_t i = 0; i < size; ++i) {
    // kContentType is lowercase ASCII.
    if (std::tolower(static_cast<unsigned char>(value[begin + i])) !=
        kContentType[i]) {
      return false;
    }
  }
  return true;
}

bool PeekModelVersion(const std::string& buffer, uint64_t* out) {
  FrameType type;
  if (!PeekFrameType(buffer, &type, nullptr) ||
      type != FrameType::kSuggestResponse) {
    return false;
  }
  Reader payload(buffer.data() + kHeaderBytes, buffer.size() - kHeaderBytes);
  uint64_t model_version = 0;
  uint64_t trace_id = 0;
  uint32_t count = 0;
  if (!payload.U64(&model_version) || !payload.U64(&trace_id) ||
      !payload.U32(&count) ||
      payload.remaining() != static_cast<size_t>(count) * 8) {
    return false;
  }
  *out = model_version;
  return true;
}

bool PeekRequestId(const std::string& buffer, uint64_t* out) {
  if (buffer.size() < kRequestIdOffset + 8) return false;
  *out = LoadU64(buffer.data() + kRequestIdOffset);
  return true;
}

bool PatchRequestId(std::string* frame, uint64_t request_id) {
  if (frame->size() < kRequestIdOffset + 8) return false;
  for (int i = 0; i < 8; ++i) {
    (*frame)[kRequestIdOffset + static_cast<size_t>(i)] =
        static_cast<char>((request_id >> (8 * i)) & 0xff);
  }
  return true;
}

std::string EncodeSuggestRequest(const SuggestRequestFrame& frame) {
  const size_t payload = 8 + 4 + 2 + 1 + 1 + 8 + 4 + 4 * frame.features.size();
  std::string out;
  out.reserve(kHeaderBytes + payload);
  PutHeader(out, FrameType::kSuggestRequest, payload, frame.request_id);
  PutU64(out, static_cast<uint64_t>(frame.patient_id));
  PutU32(out, frame.deadline_ms);
  PutU16(out, static_cast<uint16_t>(frame.k));
  const uint8_t flags = (frame.explain ? 0x01 : 0x00) |
                        (frame.batch_priority ? 0x02 : 0x00);
  out.push_back(static_cast<char>(flags));
  out.push_back('\0');  // reserved
  PutU64(out, frame.trace_id);
  PutU32(out, static_cast<uint32_t>(frame.features.size()));
  for (const float f : frame.features) PutF32(out, f);
  return out;
}

bool DecodeSuggestRequest(const std::string& buffer, SuggestRequestFrame* out,
                          std::string* error) {
  Reader reader(nullptr, 0);
  if (!OpenFrame(buffer, FrameType::kSuggestRequest, &reader,
                 &out->request_id, error)) {
    return false;
  }
  uint64_t patient_id;
  uint16_t k;
  uint8_t flags;
  uint8_t reserved;
  uint32_t num_features;
  if (!reader.U64(&patient_id) || !reader.U32(&out->deadline_ms) ||
      !reader.U16(&k) || !reader.U8(&flags) || !reader.U8(&reserved) ||
      !reader.U64(&out->trace_id) || !reader.U32(&num_features)) {
    return Fail(error, "request frame payload truncated");
  }
  if (reserved != 0) return Fail(error, "nonzero reserved byte");
  if (flags & ~0x03u) {
    return Fail(error, "unknown request flags " + std::to_string(flags));
  }
  if (reader.remaining() != static_cast<size_t>(num_features) * 4) {
    return Fail(error, "feature count " + std::to_string(num_features) +
                           " inconsistent with " +
                           std::to_string(reader.remaining()) +
                           " payload bytes left");
  }
  out->patient_id = static_cast<int64_t>(patient_id);
  out->k = k;
  out->explain = (flags & 0x01) != 0;
  out->batch_priority = (flags & 0x02) != 0;
  out->features.resize(num_features);
  for (uint32_t i = 0; i < num_features; ++i) {
    if (!reader.F32(&out->features[i])) {
      return Fail(error, "feature array truncated");
    }
  }
  return true;
}

std::string EncodeSuggestResponse(const SuggestResponseFrame& frame) {
  const size_t count = frame.drugs.size();
  const size_t payload = 8 + 8 + 4 + 8 * count;
  std::string out;
  out.reserve(kHeaderBytes + payload);
  PutHeader(out, FrameType::kSuggestResponse, payload, frame.request_id);
  PutU64(out, frame.model_version);
  PutU64(out, frame.trace_id);
  PutU32(out, static_cast<uint32_t>(count));
  for (const int32_t drug : frame.drugs) {
    PutU32(out, static_cast<uint32_t>(drug));
  }
  for (const float score : frame.scores) PutF32(out, score);
  return out;
}

bool DecodeSuggestResponse(const std::string& buffer, SuggestResponseFrame* out,
                           std::string* error) {
  Reader reader(nullptr, 0);
  if (!OpenFrame(buffer, FrameType::kSuggestResponse, &reader,
                 &out->request_id, error)) {
    return false;
  }
  uint32_t count;
  if (!reader.U64(&out->model_version) || !reader.U64(&out->trace_id) ||
      !reader.U32(&count)) {
    return Fail(error, "response frame payload truncated");
  }
  if (reader.remaining() != static_cast<size_t>(count) * 8) {
    return Fail(error, "suggestion count " + std::to_string(count) +
                           " inconsistent with " +
                           std::to_string(reader.remaining()) +
                           " payload bytes left");
  }
  out->drugs.resize(count);
  out->scores.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t bits;
    if (!reader.U32(&bits)) return Fail(error, "drug array truncated");
    out->drugs[i] = static_cast<int32_t>(bits);
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (!reader.F32(&out->scores[i])) {
      return Fail(error, "score array truncated");
    }
  }
  return true;
}

std::string EncodeError(const ErrorFrame& frame) {
  const size_t payload = 4 + 8 + 4 + frame.message.size();
  std::string out;
  out.reserve(kHeaderBytes + payload);
  PutHeader(out, FrameType::kError, payload, frame.request_id);
  PutU32(out, frame.status);
  PutU64(out, frame.trace_id);
  PutU32(out, static_cast<uint32_t>(frame.message.size()));
  out += frame.message;
  return out;
}

bool DecodeError(const std::string& buffer, ErrorFrame* out,
                 std::string* error) {
  Reader reader(nullptr, 0);
  if (!OpenFrame(buffer, FrameType::kError, &reader, &out->request_id,
                 error)) {
    return false;
  }
  uint32_t msg_len;
  if (!reader.U32(&out->status) || !reader.U64(&out->trace_id) ||
      !reader.U32(&msg_len)) {
    return Fail(error, "error frame payload truncated");
  }
  if (reader.remaining() != msg_len) {
    return Fail(error, "message length " + std::to_string(msg_len) +
                           " inconsistent with " +
                           std::to_string(reader.remaining()) +
                           " payload bytes left");
  }
  if (!reader.Bytes(msg_len, &out->message)) {
    return Fail(error, "error message truncated");
  }
  return true;
}

}  // namespace dssddi::net::wire
