#ifndef DSSDDI_NET_WIRE_H_
#define DSSDDI_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dssddi::net::wire {

/// Compact binary framing for the suggest API, negotiated per request on
/// the same port/route as JSON: a POST /v1/suggest whose Content-Type is
/// `kContentType` carries one request frame and is answered with one
/// response (or error) frame. Motivation: the JSON codec is the wire-cost
/// ceiling of the serving stack — every feature float is printed to and
/// parsed from decimal text. A frame moves the same floats as raw
/// binary32 bytes, so scores are bit-exact by construction (no decimal
/// round-trip to reason about) and encode/decode is a memcpy.
///
/// The same frames also run raw on the socket (no HTTP envelope) as the
/// pipelined protocol: a connection whose first bytes are the frame
/// magic speaks frames both ways, many requests may be in flight at
/// once, and responses complete out of order correlated by
/// `request_id`. See `ExtractFrame` for the stream parser.
///
/// Frame layout (all integers little-endian, floats as binary32 bit
/// patterns, no padding):
///
///   magic      u16 = 0x4453 ("DS")
///   version    u8  = 2
///   type       u8    (FrameType)
///   length     u32   payload byte count (the length prefix; the frame
///                    is exactly 16 + length bytes; whole-buffer
///                    decoders reject trailing bytes)
///   request_id u64   per-connection multiplexing correlator, echoed
///                    verbatim in the response or error frame answering
///                    this request. 0 is legal for serial traffic (the
///                    HTTP-enveloped route); pipelined clients must use
///                    ids unique among their in-flight requests —
///                    a duplicate in-flight id is rejected with an
///                    error frame. Transport-layer only: it never
///                    reaches the suggestion service.
///   payload
///
/// kSuggestRequest payload:
///   patient_id  i64     cache identity; negative bypasses the cache
///   deadline_ms u32     relative latency budget, 0 = none (the edge
///                       converts it to an absolute RequestContext
///                       deadline on arrival — the binary twin of the
///                       JSON route's X-Deadline-Ms header)
///   k           u16
///   flags       u8      bit0 = explain, bit1 = batch priority class.
///                       The response frame never carries an
///                       explanation, so bit0 exists only to share the
///                       explained-suggestion cache with JSON traffic
///                       (the server computes + caches the full
///                       explanation, answers with ids+scores). Leave
///                       it clear — the default — for pure scoring;
///                       setting it pays the subgraph-explanation cost
///                       on every cache miss for output this codec
///                       cannot return.
///   reserved    u8      must be 0
///   trace_id    u64     0 = server assigns one
///   num_features u32
///   features    f32 * num_features
///
/// kSuggestResponse payload:
///   model_version u64
///   trace_id      u64   echoed (or assigned) by the server
///   count         u32
///   drugs         i32 * count
///   scores        f32 * count   bit-identical to the scoring kernels'
///                               output — the binary route's contract
///
/// kError payload:
///   status   u32   the HTTP status the error also carries
///   trace_id u64   the failed request's trace id (0 when the request
///                  never parsed far enough to have one), so a client
///                  can correlate a binary rejection with /tracez
///   msg_len  u32
///   message  msg_len bytes (UTF-8)
///
/// Decoders are strict: wrong magic/version/type, truncated or oversized
/// buffers, length-prefix mismatches and inconsistent internal counts
/// all fail with a diagnostic instead of reading garbage.
inline constexpr char kContentType[] = "application/x-dssddi";
/// True when a Content-Type header value names `kContentType`, ignoring
/// case and any parameters ("application/x-dssddi; charset=binary" still
/// counts — proxies and client libraries append parameters routinely).
/// The replica and the router both decide a request's codec with it.
bool IsBinaryContentType(const std::string& value);
inline constexpr uint16_t kMagic = 0x4453;
inline constexpr uint8_t kVersion = 2;
inline constexpr size_t kHeaderBytes = 16;
/// Byte offset of the request_id field within the header — the one
/// field the transport may rewrite in place (`PatchRequestId`) without
/// re-encoding the frame.
inline constexpr size_t kRequestIdOffset = 8;

enum class FrameType : uint8_t {
  kSuggestRequest = 1,
  kSuggestResponse = 2,
  kError = 3,
};

struct SuggestRequestFrame {
  int64_t patient_id = -1;
  uint32_t deadline_ms = 0;  // 0 = no deadline
  int k = 3;
  /// Compute + cache the full explained suggestion server-side (shared
  /// with the JSON route's cache); the explanation itself is never
  /// serialized into the response frame. Default off: pure scoring.
  bool explain = false;
  bool batch_priority = false;
  uint64_t trace_id = 0;
  std::vector<float> features;
  /// Header field, not payload: the multiplexing correlator the server
  /// echoes into the answering frame.
  uint64_t request_id = 0;
};

struct SuggestResponseFrame {
  uint64_t model_version = 0;
  uint64_t trace_id = 0;
  std::vector<int32_t> drugs;
  std::vector<float> scores;  // bit-exact binary32
  uint64_t request_id = 0;    // header field: echoed request correlator
};

struct ErrorFrame {
  uint32_t status = 500;
  std::string message;
  uint64_t trace_id = 0;
  uint64_t request_id = 0;  // header field: echoed request correlator
};

std::string EncodeSuggestRequest(const SuggestRequestFrame& frame);
std::string EncodeSuggestResponse(const SuggestResponseFrame& frame);
std::string EncodeError(const ErrorFrame& frame);

/// Each decoder consumes exactly one complete frame of its type. On any
/// violation it returns false with a diagnostic in `*error` and leaves
/// `*out` unspecified.
bool DecodeSuggestRequest(const std::string& buffer, SuggestRequestFrame* out,
                          std::string* error);
bool DecodeSuggestResponse(const std::string& buffer, SuggestResponseFrame* out,
                           std::string* error);
bool DecodeError(const std::string& buffer, ErrorFrame* out,
                 std::string* error);

/// Validates the 16-byte header only (magic, version, known type, length
/// prefix consistent with buffer size) and reports the frame type — how
/// a client tells a response frame from an error frame before decoding.
bool PeekFrameType(const std::string& buffer, FrameType* out,
                   std::string* error);

/// Reads the model_version of an encoded kSuggestResponse frame in place,
/// without decoding its drug and score arrays. True exactly when
/// DecodeSuggestResponse would accept the frame.
bool PeekModelVersion(const std::string& buffer, uint64_t* out);

// -------------------------------------------------------------------
// Pipelined stream parsing
// -------------------------------------------------------------------

/// One complete frame located inside a byte stream.
struct FrameView {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  /// Total frame size (header + payload): how many bytes to consume
  /// from the stream / slice out as a standalone frame buffer.
  size_t frame_bytes = 0;
};

enum class ExtractResult {
  kNeedMore,  // prefix of a valid frame; read more bytes
  kFrame,     // *out describes one complete frame at the buffer start
  kError,     // stream is not frame traffic (bad magic/version/type or
              // declared payload over the cap); unrecoverable
};

/// Incremental frame extractor for pipelined streams, where — unlike
/// the strict whole-buffer decoders above — trailing bytes are the next
/// frame, not an error. Validates magic/version/type as soon as the
/// first 4 bytes arrive (garbage fails fast, long before a forged
/// length prefix could stall the connection) and bounds the declared
/// payload by `max_payload_bytes` so a hostile length can never balloon
/// the receive buffer.
ExtractResult ExtractFrame(const char* data, size_t size,
                           size_t max_payload_bytes, FrameView* out,
                           std::string* error);

/// True when the first bytes of a fresh connection are a frame-magic
/// prefix — how the server tells raw pipelined frame traffic from HTTP
/// on the same port. Needs at most 2 bytes (no HTTP method starts with
/// "SD"); with fewer it answers true only while the prefix is still
/// consistent with the magic.
bool LooksLikeFramePrefix(const char* data, size_t size);

/// Reads the request_id header field of an encoded frame (complete or
/// not — only the first 16 bytes are touched). False when the buffer is
/// too short to contain the field.
bool PeekRequestId(const std::string& buffer, uint64_t* out);

/// Rewrites the request_id header field of an encoded frame in place —
/// how the transport stamps hop-local ids onto caller frames (and
/// restores them) without re-encoding the payload. False when the
/// buffer is too short.
bool PatchRequestId(std::string* frame, uint64_t request_id);

}  // namespace dssddi::net::wire

#endif  // DSSDDI_NET_WIRE_H_
