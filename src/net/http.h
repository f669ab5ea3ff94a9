#ifndef DSSDDI_NET_HTTP_H_
#define DSSDDI_NET_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dssddi::net {

/// One parsed HTTP/1.x request.
struct HttpRequest {
  std::string method;   // uppercase token, e.g. "GET"
  std::string target;   // origin-form, e.g. "/v1/suggest"
  int version_minor = 1;  // HTTP/1.<minor>
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Connection semantics after this request: HTTP/1.1 defaults to
  /// keep-alive, HTTP/1.0 to close, both overridable by `Connection`.
  bool keep_alive = true;

  /// First header named `name` (ASCII case-insensitive), or nullptr.
  const std::string* FindHeader(const std::string& name) const;
};

/// One response as the handler produces it; the server fills in framing
/// (Content-Length, Connection) when serializing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Force Connection: close after this response.
  bool close = false;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Canonical reason phrase ("OK", "Too Many Requests", ...).
const char* StatusReason(int status);

/// ASCII case-insensitive equality, as header-name comparison requires.
/// Shared by the server-side parser and the test client.
bool AsciiEqualsIgnoreCase(const std::string& a, const std::string& b);

/// Strictly numeric header value (X-Deadline-Ms, X-Trace-Id): one or more
/// ASCII digits that fit a uint64_t, nothing else. False on anything
/// else; a malformed value is a client bug worth a 400, not a silent
/// default.
bool ParseUintHeader(const std::string& value, uint64_t* out);

/// Full wire bytes for `response`. `keep_alive` reflects the request's
/// connection semantics; `response.close` can only force closing.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Incremental HTTP/1.0–1.1 request parser with hard limits. Bytes are
/// pushed with `Feed`, which consumes at most one request's worth and
/// leaves pipelined followers to the caller's buffer. No chunked
/// transfer encoding: requests declaring one are rejected with 501 — the
/// suggest API uses small fixed-length JSON bodies, and refusing chunked
/// keeps the parser's state machine (and its attack surface) minimal.
class HttpParser {
 public:
  struct Limits {
    size_t max_request_line = 8192;
    /// All header lines together, excluding the request line.
    size_t max_header_bytes = 32768;
    int max_headers = 64;
    size_t max_body_bytes = 1 << 20;
  };

  enum class Result {
    kNeedMore,   // consumed everything offered, request incomplete
    kComplete,   // one full request parsed; leftover bytes unconsumed
    kError,      // protocol violation; see error_status()/error_reason()
  };

  HttpParser() = default;
  explicit HttpParser(const Limits& limits) : limits_(limits) {}

  /// Consumes up to `size` bytes, advancing `*consumed`. Once kComplete
  /// or kError is returned, further Feeds return the same result until
  /// `Reset`.
  Result Feed(const char* data, size_t size, size_t* consumed);

  /// Valid after kComplete. The parser keeps ownership until Reset.
  const HttpRequest& request() const { return request_; }
  /// Moves the request out (parser must be Reset before reuse).
  HttpRequest TakeRequest() { return std::move(request_); }

  /// Valid after kError: the HTTP status that describes the violation
  /// (400, 413, 431, 501, 505) and a human-readable reason.
  int error_status() const { return error_status_; }
  const std::string& error_reason() const { return error_reason_; }

  /// Back to a fresh parser for the next request on the connection.
  void Reset();

 private:
  enum class State { kRequestLine, kHeaders, kBody, kComplete, kError };

  Result Error(int status, std::string reason);
  bool ProcessRequestLine(const std::string& line);
  bool ProcessHeaderLine(const std::string& line);
  bool FinishHeaders();

  Limits limits_;
  State state_ = State::kRequestLine;
  std::string line_;          // current, possibly partial, CRLF line
  size_t header_bytes_ = 0;
  size_t body_remaining_ = 0;
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_reason_;
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_HTTP_H_
