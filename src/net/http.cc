#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>

namespace dssddi::net {

bool AsciiEqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ParseUintHeader(const std::string& value, uint64_t* out) {
  if (value.empty()) return false;
  uint64_t parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    if (parsed > (UINT64_MAX - (c - '0')) / 10) return false;  // overflow
    parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = parsed;
  return true;
}

namespace {

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t')) --end;
  return text.substr(begin, end - begin);
}

bool IsTokenChar(char c) {
  // RFC 7230 token characters.
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (AsciiEqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  const bool close = response.close || !keep_alive;
  std::string out;
  out.reserve(128 + response.body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out.push_back(' ');
  out += StatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += close ? "\r\nConnection: close" : "\r\nConnection: keep-alive";
  for (const auto& [name, value] : response.extra_headers) {
    out += "\r\n";
    out += name;
    out += ": ";
    out += value;
  }
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

// ---------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------

HttpParser::Result HttpParser::Error(int status, std::string reason) {
  state_ = State::kError;
  error_status_ = status;
  error_reason_ = std::move(reason);
  return Result::kError;
}

void HttpParser::Reset() {
  state_ = State::kRequestLine;
  line_.clear();
  header_bytes_ = 0;
  body_remaining_ = 0;
  request_ = HttpRequest{};
  error_status_ = 0;
  error_reason_.clear();
}

HttpParser::Result HttpParser::Feed(const char* data, size_t size,
                                    size_t* consumed) {
  *consumed = 0;
  if (state_ == State::kComplete) return Result::kComplete;
  if (state_ == State::kError) return Result::kError;

  size_t pos = 0;
  while (pos < size) {
    if (state_ == State::kBody) {
      const size_t take = std::min(size - pos, body_remaining_);
      request_.body.append(data + pos, take);
      pos += take;
      body_remaining_ -= take;
      if (body_remaining_ == 0) {
        state_ = State::kComplete;
        *consumed = pos;
        return Result::kComplete;
      }
      break;  // took everything offered
    }

    // Line-oriented states: accumulate until '\n'.
    const char* newline = static_cast<const char*>(
        memchr(data + pos, '\n', size - pos));
    const size_t chunk_end = newline ? static_cast<size_t>(newline - data) : size;
    line_.append(data + pos, chunk_end - pos);
    const size_t limit = state_ == State::kRequestLine
                             ? limits_.max_request_line
                             : limits_.max_header_bytes;
    if (line_.size() > limit ||
        (state_ == State::kHeaders &&
         header_bytes_ + line_.size() > limits_.max_header_bytes)) {
      *consumed = pos;
      return state_ == State::kRequestLine
                 ? Error(414, "request line exceeds " +
                                  std::to_string(limits_.max_request_line) +
                                  " bytes")
                 : Error(431, "header block exceeds " +
                                  std::to_string(limits_.max_header_bytes) +
                                  " bytes");
    }
    if (!newline) {
      pos = size;
      break;  // wait for the rest of the line
    }
    pos = chunk_end + 1;  // swallow '\n'
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();

    if (state_ == State::kRequestLine) {
      if (line_.empty()) continue;  // tolerate leading blank lines (RFC 7230)
      if (!ProcessRequestLine(line_)) {
        *consumed = pos;
        return Result::kError;
      }
      line_.clear();
      state_ = State::kHeaders;
    } else {  // kHeaders
      if (line_.empty()) {
        if (!FinishHeaders()) {
          *consumed = pos;
          return Result::kError;
        }
        line_.clear();
        if (body_remaining_ == 0) {
          state_ = State::kComplete;
          *consumed = pos;
          return Result::kComplete;
        }
        state_ = State::kBody;
        continue;
      }
      header_bytes_ += line_.size() + 2;
      if (!ProcessHeaderLine(line_)) {
        *consumed = pos;
        return Result::kError;
      }
      line_.clear();
    }
  }
  *consumed = pos;
  return Result::kNeedMore;
}

bool HttpParser::ProcessRequestLine(const std::string& line) {
  const size_t first_space = line.find(' ');
  const size_t second_space =
      first_space == std::string::npos ? std::string::npos
                                       : line.find(' ', first_space + 1);
  if (first_space == std::string::npos || second_space == std::string::npos ||
      line.find(' ', second_space + 1) != std::string::npos) {
    Error(400, "malformed request line");
    return false;
  }
  request_.method = line.substr(0, first_space);
  request_.target = line.substr(first_space + 1, second_space - first_space - 1);
  const std::string version = line.substr(second_space + 1);

  if (request_.method.empty() ||
      !std::all_of(request_.method.begin(), request_.method.end(), IsTokenChar)) {
    Error(400, "malformed method token");
    return false;
  }
  if (request_.target.empty()) {
    Error(400, "empty request target");
    return false;
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
    request_.keep_alive = true;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
    request_.keep_alive = false;
  } else {
    Error(505, "unsupported protocol version '" + version + "'");
    return false;
  }
  return true;
}

bool HttpParser::ProcessHeaderLine(const std::string& line) {
  if (static_cast<int>(request_.headers.size()) >= limits_.max_headers) {
    Error(431, "more than " + std::to_string(limits_.max_headers) + " headers");
    return false;
  }
  const size_t colon = line.find(':');
  if (colon == std::string::npos || colon == 0) {
    Error(400, "malformed header line");
    return false;
  }
  const std::string name = line.substr(0, colon);
  if (!std::all_of(name.begin(), name.end(), IsTokenChar)) {
    Error(400, "malformed header name");
    return false;
  }
  request_.headers.emplace_back(name, Trim(line.substr(colon + 1)));
  return true;
}

bool HttpParser::FinishHeaders() {
  if (request_.FindHeader("Transfer-Encoding") != nullptr) {
    Error(501, "chunked transfer encoding is not supported");
    return false;
  }
  if (const std::string* connection = request_.FindHeader("Connection")) {
    if (AsciiEqualsIgnoreCase(*connection, "close")) {
      request_.keep_alive = false;
    } else if (AsciiEqualsIgnoreCase(*connection, "keep-alive")) {
      request_.keep_alive = true;
    }
  }
  // Reject duplicate Content-Length headers outright (RFC 7230 §3.3.2):
  // honoring "the first one" while a proxy in front honors the last is
  // the classic request-smuggling desync.
  int content_length_headers = 0;
  for (const auto& [name, value] : request_.headers) {
    if (AsciiEqualsIgnoreCase(name, "Content-Length")) ++content_length_headers;
  }
  if (content_length_headers > 1) {
    Error(400, "multiple Content-Length headers");
    return false;
  }
  const std::string* length = request_.FindHeader("Content-Length");
  if (length == nullptr) {
    body_remaining_ = 0;
    return true;
  }
  if (length->empty() ||
      !std::all_of(length->begin(), length->end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c));
      }) ||
      length->size() > 18) {
    Error(400, "malformed Content-Length");
    return false;
  }
  const unsigned long long value = std::stoull(*length);
  if (value > limits_.max_body_bytes) {
    Error(413, "body of " + *length + " bytes exceeds limit of " +
                   std::to_string(limits_.max_body_bytes));
    return false;
  }
  body_remaining_ = static_cast<size_t>(value);
  request_.body.reserve(body_remaining_);
  return true;
}

}  // namespace dssddi::net
