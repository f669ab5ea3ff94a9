#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "net/json.h"
#include "net/wire.h"
#include "util/logging.h"

namespace dssddi::net {
namespace {

/// Canned response for connections shed before a parser even exists.
constexpr char kOverloadResponse[] =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 36\r\n"
    "Connection: close\r\n"
    "\r\n"
    "{\"error\":\"connection limit reached\"}";

/// iovec batch size per vectored write; far above what a flush
/// typically holds, far below IOV_MAX.
constexpr int kMaxIov = 64;

constexpr int kBacklog = 128;
/// Every connection's parser runs with the default hard limits.
constexpr HttpParser::Limits kLimits{};
/// Frame mode: requests concurrently in flight per connection before the
/// server stops reading from it (per-connection admission; the global
/// admission controller still applies per request).
constexpr size_t kMaxPipelineDepth = 32;
/// Frame mode: unflushed response bytes queued on a connection before
/// the server stops reading from it (write-queue backpressure — a peer
/// that stops reading cannot balloon memory).
constexpr size_t kMaxPipelineWriteBytes = 1 << 20;

io::Status MakeListenSocket(const std::string& host, int port,
                            bool want_reuseport, bool* got_reuseport,
                            int* out_fd, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return io::Status::Error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  *got_reuseport = false;
  if (want_reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) == 0) {
    *got_reuseport = true;
  }

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return io::Status::Error("unparseable listen address '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    const io::Status status = io::Status::Error(
        "bind " + host + ":" + std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, kBacklog) != 0) {
    const io::Status status =
        io::Status::Error(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  struct sockaddr_in bound {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &bound_len) != 0) {
    const io::Status status =
        io::Status::Error(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  *out_fd = fd;
  *bound_port = ntohs(bound.sin_port);
  return io::Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------
// ResponseWriter
// ---------------------------------------------------------------------

void ResponseWriter::Send(HttpResponse response) const {
  if (!target_) return;
  if (target_->used.exchange(true, std::memory_order_acq_rel)) return;
  HttpServer* const server = target_->server;
  const size_t loop_index = target_->loop_index;
  const uint64_t conn_id = target_->conn_id;
  const bool frame = target_->frame;
  const uint64_t request_id = target_->request_id;
  // The posted task only runs while the loop is alive, and the loop only
  // dies inside HttpServer::Stop — which joins before the server's
  // connection tables are torn down. A Send after Stop returns false
  // here and the response is dropped (the socket is gone anyway).
  target_->loop->Post([server, loop_index, conn_id, frame, request_id,
                       response = std::move(response)]() mutable {
    server->CompleteRequest(loop_index, conn_id, std::move(response), frame,
                            request_id);
  });
}

// ---------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------

HttpServer::HttpServer(const HttpServerOptions& options, Handler handler)
    : options_(options), handler_(std::move(handler)) {
  DSSDDI_CHECK(handler_ != nullptr) << "HttpServer needs a handler";
  if (options_.num_loops < 1) options_.num_loops = 1;
  if (options_.max_connections < 1) options_.max_connections = 1;
}

HttpServer::~HttpServer() { Stop(); }

io::Status HttpServer::Start() {
  DSSDDI_CHECK(!started_) << "HttpServer::Start called twice";

  // First listener: resolves the port (maybe ephemeral) and tells us
  // whether this kernel honors SO_REUSEPORT.
  int first_fd = -1;
  bool first_reuseport = false;
  const bool want_reuseport = options_.num_loops > 1 || options_.reuseport;
  io::Status status =
      MakeListenSocket(options_.host, options_.port, want_reuseport,
                       &first_reuseport, &first_fd, &port_);
  if (!status.ok) return status;
  reuseport_ = want_reuseport && first_reuseport;

  loops_.clear();
  for (int i = 0; i < options_.num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->events = std::make_shared<EventLoop>();
    if (i == 0) {
      loop->listen_fd = first_fd;
    } else if (reuseport_) {
      bool got = false;
      status = MakeListenSocket(options_.host, port_, /*want_reuseport=*/true,
                                &got, &loop->listen_fd, &port_);
      if (!status.ok) {
        ::close(first_fd);
        for (auto& l : loops_) {
          if (l->listen_fd >= 0) ::close(l->listen_fd);
        }
        loops_.clear();
        return status;
      }
    }
    loops_.push_back(std::move(loop));
  }

  for (size_t i = 0; i < loops_.size(); ++i) {
    Loop& loop = *loops_[i];
    if (loop.listen_fd >= 0) {
      loop.events->Add(loop.listen_fd, EPOLLIN,
                       [this, i](uint32_t) { HandleAccept(i); });
    }
    loop.thread = std::thread([events = loop.events] { events->Run(); });
  }
  started_ = true;
  return io::Status::Ok();
}

void HttpServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  draining_.store(true, std::memory_order_relaxed);
  if (options_.drain_timeout_ms > 0) {
    // Phase 1: stop accepting. Listener teardown must run on the loop
    // threads (epoll registration is loop-owned); existing connections
    // keep being served.
    for (auto& loop_ptr : loops_) {
      Loop* loop = loop_ptr.get();
      loop->events->Post([loop] {
        if (loop->listen_fd >= 0) {
          loop->events->Remove(loop->listen_fd);
          ::close(loop->listen_fd);
          loop->listen_fd = -1;
        }
      });
    }
    // Phase 2: wait (bounded) until every dispatched request has been
    // answered and every answer has left the socket buffers. A peer
    // that stops reading cannot stretch this past the deadline.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_timeout_ms);
    while (std::chrono::steady_clock::now() < deadline &&
           (in_flight_.load(std::memory_order_relaxed) > 0 ||
            pending_out_.load(std::memory_order_relaxed) > 0)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (auto& loop : loops_) loop->events->Stop();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Loop threads are dead; tear the sockets down from here.
  for (auto& loop : loops_) {
    for (auto& [id, conn] : loop->conns) {
      ::close(conn->fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop->conns.clear();
    if (loop->listen_fd >= 0) {
      ::close(loop->listen_fd);
      loop->listen_fd = -1;
    }
  }
}

HttpServer::Counters HttpServer::counters() const {
  Counters counters;
  counters.accepted = accepted_.load(std::memory_order_relaxed);
  counters.active = active_.load(std::memory_order_relaxed);
  counters.requests = requests_.load(std::memory_order_relaxed);
  counters.responses = responses_.load(std::memory_order_relaxed);
  counters.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  counters.overload_closed = overload_closed_.load(std::memory_order_relaxed);
  return counters;
}

void HttpServer::HandleAccept(size_t loop_index) {
  Loop& loop = *loops_[loop_index];
  for (;;) {  // edge-triggered: drain the accept queue
    const int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ECONNABORTED) {
        DSSDDI_LOG(Warning) << "accept4: " << std::strerror(errno);
      }
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const fault::FaultAction accept_fault =
        fault::Probe(options_.fault.get(), fault::FaultOp::kAccept);
    if (accept_fault.kind == fault::FaultAction::Kind::kBlackout ||
        accept_fault.kind == fault::FaultAction::Kind::kReset) {
      // Blacked-out replica / injected accept reset: RST the peer so
      // clients observe a dead endpoint, not a polite close.
      struct linger rst {1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
      ::close(fd);
      continue;
    }
    if (accept_fault.kind == fault::FaultAction::Kind::kStall) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(accept_fault.stall_ms));
    }
    if (active_.load(std::memory_order_relaxed) >=
        static_cast<uint64_t>(options_.max_connections)) {
      overload_closed_.fetch_add(1, std::memory_order_relaxed);
      if (options_.recorder) {
        options_.recorder->Record(
            obs::LogSeverity::kWarning, obs::LogReason::kOverloadClosed,
            "http", 503, 0, 0.0, nullptr,
            "accept shed: connection cap reached");
      }
      // Best-effort courtesy 503; the fresh socket buffer makes a short
      // write all but guaranteed.
      [[maybe_unused]] const ssize_t n =
          ::send(fd, kOverloadResponse, sizeof(kOverloadResponse) - 1,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const size_t target =
        reuseport_ ? loop_index
                   : next_loop_.fetch_add(1, std::memory_order_relaxed) %
                         loops_.size();
    if (target == loop_index) {
      RegisterConnection(target, fd);
    } else if (!loops_[target]->events->Post(
                   [this, target, fd] { RegisterConnection(target, fd); })) {
      ::close(fd);  // target loop already stopped
    }
  }
}

void HttpServer::RegisterConnection(size_t loop_index, int fd) {
  Loop& loop = *loops_[loop_index];
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t id = conn->id;
  active_.fetch_add(1, std::memory_order_relaxed);
  loop.conns.emplace(id, std::move(conn));
  loop.events->Add(fd, EPOLLIN | EPOLLRDHUP,
                   [this, loop_index, id](uint32_t events) {
                     HandleIo(loop_index, id, events);
                   });
}

void HttpServer::HandleIo(size_t loop_index, uint64_t conn_id, uint32_t events) {
  Loop& loop = *loops_[loop_index];
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  Connection* conn = it->second.get();

  if (events & EPOLLERR) {
    CloseConnection(loop_index, conn_id);
    return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
    // Backpressured frame connections leave bytes in the kernel buffer;
    // the completion path resumes reading explicitly, which re-arms the
    // edge-triggered readiness we are ignoring here.
    if (!conn->read_paused) {
      if (!ReadInput(loop_index, conn)) return;
      if (!ProcessConnection(loop_index, conn)) return;
    }
  }
  if (events & EPOLLOUT) {
    if (!FlushOutput(loop_index, conn)) return;
    if (conn->mode == Connection::Mode::kFrame) {
      ResumeFrameProcessing(loop_index, conn);
    } else if (!conn->awaiting_response && !conn->close_after_flush) {
      ProcessConnection(loop_index, conn);
    }
  }
}

bool HttpServer::ReadInput(size_t loop_index, Connection* conn) {
  const fault::FaultAction read_fault =
      fault::Probe(options_.fault.get(), fault::FaultOp::kRead);
  if (read_fault.kind == fault::FaultAction::Kind::kBlackout ||
      read_fault.kind == fault::FaultAction::Kind::kReset) {
    AbortConnection(loop_index, conn->id);
    return false;
  }
  if (read_fault.kind == fault::FaultAction::Kind::kStall) {
    // Stalls the loop thread on purpose: a wedged replica is slow for
    // every connection it owns, which is exactly the tail chaos tests
    // need to produce.
    std::this_thread::sleep_for(std::chrono::milliseconds(read_fault.stall_ms));
  }
  // Pipelining / slowloris guard: a connection may buffer at most one
  // maximal request plus a read chunk before we stop trusting it.
  const size_t input_cap = kLimits.max_request_line +
                           kLimits.max_header_bytes + kLimits.max_body_bytes +
                           8192;
  char buffer[8192];
  for (;;) {  // edge-triggered: drain until EAGAIN or EOF
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      if (conn->in.size() > input_cap) {
        CloseConnection(loop_index, conn->id);
        return false;
      }
      continue;
    }
    if (n == 0) {
      conn->eof = true;
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    CloseConnection(loop_index, conn->id);
    return false;
  }
}

bool HttpServer::ProcessConnection(size_t loop_index, Connection* conn) {
  if (conn->mode == Connection::Mode::kUnknown) {
    // Sniff the protocol from the first bytes: the frame magic ("SD")
    // collides with no HTTP method. One ambiguous buffered byte ('S')
    // waits for its successor rather than feeding the HTTP parser bytes
    // that may turn out to be a frame.
    if (conn->in.size() >= 2) {
      conn->mode = wire::LooksLikeFramePrefix(conn->in.data(), 2)
                       ? Connection::Mode::kFrame
                       : Connection::Mode::kHttp;
    } else if (!conn->in.empty() &&
               !wire::LooksLikeFramePrefix(conn->in.data(), conn->in.size())) {
      conn->mode = Connection::Mode::kHttp;
    } else if (conn->eof) {
      conn->mode = Connection::Mode::kHttp;  // let the parser 400 it
    } else {
      return true;  // undecidable with 0-1 bytes; wait for more
    }
  }
  if (conn->mode == Connection::Mode::kFrame) {
    return ProcessFrames(loop_index, conn);
  }
  return ProcessHttp(loop_index, conn);
}

bool HttpServer::ProcessHttp(size_t loop_index, Connection* conn) {
  while (!conn->awaiting_response && !conn->close_after_flush &&
         !conn->in.empty()) {
    size_t consumed = 0;
    const HttpParser::Result result =
        conn->parser.Feed(conn->in.data(), conn->in.size(), &consumed);
    conn->in.erase(0, consumed);
    if (result == HttpParser::Result::kNeedMore) break;
    if (result == HttpParser::Result::kError) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      if (options_.recorder) {
        options_.recorder->Record(
            obs::LogSeverity::kError, obs::LogReason::kParseError, "http",
            conn->parser.error_status(), 0, 0.0, nullptr,
            "request parse failed; connection closing");
      }
      HttpResponse error;
      error.status = conn->parser.error_status();
      // The reason can embed raw client bytes (method, version token);
      // escape them or the error body itself is malformed JSON.
      error.body = "{\"error\":\"" + JsonEscape(conn->parser.error_reason()) + "\"}";
      error.close = true;
      QueueOutput(conn, SerializeResponse(error, /*keep_alive=*/false));
      conn->close_after_flush = true;
      break;
    }
    // One complete request: dispatch and stop parsing until it is
    // answered (pipelined successors stay buffered in `in`).
    requests_.fetch_add(1, std::memory_order_relaxed);
    HttpRequest request = conn->parser.TakeRequest();
    conn->parser.Reset();
    conn->awaiting_response = true;
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    conn->keep_alive = request.keep_alive;

    ResponseWriter writer;
    writer.target_ = std::make_shared<ResponseWriter::Target>();
    writer.target_->loop = loops_[loop_index]->events;
    writer.target_->server = this;
    writer.target_->loop_index = loop_index;
    writer.target_->conn_id = conn->id;
    handler_(request, writer);
  }
  if (conn->eof && !conn->awaiting_response && conn->out_bytes == 0) {
    CloseConnection(loop_index, conn->id);
    return false;
  }
  return FlushOutput(loop_index, conn);
}

bool HttpServer::PipelineSaturated(const Connection* conn) const {
  return conn->frame_pending.size() >= kMaxPipelineDepth ||
         conn->out_bytes > kMaxPipelineWriteBytes;
}

bool HttpServer::ProcessFrames(size_t loop_index, Connection* conn) {
  // A forged length prefix may not balloon the buffer: frames are capped
  // at the same body limit the HTTP route enforces (plus its own
  // envelope slack, which frames don't need).
  const size_t max_payload = kLimits.max_body_bytes;
  while (!conn->close_after_flush && !conn->in.empty() &&
         !PipelineSaturated(conn)) {
    wire::FrameView view;
    std::string error;
    const wire::ExtractResult result = wire::ExtractFrame(
        conn->in.data(), conn->in.size(), max_payload, &view, &error);
    if (result == wire::ExtractResult::kNeedMore) break;
    if (result == wire::ExtractResult::kError) {
      // Stream-level violation (bad magic/version/type, hostile
      // length): answer with a connection-level error frame
      // (request_id 0) and hang up — the stream has no recoverable
      // frame boundary to resume from.
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      if (options_.recorder) {
        options_.recorder->Record(
            obs::LogSeverity::kError, obs::LogReason::kParseError, "wire",
            400, 0, 0.0, nullptr, "frame parse failed; connection closing");
      }
      wire::ErrorFrame reject;
      reject.status = 400;
      reject.message = "frame error: " + error;
      QueueOutput(conn, wire::EncodeError(reject));
      conn->close_after_flush = true;
      break;
    }
    std::string frame = conn->in.substr(0, view.frame_bytes);
    conn->in.erase(0, view.frame_bytes);
    if (view.type != wire::FrameType::kSuggestRequest) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      wire::ErrorFrame reject;
      reject.status = 400;
      reject.message = "only request frames are accepted on this connection";
      reject.request_id = view.request_id;
      QueueOutput(conn, wire::EncodeError(reject));
      conn->close_after_flush = true;
      break;
    }
    if (!conn->frame_pending.insert(view.request_id).second) {
      // Duplicate in-flight id: the client broke the multiplexing
      // contract for this one request; reject it with a structured
      // error frame but keep the connection (and the original
      // request) alive.
      wire::ErrorFrame reject;
      reject.status = 400;
      reject.message = "duplicate in-flight request_id";
      reject.request_id = view.request_id;
      QueueOutput(conn, wire::EncodeError(reject));
      ScheduleFlush(loop_index, conn);
      continue;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);

    // Synthesize the HTTP request the frontend already speaks: the
    // frame rides as a binary POST /v1/suggest body, so admission,
    // deadlines, tracing and metrics behave identically on both
    // transports.
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/suggest";
    request.version_minor = 1;
    request.headers.push_back({"content-type", wire::kContentType});
    request.body = std::move(frame);
    request.keep_alive = true;

    ResponseWriter writer;
    writer.target_ = std::make_shared<ResponseWriter::Target>();
    writer.target_->loop = loops_[loop_index]->events;
    writer.target_->server = this;
    writer.target_->loop_index = loop_index;
    writer.target_->conn_id = conn->id;
    writer.target_->frame = true;
    writer.target_->request_id = view.request_id;
    handler_(request, writer);
  }
  conn->read_paused = PipelineSaturated(conn) && !conn->close_after_flush;
  if (conn->eof && conn->frame_pending.empty() && conn->out_bytes == 0 &&
      !conn->flush_scheduled) {
    CloseConnection(loop_index, conn->id);
    return false;
  }
  return FlushOutput(loop_index, conn);
}

bool HttpServer::FlushOutput(size_t loop_index, Connection* conn) {
  while (conn->out_bytes > 0) {
    const fault::FaultAction write_fault =
        fault::Probe(options_.fault.get(), fault::FaultOp::kWrite);
    switch (write_fault.kind) {
      case fault::FaultAction::Kind::kBlackout:
      case fault::FaultAction::Kind::kReset:
        AbortConnection(loop_index, conn->id);
        return false;
      case fault::FaultAction::Kind::kTruncate: {
        // Deliver a prefix of the pending bytes, then RST: the peer
        // sees a frame cut mid-payload.
        const std::string& front = conn->outq.front();
        const size_t remaining = front.size() - conn->out_offset;
        const size_t part = remaining / 2;
        if (part > 0) {
          [[maybe_unused]] const ssize_t n =
              ::send(conn->fd, front.data() + conn->out_offset, part,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
        }
        AbortConnection(loop_index, conn->id);
        return false;
      }
      case fault::FaultAction::Kind::kCorrupt: {
        // Flip one bit mid-way through the unsent bytes — lands in the
        // response body for anything but tiny heads, so binary-frame
        // clients must detect it by strict decode.
        size_t target = conn->out_bytes / 2;
        size_t skip = conn->out_offset;
        for (auto& buf : conn->outq) {
          const size_t avail = buf.size() - skip;
          if (target < avail) {
            buf[skip + target] ^= 0x20;
            break;
          }
          target -= avail;
          skip = 0;
        }
        break;
      }
      case fault::FaultAction::Kind::kStall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(write_fault.stall_ms));
        break;
      case fault::FaultAction::Kind::kNone:
        break;
    }
    // Coalesce the queued buffers into one vectored write: pipelined
    // completions batch many response frames per syscall instead of
    // paying one send() per frame.
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    size_t skip = conn->out_offset;
    for (auto& buf : conn->outq) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<char*>(buf.data()) + skip;
      iov[iovcnt].iov_len = buf.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      size_t sent = static_cast<size_t>(n);
      conn->out_bytes -= sent;
      while (sent > 0) {
        std::string& front = conn->outq.front();
        const size_t avail = front.size() - conn->out_offset;
        if (sent < avail) {
          conn->out_offset += sent;
          sent = 0;
        } else {
          sent -= avail;
          conn->out_offset = 0;
          conn->outq.pop_front();
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        loops_[loop_index]->events->Modify(conn->fd,
                                           EPOLLIN | EPOLLRDHUP | EPOLLOUT);
      }
      SyncPendingOut(conn);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(loop_index, conn->id);
    return false;
  }
  SyncPendingOut(conn);
  if (conn->want_write) {
    conn->want_write = false;
    loops_[loop_index]->events->Modify(conn->fd, EPOLLIN | EPOLLRDHUP);
  }
  const bool idle = conn->mode == Connection::Mode::kFrame
                        ? conn->frame_pending.empty()
                        : !conn->awaiting_response;
  if (conn->close_after_flush || (conn->eof && idle)) {
    CloseConnection(loop_index, conn->id);
    return false;
  }
  return true;
}

bool HttpServer::ResumeFrameProcessing(size_t loop_index, Connection* conn) {
  if (conn->mode != Connection::Mode::kFrame) return true;
  if (conn->read_paused && !PipelineSaturated(conn)) {
    conn->read_paused = false;
    // Edge-triggered epoll reported readiness we ignored while paused;
    // an explicit read is the only way to learn what arrived since.
    if (!ReadInput(loop_index, conn)) return false;
  }
  return ProcessConnection(loop_index, conn);
}

void HttpServer::QueueOutput(Connection* conn, std::string bytes) {
  if (bytes.empty()) return;
  conn->out_bytes += bytes.size();
  conn->outq.push_back(std::move(bytes));
}

void HttpServer::ScheduleFlush(size_t loop_index, Connection* conn) {
  if (conn->flush_scheduled) return;
  conn->flush_scheduled = true;
  const uint64_t conn_id = conn->id;
  // Runs after every completion already queued on the loop: all of
  // their response frames land in one vectored write.
  loops_[loop_index]->events->Post([this, loop_index, conn_id] {
    Loop& loop = *loops_[loop_index];
    auto it = loop.conns.find(conn_id);
    if (it == loop.conns.end()) return;
    Connection* conn = it->second.get();
    conn->flush_scheduled = false;
    if (!FlushOutput(loop_index, conn)) return;
    ResumeFrameProcessing(loop_index, conn);
  });
}

void HttpServer::CompleteRequest(size_t loop_index, uint64_t conn_id,
                                 HttpResponse response, bool frame,
                                 uint64_t request_id) {
  Loop& loop = *loops_[loop_index];
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;  // connection died while scoring
  Connection* conn = it->second.get();

  if (frame) {
    if (conn->frame_pending.erase(request_id) == 0) return;
    responses_.fetch_add(1, std::memory_order_relaxed);
    std::string body;
    if (response.content_type == wire::kContentType) {
      body = std::move(response.body);
    } else {
      // The handler answered outside the binary codec (it never does
      // for synthesized suggest requests, but a handler swap must not
      // corrupt the stream): wrap it as an error frame.
      wire::ErrorFrame wrapped;
      wrapped.status = static_cast<uint32_t>(response.status);
      wrapped.message = response.body;
      body = wire::EncodeError(wrapped);
    }
    // Transport-level echo enforcement: whatever the codec put in the
    // header, the answer carries the id the request arrived under.
    wire::PatchRequestId(&body, request_id);
    QueueOutput(conn, std::move(body));
    // Count the unflushed bytes before releasing in_flight_ so the
    // drain loop never observes both gauges at zero with a response
    // still buffered.
    SyncPendingOut(conn);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    ScheduleFlush(loop_index, conn);
    return;
  }

  if (!conn->awaiting_response) return;
  responses_.fetch_add(1, std::memory_order_relaxed);
  const bool keep = conn->keep_alive && !response.close;
  QueueOutput(conn, SerializeResponse(response, conn->keep_alive));
  // Count the unflushed bytes before releasing in_flight_ so the drain
  // loop never observes both gauges at zero with a response still
  // buffered.
  SyncPendingOut(conn);
  conn->awaiting_response = false;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  if (!keep) conn->close_after_flush = true;
  if (!FlushOutput(loop_index, conn)) return;
  if (!conn->close_after_flush) {
    ProcessConnection(loop_index, conn);  // next pipelined request, if any
  }
}

void HttpServer::CloseConnection(size_t loop_index, uint64_t conn_id) {
  Loop& loop = *loops_[loop_index];
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  Connection* conn = it->second.get();
  const uint64_t abandoned = conn->frame_pending.size() +
                             (conn->awaiting_response ? 1 : 0);
  if (abandoned > 0) {
    // The connection died while requests were scoring; the late
    // ResponseWriter::Sends will find the id gone and drop their
    // responses.
    in_flight_.fetch_sub(abandoned, std::memory_order_relaxed);
  }
  if (conn->counted_pending) {
    pending_out_.fetch_sub(1, std::memory_order_relaxed);
  }
  loop.events->Remove(conn->fd);
  ::close(conn->fd);
  loop.conns.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
}

void HttpServer::SyncPendingOut(Connection* conn) {
  const bool pending = conn->out_bytes > 0;
  if (pending == conn->counted_pending) return;
  conn->counted_pending = pending;
  if (pending) {
    pending_out_.fetch_add(1, std::memory_order_relaxed);
  } else {
    pending_out_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void HttpServer::AbortConnection(size_t loop_index, uint64_t conn_id) {
  Loop& loop = *loops_[loop_index];
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  struct linger rst {1, 0};
  ::setsockopt(it->second->fd, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
  CloseConnection(loop_index, conn_id);
}

}  // namespace dssddi::net
