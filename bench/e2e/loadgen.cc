#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <strings.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <random>

#include "net/json.h"
#include "net/wire.h"

namespace dssddi::e2e {
namespace {

/// Bounds trace memory and file size (4 spans per request) on fast
/// closed loops: the first 25k requests of a traced phase are kept.
constexpr size_t kMaxSpans = 100000;

/// After a phase ends, how long outstanding requests may still finish.
constexpr double kDrainS = 3.0;

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

double ThreadCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

int64_t SecondsToNs(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

/// Parses the HTTP/1.1 response at the start of `in` (fixed-length bodies
/// only, which is all the server sends). False while incomplete.
bool ParseResponse(const std::string& in, int* status, size_t* body_begin,
                   size_t* body_size, bool* close) {
  const size_t header_end = in.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  *status = in.size() > 12 ? std::atoi(in.c_str() + 9) : 0;  // "HTTP/1.1 200"
  *body_size = 0;
  *close = false;
  size_t line = in.find("\r\n");
  while (line < header_end) {
    const size_t next = in.find("\r\n", line + 2);
    const char* header = in.c_str() + line + 2;
    const size_t length = next - line - 2;
    if (length > 15 && ::strncasecmp(header, "content-length:", 15) == 0) {
      *body_size = std::strtoull(header + 15, nullptr, 10);
    } else if (length > 11 && ::strncasecmp(header, "connection:", 11) == 0) {
      *close = std::string(header + 11, length - 11).find("close") != std::string::npos;
    }
    line = next;
  }
  *body_begin = header_end + 4;
  return in.size() >= *body_begin + *body_size;
}

struct Pending {
  uint64_t id = 0;
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  OutgoingRequest request;
};

struct Conn {
  int fd = -1;
  ConnectionSpec spec;
  std::string in;
  std::string out;
  size_t out_sent = 0;
  /// HTTP: the one outstanding request; frames: every outstanding one.
  std::vector<Pending> pending;
  /// When the connection last had no request outstanding.
  int64_t free_since_ns = 0;

  bool has_room() const {
    return fd >= 0 && static_cast<int>(pending.size()) < spec.depth;
  }
};

}  // namespace

PhaseResult LoadGenerator::Run(const PhaseOptions& options) {
  // ppoll's default 50 us timer slack would show up as send lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  PhaseResult result;
  std::vector<Conn> conns(options.connections.size());
  fds_.resize(std::max(fds_.size(), conns.size()), -1);
  for (size_t i = 0; i < conns.size(); ++i) {
    conns[i].spec = options.connections[i];
    conns[i].fd = fds_[i] >= 0 ? fds_[i] : ConnectLoopback(port_);
  }
  Conn admin;
  if (options.reload_every_s > 0) {
    admin.fd = admin_fd_ >= 0 ? admin_fd_ : ConnectLoopback(port_);
  }

  const bool open = options.open_rate > 0;
  std::mt19937_64 rng(options.seed);
  std::exponential_distribution<double> gap_s(open ? options.open_rate : 1.0);
  std::deque<int64_t> backlog;  // due (open loop), not yet sent

  const double cpu_start = ThreadCpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + SecondsToNs(options.seconds);
  const int64_t drain_end = end + SecondsToNs(kDrainS);
  int64_t next_arrival = open ? start + SecondsToNs(gap_s(rng)) : INT64_MAX;
  int64_t next_reload = options.reload_every_s > 0 ? start : INT64_MAX;
  int64_t last_answer = start;
  for (Conn& conn : conns) conn.free_since_ns = start;

  auto flush = [&](Conn& conn) {
    while (conn.fd >= 0 && conn.out_sent < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                               conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_sent += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        return;
      } else {
        ::close(conn.fd);
        conn.fd = -1;  // outstanding requests are failed by the caller
        return;
      }
    }
    conn.out.clear();
    conn.out_sent = 0;
  };

  const std::string deadline_header =
      "\r\nX-Deadline-Ms: " + std::to_string(kLatencyLimitMs);
  auto dispatch = [&](Conn& conn, int64_t sched_ns) {
    Pending pending;
    pending.id = next_request_id_++;
    pending.sched_ns = sched_ns;
    source_->Next(conn.spec.transport, &pending.request);
    std::string& body = pending.request.body;
    const size_t queued = conn.out.size();
    if (conn.spec.transport == Transport::kFrame) {
      net::wire::PatchRequestId(&body, pending.id);
    } else {
      conn.out += "POST /v1/suggest HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: ";
      conn.out += pending.request.binary ? net::wire::kContentType : "application/json";
      conn.out += deadline_header;
      conn.out += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    }
    conn.out += body;
    result.bytes_out += conn.out.size() - queued;
    std::string().swap(body);  // sent; keep only the query
    pending.send_ns = NowNs();
    conn.pending.push_back(std::move(pending));
  };

  auto complete = [&](Conn& conn, size_t index, int status, const char* body,
                      size_t size, size_t wire_bytes) {
    const int64_t now = NowNs();
    Pending& pending = conn.pending[index];
    result.bytes_in += wire_bytes;
    last_answer = now;
    if (pending.request.query.explain) ++result.explained;
    if (status == 200) {
      uint64_t version = 0;
      if (check_(pending.request, body, size, &version)) {
        ++result.ok;
        const double ms = static_cast<double>(now - pending.sched_ns) / 1e6;
        result.latency_ms.push_back(ms);
        if (ms > kLatencyLimitMs) ++result.over_limit;
      } else {
        ++result.wrong;
      }
      result.max_model_version = std::max(result.max_model_version, version);
    } else {
      ++result.rejected;
    }
    if (options.trace && result.spans.size() + 4 <= kMaxSpans) {
      const int64_t checked = NowNs();
      const int64_t root = static_cast<int64_t>(result.spans.size());
      result.spans.push_back({"request", pending.sched_ns, checked, pending.id, -1});
      result.spans.push_back(
          {"client_queue", pending.sched_ns, pending.send_ns, pending.id, root});
      result.spans.push_back({"exchange", pending.send_ns, now, pending.id, root});
      result.spans.push_back({"check", now, checked, pending.id, root});
    }
    conn.pending.erase(conn.pending.begin() + static_cast<std::ptrdiff_t>(index));
    if (conn.pending.empty()) conn.free_since_ns = now;
  };

  auto fail_connection = [&](Conn& conn) {
    result.lost += conn.pending.size();
    conn.pending.clear();
    if (conn.fd >= 0) ::close(conn.fd);
    conn.in.clear();
    conn.out.clear();
    conn.out_sent = 0;
    conn.fd = ConnectLoopback(port_);
    conn.free_since_ns = NowNs();
  };

  // Parses every complete answer buffered on `conn`. False when the
  // connection must be dropped.
  auto drain_answers = [&](Conn& conn, bool is_admin) {
    if (conn.spec.transport == Transport::kFrame) {
      for (;;) {
        net::wire::FrameView view;
        std::string error;
        const net::wire::ExtractResult extracted = net::wire::ExtractFrame(
            conn.in.data(), conn.in.size(), 1 << 20, &view, &error);
        if (extracted == net::wire::ExtractResult::kNeedMore) return true;
        if (extracted == net::wire::ExtractResult::kError) return false;
        const std::string frame = conn.in.substr(0, view.frame_bytes);
        conn.in.erase(0, view.frame_bytes);
        const auto it = std::find_if(
            conn.pending.begin(), conn.pending.end(),
            [&](const Pending& p) { return p.id == view.request_id; });
        if (it == conn.pending.end()) return false;
        int status = 200;
        if (view.type != net::wire::FrameType::kSuggestResponse) {
          net::wire::ErrorFrame rejection;
          status = net::wire::DecodeError(frame, &rejection, &error)
                       ? static_cast<int>(rejection.status)
                       : 500;
        }
        complete(conn, static_cast<size_t>(it - conn.pending.begin()), status,
                 frame.data(), frame.size(), frame.size());
      }
    }
    int status = 0;
    size_t body_begin = 0;
    size_t body_size = 0;
    bool close = false;
    while (!conn.pending.empty() &&
           ParseResponse(conn.in, &status, &body_begin, &body_size, &close)) {
      const size_t total = body_begin + body_size;
      if (is_admin) {
        const int64_t now = NowNs();
        net::JsonValue answer;
        std::string error;
        const net::JsonValue* version = nullptr;
        if (status == 200 &&
            net::ParseJson(conn.in.substr(body_begin, body_size), &answer, &error) &&
            (version = answer.Find("model_version")) != nullptr) {
          result.reload_ms.push_back(
              static_cast<double>(now - conn.pending.front().send_ns) / 1e6);
          result.reload_versions.push_back(static_cast<uint64_t>(version->AsInt()));
        } else {
          ++result.reload_failures;
        }
        conn.pending.clear();
      } else {
        complete(conn, 0, status, conn.in.data() + body_begin, body_size, total);
      }
      conn.in.erase(0, total);
      if (close) return false;
    }
    return true;
  };

  auto read_connection = [&](Conn& conn, bool is_admin) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      const bool alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
      if (!drain_answers(conn, is_admin) || !alive) {
        if (is_admin) {
          result.reload_failures += conn.pending.size();
          conn.pending.clear();
          ::close(conn.fd);
          conn.fd = ConnectLoopback(port_);
          conn.in.clear();
        } else {
          fail_connection(conn);
        }
      }
      return;
    }
  };

  std::vector<Conn*> everyone;
  for (Conn& conn : conns) everyone.push_back(&conn);
  everyone.push_back(&admin);
  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  size_t round_robin = 0;
  int64_t now = start;
  for (;;) {
    now = NowNs();
    if (open) {
      while (next_arrival <= now && next_arrival < end) {
        backlog.push_back(next_arrival);
        ++result.attempted;
        next_arrival += std::max<int64_t>(1, SecondsToNs(gap_s(rng)));
      }
    }
    // Closed loop: rounds. Every connection sends its depth of requests at
    // once, and the next round starts when every answer of this one is
    // back, so the server meets the same batch of arrivals each time
    // instead of whatever had trickled in.
    int64_t round_due = INT64_MIN;
    for (const Conn& conn : conns) {
      round_due = conn.pending.empty() ? std::max(round_due, conn.free_since_ns) : INT64_MAX;
    }
    const bool new_round = !open && now < end && round_due != INT64_MAX;
    for (size_t n = 0; n < conns.size(); ++n) {
      Conn& conn = conns[(round_robin + n) % conns.size()];
      if (open) {
        while (conn.has_room() && !backlog.empty()) {
          const int64_t sched = backlog.front();
          backlog.pop_front();
          const int64_t ready = std::max(sched, conn.free_since_ns);
          result.lag_ms.push_back(static_cast<double>(NowNs() - ready) / 1e6);
          dispatch(conn, sched);
        }
      } else if (new_round) {
        while (conn.has_room()) {
          ++result.attempted;
          const int64_t sched = NowNs();
          result.lag_ms.push_back(static_cast<double>(sched - round_due) / 1e6);
          dispatch(conn, sched);
        }
      }
      flush(conn);  // a connection's share of the round in one write
      if (conn.fd < 0) fail_connection(conn);
    }
    ++round_robin;
    if (admin.fd >= 0 && now >= next_reload && now < end && admin.pending.empty()) {
      Pending reload;
      reload.send_ns = NowNs();
      admin.out += "POST /admin/reload HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Content-Type: application/json\r\nContent-Length: " +
                   std::to_string(options.reload_body.size()) + "\r\n\r\n" +
                   options.reload_body;
      admin.pending.push_back(std::move(reload));
      flush(admin);
      next_reload += SecondsToNs(options.reload_every_s);
    }

    bool idle = backlog.empty() && admin.pending.empty();
    for (const Conn& conn : conns) idle = idle && conn.pending.empty();
    if ((now >= end && idle) || now >= drain_end) break;

    int64_t wake = now < end ? end : drain_end;
    if (open && next_arrival < end) wake = std::min(wake, next_arrival);
    if (next_reload < end) wake = std::min(wake, next_reload);
    fds.clear();
    polled.clear();
    for (Conn* conn : everyone) {
      if (conn->fd < 0) continue;
      short events = POLLIN;
      if (conn->out_sent < conn->out.size()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }
    const int64_t wait_ns = std::max<int64_t>(0, wake - NowNs());
    const timespec timeout = {static_cast<time_t>(wait_ns / 1000000000),
                              static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      Conn& conn = *polled[i];
      const bool is_admin = &conn == &admin;
      if (fds[i].revents & POLLOUT) flush(conn);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_connection(conn, is_admin);
      if (conn.fd < 0 && !is_admin) fail_connection(conn);
    }
  }

  // A connection is kept for the next phase only when nothing is left on
  // it: a late answer to this phase would be read as the next one's.
  auto keep = [](Conn& conn) {
    if (conn.fd >= 0 && (!conn.pending.empty() || !conn.in.empty() || !conn.out.empty())) {
      ::close(conn.fd);
      conn.fd = -1;
    }
    return conn.fd;
  };
  result.lost += backlog.size();
  for (size_t i = 0; i < conns.size(); ++i) {
    result.lost += conns[i].pending.size();
    fds_[i] = keep(conns[i]);
  }
  result.reload_failures += admin.pending.size();
  if (options.reload_every_s > 0) admin_fd_ = keep(admin);
  // Up to the last answer, so a closed loop's capacity counts the drain.
  result.elapsed_s = static_cast<double>(last_answer - start) / 1e9;
  result.cpu_s = ThreadCpuSeconds() - cpu_start;
  return result;
}

LoadGenerator::~LoadGenerator() {
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
  if (admin_fd_ >= 0) ::close(admin_fd_);
}

}  // namespace dssddi::e2e
