#include "net/pipelined_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "net/wire.h"

namespace dssddi::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Socket connect timeout.
constexpr int kConnectTimeoutMs = 2000;
/// Reader-side cap on a response frame's declared payload: a corrupt or
/// hostile length prefix fails the stream instead of ballooning the
/// receive buffer.
constexpr size_t kMaxFramePayload = 1 << 20;

/// Blocking connect with SO_SNDTIMEO as the connect bound. No
/// SO_RCVTIMEO: the reader thread parks in recv indefinitely and is
/// woken by shutdown(), not by timeouts.
int Dial(const PipelinedClientOptions& options, io::Status* status) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *status = io::Status::Error(std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  struct timeval timeout {};
  timeout.tv_sec = kConnectTimeoutMs / 1000;
  timeout.tv_usec = (kConnectTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    *status = io::Status::Error("unparseable address '" + options.host + "'");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *status = io::Status::Error("connect " + options.host + ":" +
                                std::to_string(options.port) + ": " +
                                std::strerror(errno));
    ::close(fd);
    return -1;
  }
  *status = io::Status::Ok();
  return fd;
}

/// Turns a received frame into the exchange's response: status 200 for
/// a response frame, the embedded status for an error frame, and the
/// caller's own request_id restored onto the body.
io::Status ToResponse(std::string body, uint64_t caller_id,
                      ClientResponse* out) {
  wire::FrameType type;
  std::string peek_error;
  if (!wire::PeekFrameType(body, &type, &peek_error)) {
    return io::Status::Error("unreadable response frame: " + peek_error);
  }
  if (type == wire::FrameType::kSuggestResponse) {
    out->status = 200;
  } else if (type == wire::FrameType::kError) {
    wire::ErrorFrame error_frame;
    std::string decode_error;
    if (!wire::DecodeError(body, &error_frame, &decode_error)) {
      return io::Status::Error("undecodable error frame: " + decode_error);
    }
    out->status = static_cast<int>(error_frame.status);
  } else {
    return io::Status::Error("server sent a request frame");
  }
  // Restore the caller's correlator: the hop-local id must not leak
  // through codec-passthrough relays above this client.
  wire::PatchRequestId(&body, caller_id);
  out->body = std::move(body);
  out->keep_alive = true;
  out->headers.emplace_back("Content-Type", wire::kContentType);
  return io::Status::Ok();
}

}  // namespace

PipelinedClient::PipelinedClient(const PipelinedClientOptions& options)
    : options_(options) {}

PipelinedClient::~PipelinedClient() { Close(); }

bool PipelinedClient::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fd_ >= 0 && !reader_done_;
}

size_t PipelinedClient::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

uint64_t PipelinedClient::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

void PipelinedClient::TakeAllLocked(
    std::unordered_map<uint64_t, Pending>* failed) {
  failed->swap(pending_);
  abandoned_.clear();
}

void PipelinedClient::FailAll(std::unordered_map<uint64_t, Pending>* failed,
                              const std::string& reason) {
  for (auto& [id, pending] : *failed) {
    pending.done(io::Status::Error(reason), ClientResponse{});
  }
  failed->clear();
}

void PipelinedClient::TearDownLocked(std::unique_lock<std::mutex>& lock) {
  std::thread old_reader = std::move(reader_);
  const int old_fd = fd_;
  fd_ = -1;
  if (old_fd >= 0) ::shutdown(old_fd, SHUT_RDWR);
  lock.unlock();
  if (old_reader.joinable()) old_reader.join();
  if (old_fd >= 0) {
    std::lock_guard<std::mutex> write_lock(write_mutex_);
    ::close(old_fd);
  }
  lock.lock();
}

void PipelinedClient::ReaderLoop(int fd) {
  std::string buffer;
  std::string failure;
  char chunk[16384];
  while (failure.empty()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      failure = "connection closed by server";
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      failure = std::string("recv: ") + std::strerror(errno);
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    // Frames are consumed by offset and the buffer compacted once per
    // recv, so a deep pipelined read costs linear, not quadratic, copies.
    size_t offset = 0;
    while (failure.empty()) {
      wire::FrameView view;
      std::string error;
      const wire::ExtractResult result =
          wire::ExtractFrame(buffer.data() + offset, buffer.size() - offset,
                             kMaxFramePayload, &view, &error);
      if (result == wire::ExtractResult::kNeedMore) break;
      if (result == wire::ExtractResult::kError) {
        failure = "response stream corrupt: " + error;
        break;
      }
      const char* frame = buffer.data() + offset;
      offset += view.frame_bytes;
      Pending pending;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = pending_.find(view.request_id);
        if (it == pending_.end()) {
          // A late answer to an abandoned exchange is dropped; an id this
          // client never sent (or already answered) means the stream
          // cannot be trusted to be in frame sync anymore.
          if (abandoned_.erase(view.request_id) == 0) {
            failure = "unexpected request_id " +
                      std::to_string(view.request_id) + " from server";
          }
          continue;
        }
        pending = std::move(it->second);
        pending_.erase(it);
      }
      ClientResponse response;
      io::Status status =
          ToResponse(std::string(frame, view.frame_bytes), pending.caller_id,
                     &response);
      pending.done(std::move(status), std::move(response));
    }
    buffer.erase(0, offset);
  }
  std::unordered_map<uint64_t, Pending> failed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reader_done_ = true;
    TakeAllLocked(&failed);
  }
  FailAll(&failed, failure);
}

PipelinedClient::Started PipelinedClient::Start(const std::string& frame,
                                                Callback done, bool may_dial) {
  Started started;
  uint64_t caller_id = 0;
  if (!wire::PeekRequestId(frame, &caller_id)) {
    started.status =
        io::Status::Error("frame too short to carry a request_id");
    return started;
  }
  std::string stamped = frame;

  uint64_t id = 0;
  uint64_t generation = 0;
  int fd = -1;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // (Re)connect under a guard flag: the join + dial drop the lock, and
    // concurrent exchanges must neither double-connect nor race the
    // teardown of the previous reader.
    while (fd_ < 0 || reader_done_) {
      if (!may_dial) {
        started.needs_dial = true;
        return started;
      }
      if (connecting_) {
        cv_.wait(lock);
        continue;
      }
      connecting_ = true;
      TearDownLocked(lock);
      lock.unlock();
      io::Status dial_status;
      const int fresh = Dial(options_, &dial_status);
      lock.lock();
      connecting_ = false;
      cv_.notify_all();
      if (fresh < 0) {
        started.status = dial_status;
        return started;
      }
      fd_ = fresh;
      reader_done_ = false;
      ++generation_;
      reader_ = std::thread([this, fresh] { ReaderLoop(fresh); });
    }
    fd = fd_;
    generation = generation_;
    id = next_id_++;
    pending_.emplace(id, Pending{std::move(done), caller_id});
  }

  // Stamp the hop-local id and send the whole frame under the write
  // lock so concurrent exchanges never interleave bytes mid-frame.
  wire::PatchRequestId(&stamped, id);
  std::string send_error;
  {
    std::lock_guard<std::mutex> write_lock(write_mutex_);
    {
      // The connection may have died (and been replaced, its fd number
      // reused) since registration; the teardown failed this exchange
      // already, so its callback reports that.
      std::lock_guard<std::mutex> lock(mutex_);
      if (fd_ != fd || generation_ != generation || reader_done_) {
        started.ticket = id;
        return started;
      }
    }
    ssize_t n;
    do {
      n = ::send(fd, stamped.data(), stamped.size(),
                 MSG_NOSIGNAL | MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    if (n == static_cast<ssize_t>(stamped.size())) {
      started.ticket = id;
      return started;
    }
    send_error = n < 0 ? std::string("send: ") + std::strerror(errno)
                       : "send: wrote " + std::to_string(n) + " of " +
                             std::to_string(stamped.size()) + " frame bytes";
  }

  // The socket may now hold a torn frame; nothing multiplexed on it can
  // be trusted. Wake the reader (it fails the other pendings) and fail
  // this exchange directly — unless the reader got to it first, in
  // which case its callback reports the failure.
  Pending dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ == fd && generation_ == generation) ::shutdown(fd, SHUT_RDWR);
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    started.ticket = id;
    return started;
  }
  dropped = std::move(it->second);
  pending_.erase(it);
  started.status = io::Status::Error(send_error);
  return started;
}

bool PipelinedClient::Abandon(uint64_t ticket) {
  Pending dropped;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(ticket);
  if (it == pending_.end()) return false;
  dropped = std::move(it->second);
  pending_.erase(it);
  abandoned_.insert(ticket);
  return true;
}

io::Status PipelinedClient::Exchange(const std::string& frame,
                                     const ClientRequestOptions& options,
                                     ClientResponse* out) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    return io::Status::Error("request cancelled");
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options.deadline_ms);
  struct Wait {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    io::Status status = io::Status::Ok();
    ClientResponse response;
  };
  auto wait = std::make_shared<Wait>();
  const Started started = Start(
      frame,
      [wait](io::Status status, ClientResponse response) {
        std::lock_guard<std::mutex> lock(wait->mutex);
        wait->status = std::move(status);
        wait->response = std::move(response);
        wait->done = true;
        wait->cv.notify_all();
      },
      /*may_dial=*/true);
  if (started.ticket == 0) return started.status;

  std::unique_lock<std::mutex> lock(wait->mutex);
  const auto answered = [&wait] { return wait->done; };
  if (options.deadline_ms > 0 &&
      !wait->cv.wait_until(lock, deadline, answered)) {
    lock.unlock();
    if (Abandon(started.ticket)) {
      return io::Status::Error("request deadline exceeded awaiting response");
    }
    lock.lock();  // the answer is being delivered right now
  }
  wait->cv.wait(lock, answered);
  if (!wait->status.ok) return wait->status;
  *out = std::move(wait->response);
  return io::Status::Ok();
}

void PipelinedClient::Close() {
  std::unordered_map<uint64_t, Pending> failed;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    while (connecting_) cv_.wait(lock);
    if (fd_ < 0 && !reader_.joinable()) return;
    connecting_ = true;
    TearDownLocked(lock);
    connecting_ = false;
    reader_done_ = false;
    TakeAllLocked(&failed);
    cv_.notify_all();
  }
  FailAll(&failed, "connection closed");
}

}  // namespace dssddi::net
