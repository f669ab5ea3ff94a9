#ifndef DSSDDI_NET_HTTP_SERVER_H_
#define DSSDDI_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "io/binary.h"
#include "net/event_loop.h"
#include "net/fault.h"
#include "net/http.h"
#include "obs/log.h"

namespace dssddi::net {

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; see HttpServer::port().
  int port = 8080;
  /// Event-loop threads. With SO_REUSEPORT each loop gets its own
  /// listening socket and the kernel spreads accepts; without it, loop 0
  /// accepts and hands connections to the others round-robin.
  int num_loops = 1;
  /// Force SO_REUSEPORT on the listeners even with num_loops == 1 — how
  /// N shard *processes* share one port and let the kernel spread
  /// connections across them (examples/shard_cluster).
  bool reuseport = false;
  /// Concurrent connections across all loops; excess accepts are closed
  /// with a canned 503 (connection-level shedding, distinct from the
  /// admission controller's per-request 429).
  int max_connections = 1024;
  /// Optional flight recorder: connection-level error paths (parse
  /// failures, overload closes) record wide events into it, so /logz
  /// sees faults that never reach the request handler. Null = off.
  std::shared_ptr<obs::FlightRecorder> recorder;
  /// Optional fault injector (chaos testing): consulted on every
  /// accept / read / write when armed. Null (default) costs one branch.
  std::shared_ptr<fault::FaultInjector> fault;
  /// Stop() first closes the listeners and waits up to this long for
  /// dispatched requests to be answered and flushed before tearing the
  /// loops down, so a restart under load drops no in-flight responses.
  /// 0 restores the old stop-immediately behavior.
  int drain_timeout_ms = 2000;
};

class HttpServer;

/// One-shot completion handle for a dispatched request. Copy it
/// anywhere, call `Send` from any thread exactly once; duplicate sends
/// are ignored, and sends that outlive the connection (or the server)
/// are dropped harmlessly.
class ResponseWriter {
 public:
  void Send(HttpResponse response) const;

 private:
  friend class HttpServer;
  struct Target {
    std::shared_ptr<EventLoop> loop;
    HttpServer* server = nullptr;
    size_t loop_index = 0;
    uint64_t conn_id = 0;
    /// Pipelined frame mode: the response body is a raw wire frame
    /// (no HTTP envelope) correlated by request_id.
    bool frame = false;
    uint64_t request_id = 0;
    std::atomic<bool> used{false};
  };
  std::shared_ptr<Target> target_;
};

/// Dependency-free epoll HTTP/1.1 server: N edge-triggered event loops,
/// keep-alive with pipelining, fixed-length bodies only, hard parse
/// limits. The handler runs on the loop thread and must not block on
/// request-rate work — it forwards scoring (e.g.
/// SuggestionService::TrySubmitAsync) and answers later through the
/// ResponseWriter. Rare admin operations (bundle reload) may run inline
/// at the cost of stalling that one loop; with num_loops > 1 the other
/// loops keep serving.
///
/// Two protocols share every port, told apart by the first bytes of a
/// fresh connection:
///
///   HTTP mode   one request dispatched at a time per connection;
///               responses go back in arrival order (HTTP/1.1
///               pipelining semantics).
///   Frame mode  the connection's first bytes are the wire-frame magic:
///               both directions carry raw frames, up to 32 requests
///               are dispatched concurrently, and responses complete
///               out of order correlated by the frames' request_id.
///               Reading pauses while the in-flight set is full or the
///               write queue is over 1 MiB, and resumes as
///               completions drain them. Queued response frames are
///               coalesced into single vectored writes (one syscall per
///               flush, not per frame).
class HttpServer {
 public:
  using Handler = std::function<void(const HttpRequest&, ResponseWriter)>;

  HttpServer(const HttpServerOptions& options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, registers acceptors, and spawns the loop threads.
  io::Status Start();
  /// Graceful stop: closes the listeners, drains dispatched requests
  /// and unflushed responses for up to options.drain_timeout_ms, then
  /// stops the loops, joins their threads and closes every socket.
  /// Idempotent; called by the destructor. ResponseWriters completing
  /// during the drain are delivered; after it they degrade to no-ops.
  void Stop();

  /// True once Stop has begun (the /readyz signal: alive but no longer
  /// accepting work).
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Actual bound port (useful with options.port == 0).
  int port() const { return port_; }
  /// True when each loop owns a SO_REUSEPORT listener (vs fd handoff).
  bool using_reuseport() const { return reuseport_; }
  int num_loops() const { return static_cast<int>(loops_.size()); }

  struct Counters {
    uint64_t accepted = 0;        // connections accepted
    uint64_t active = 0;          // currently open connections
    uint64_t requests = 0;        // requests dispatched to the handler
    uint64_t responses = 0;       // responses written back
    uint64_t parse_errors = 0;    // connections failed by the parser
    uint64_t overload_closed = 0; // accepts shed by max_connections
  };
  Counters counters() const;

 private:
  struct Connection {
    /// Decided from the first bytes: kUnknown until enough arrived.
    enum class Mode { kUnknown, kHttp, kFrame };

    int fd = -1;
    uint64_t id = 0;
    Mode mode = Mode::kUnknown;
    std::string in;  // received, not yet parsed
    /// Serialized, not yet sent: a queue of buffers flushed as one
    /// vectored write; out_offset is the sent prefix of the front
    /// buffer, out_bytes the queued total.
    std::deque<std::string> outq;
    size_t out_offset = 0;
    size_t out_bytes = 0;
    HttpParser parser;
    bool awaiting_response = false;  // HTTP mode: one at a time
    bool keep_alive = true;
    bool close_after_flush = false;
    bool want_write = false;  // EPOLLOUT armed
    bool eof = false;         // peer closed its write side
    bool counted_pending = false;  // contributes to pending_out_
    /// Frame mode: request_ids dispatched and not yet answered.
    std::unordered_set<uint64_t> frame_pending;
    /// Frame mode: reads suspended by depth/write-queue backpressure.
    bool read_paused = false;
    /// A coalescing flush task is queued on the loop.
    bool flush_scheduled = false;

  };

  struct Loop {
    std::shared_ptr<EventLoop> events;
    std::thread thread;
    int listen_fd = -1;
    /// Loop-thread-only connection table.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  };

  void HandleAccept(size_t loop_index);
  void RegisterConnection(size_t loop_index, int fd);
  void HandleIo(size_t loop_index, uint64_t conn_id, uint32_t events);
  /// All of these return false when they closed the connection.
  bool ReadInput(size_t loop_index, Connection* conn);
  bool ProcessConnection(size_t loop_index, Connection* conn);
  bool ProcessHttp(size_t loop_index, Connection* conn);
  bool ProcessFrames(size_t loop_index, Connection* conn);
  bool FlushOutput(size_t loop_index, Connection* conn);
  /// Frame mode: un-pause reading when backpressure has drained, then
  /// dispatch whatever is buffered.
  bool ResumeFrameProcessing(size_t loop_index, Connection* conn);
  void CompleteRequest(size_t loop_index, uint64_t conn_id,
                       HttpResponse response, bool frame, uint64_t request_id);
  void CloseConnection(size_t loop_index, uint64_t conn_id);
  /// Appends one serialized buffer to the connection's write queue.
  void QueueOutput(Connection* conn, std::string bytes);
  /// Queues a single coalescing flush task on the loop (frame-mode
  /// completions batch their frames into one writev this way).
  void ScheduleFlush(size_t loop_index, Connection* conn);
  /// True while the pipeline admission says "stop reading".
  bool PipelineSaturated(const Connection* conn) const;
  /// Keeps pending_out_ equal to the number of connections holding
  /// unflushed bytes (the drain loop's second condition).
  void SyncPendingOut(Connection* conn);
  /// Sends an RST (SO_LINGER 0) instead of a FIN — injected "resets"
  /// should look like resets to the peer.
  void AbortConnection(size_t loop_index, uint64_t conn_id);

  friend class ResponseWriter;

  HttpServerOptions options_;
  Handler handler_;
  std::vector<std::unique_ptr<Loop>> loops_;
  int port_ = 0;
  bool reuseport_ = false;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_loop_{0};  // round-robin fd handoff
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> overload_closed_{0};
  std::atomic<bool> draining_{false};
  /// Requests dispatched to the handler and not yet answered (or their
  /// connection closed); what the graceful drain waits on.
  std::atomic<uint64_t> in_flight_{0};
  /// Connections with serialized-but-unsent response bytes.
  std::atomic<uint64_t> pending_out_{0};
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_HTTP_SERVER_H_
