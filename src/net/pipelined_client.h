#ifndef DSSDDI_NET_PIPELINED_CLIENT_H_
#define DSSDDI_NET_PIPELINED_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "io/binary.h"
#include "net/http_client.h"

namespace dssddi::net {

struct PipelinedClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Multiplexed pipelined client for the raw wire-frame protocol: one
/// connection, many concurrent exchanges. Each exchange stamps a
/// hop-local request_id onto the caller's encoded frame and sends it;
/// the reader thread correlates the response frame back by id — so N
/// in-flight requests share one socket and complete out of order,
/// replacing N one-exchange-at-a-time pooled HTTP connections.
///
/// Event-driven core: `Start` sends and returns at once, and the reader
/// thread runs the exchange's callback when its answer arrives.
/// `Abandon` gives an exchange up (a deadline or a hedge loser) without
/// touching the connection: abandoning one multiplexed request must not
/// kill its neighbors, so the late response is recognized by id and
/// dropped. A transport error fails every in-flight exchange and
/// disconnects; the next dialing `Start` reconnects.
///
/// The response handed back carries the raw response (or error) frame
/// as its body with the caller's original request_id restored — codec
/// passthrough above (the router) relays bodies verbatim, so the
/// hop-local ids this client assigns must never leak out of it.
class PipelinedClient {
 public:
  /// Runs exactly once per started exchange that is not abandoned: on
  /// the reader thread when the answer (or the connection's failure)
  /// arrives, or on the thread calling Close. On success `response`
  /// has status 200 for a response frame or the error frame's embedded
  /// status, and its body is the raw frame. Must not call Close, or a
  /// dialing Start: both may join the reader thread it runs on.
  using Callback = std::function<void(io::Status status,
                                      ClientResponse response)>;

  struct Started {
    /// > 0: the frame is in flight and the callback runs exactly once,
    /// unless Abandon(ticket) returns true first.
    uint64_t ticket = 0;
    /// Start was told not to dial and found no live connection; nothing
    /// was sent and the callback never runs.
    bool needs_dial = false;
    /// Why nothing started (ticket == 0 and !needs_dial): the frame is
    /// malformed, the dial failed, or the send failed or wrote only
    /// part of the frame (which also tears the connection down).
    io::Status status = io::Status::Ok();
  };

  explicit PipelinedClient(const PipelinedClientOptions& options);
  ~PipelinedClient();

  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;

  /// Sends one encoded kSuggestRequest frame and returns without waiting
  /// for the answer. Thread-safe. The send never blocks
  /// (MSG_DONTWAIT): a full socket buffer fails it like a broken socket.
  /// With `may_dial` false Start never connects, joins or sleeps — safe
  /// on an event loop or inside a callback; with it true a missing
  /// connection is dialed (blocking, bounded by a 2 s connect timeout).
  Started Start(const std::string& frame, Callback done, bool may_dial);

  /// Gives up a started exchange. True when its callback had not run
  /// and now never will; false when it already ran or is running.
  bool Abandon(uint64_t ticket);

  /// Blocking exchange: Start (dialing if needed) plus a wait.
  /// `options.deadline_ms` bounds the wait (the exchange is abandoned
  /// with a "deadline" error when it passes); `options.cancel` is read
  /// once, before sending — a caller that must stop an exchange
  /// mid-flight uses Start + Abandon.
  io::Status Exchange(const std::string& frame,
                      const ClientRequestOptions& options,
                      ClientResponse* out);

  bool connected() const;
  /// Fails every in-flight exchange and closes the socket. Idempotent;
  /// the next dialing Start reconnects.
  void Close();

  /// Requests currently awaiting their response frame (tests).
  size_t in_flight() const;
  /// Bumped on every successful (re)connect — how callers distinguish
  /// "failed on a stale connection" from "failed on a fresh one".
  uint64_t generation() const;

 private:
  struct Pending {
    Callback done;
    uint64_t caller_id = 0;  // restored onto the answering frame
  };

  /// Empties pending_ into `*failed` (to be failed with `reason` once
  /// mutex_ is released) and forgets abandoned ids. Caller holds mutex_.
  void TakeAllLocked(std::unordered_map<uint64_t, Pending>* failed);
  static void FailAll(std::unordered_map<uint64_t, Pending>* failed,
                      const std::string& reason);
  /// Shuts the live socket down, joins its reader and closes the fd.
  /// Drops and retakes `lock` (on mutex_) around the join; the caller
  /// has set connecting_.
  void TearDownLocked(std::unique_lock<std::mutex>& lock);
  void ReaderLoop(int fd);

  PipelinedClientOptions options_;

  mutable std::mutex mutex_;
  /// Signals connecting_ going false.
  std::condition_variable cv_;
  int fd_ = -1;
  uint64_t generation_ = 0;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, Pending> pending_;
  /// Ids whose caller gave up: the late response is dropped silently
  /// instead of being treated as a protocol error.
  std::unordered_set<uint64_t> abandoned_;
  std::thread reader_;
  /// Set by the reader when it exits (connection dead, pendings
  /// failed); the next dialing Start reaps it and reconnects.
  bool reader_done_ = false;
  /// Guards the join + dial window where mutex_ is dropped, so
  /// concurrent exchanges neither double-connect nor race teardown.
  bool connecting_ = false;

  /// Serializes frame writes so concurrent exchanges never interleave
  /// bytes mid-frame, and is held while a dead connection's fd is
  /// closed so a sender never writes to a recycled descriptor. Separate
  /// from mutex_ so a send never stops the reader from completing
  /// other exchanges. Order: write_mutex_ before mutex_.
  std::mutex write_mutex_;
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_PIPELINED_CLIENT_H_
