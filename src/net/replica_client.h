#ifndef DSSDDI_NET_REPLICA_CLIENT_H_
#define DSSDDI_NET_REPLICA_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/binary.h"
#include "net/http_client.h"
#include "net/pipelined_client.h"

namespace dssddi::net {

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Breaker state machine: kClosed (traffic flows, outcomes feed a
/// rolling window) → kOpen (failure rate crossed the threshold; no
/// traffic for a cooldown) → kHalfOpen (one probe allowed through) →
/// back to kClosed on the probe's success or kOpen on its failure.
enum class BreakerState : int { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  /// Rolling outcome window (last N tries) the failure rate is judged
  /// over; small so a replica going dark trips within a handful of
  /// requests.
  int window = 16;
  /// Outcomes required in the window before the rate can trip the
  /// breaker — one unlucky first request must not open it.
  int min_volume = 6;
  /// Open when failures / window_count reaches this.
  double failure_threshold = 0.5;
  /// How long an open breaker refuses traffic before letting one
  /// half-open probe through.
  int open_cooldown_ms = 1000;
};

/// Per-replica circuit breaker. Thread-safe; every transition invokes
/// the hook (under the lock — keep hooks cheap: gauge set, counter
/// bump, flight-recorder record).
///
/// Admission protocol: `Admit()` returns a nonzero token when a try may
/// be sent now, and every token MUST be settled by exactly one of
/// `RecordSuccess` / `RecordFailure` / `Abandon` — a half-open
/// admission holds the single probe slot until settled, so a dropped
/// token would wedge the breaker in half-open forever. Tokens are
/// epoch-tagged: an outcome reported after the breaker has since
/// changed state (a straggler from an earlier era) is ignored rather
/// than misattributed to the current probe.
class CircuitBreaker {
 public:
  using TransitionHook =
      std::function<void(BreakerState from, BreakerState to)>;

  explicit CircuitBreaker(const CircuitBreakerOptions& options = {});

  void set_transition_hook(TransitionHook hook);

  /// Nonzero admission token when a try may be sent now; 0 when the
  /// breaker refuses. An open breaker past its cooldown transitions to
  /// half-open and admits the caller as the probe; a half-open breaker
  /// admits only while the probe slot is free.
  uint64_t Admit();
  /// Report the outcome of an admitted try. Stale tokens (the breaker
  /// transitioned since admission) are ignored.
  void RecordSuccess(uint64_t token);
  void RecordFailure(uint64_t token);
  /// Release an admission whose try never produced a verdict on the
  /// replica (never launched, or cancelled mid-flight): frees a
  /// half-open probe slot without counting an outcome either way.
  void Abandon(uint64_t token);

  BreakerState state() const;

 private:
  void TransitionLocked(BreakerState to);
  void PushOutcomeLocked(bool failure);

  mutable std::mutex mutex_;
  CircuitBreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  TransitionHook hook_;
  std::vector<uint8_t> outcomes_;  // ring: 1 = failure
  size_t outcome_pos_ = 0;
  size_t outcome_count_ = 0;
  size_t failures_ = 0;
  /// Bumped on every state transition; admission tokens carry the epoch
  /// they were issued under so stragglers are recognizable.
  uint64_t epoch_ = 1;
  std::chrono::steady_clock::time_point opened_at_{};
  int probes_in_flight_ = 0;
};

// ---------------------------------------------------------------------
// Replica client
// ---------------------------------------------------------------------

struct ReplicaClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  CircuitBreakerOptions breaker;
};

/// One replica endpoint: a keep-alive connection pool over HttpClient,
/// the shared pipelined frame connection, and the replica's circuit
/// breaker. Thread-safe — concurrent HTTP tries each check a connection
/// out of the pool (or dial a fresh one), so a hedged duplicate never
/// shares a socket with its primary.
///
/// Outcome accounting: transport errors, timeouts, and 5xx responses
/// count as breaker failures; any parseable response below 500
/// (including 429 shed — the replica is alive and answering) counts as
/// success; cancelled tries (hedge losers, request-deadline aborts) are
/// neutral — the replica did nothing wrong, so the admission is
/// abandoned rather than charged. Callers gate on breaker().Admit()
/// *before* Exchange and hand the token in; Exchange always settles it.
/// Tries over `pipelined_client()` are settled by the Router, which
/// knows each one's fate without reading error messages.
class ReplicaClient {
 public:
  explicit ReplicaClient(const ReplicaClientOptions& options);

  /// "host:port" — the `replica` label on every metric.
  const std::string& name() const { return name_; }

  /// One exchange over the HTTP pool. `admission` is the token
  /// breaker().Admit() issued for this try; Exchange settles it
  /// (success / failure / abandon) in every path.
  io::Status Exchange(const std::string& method, const std::string& target,
                      const std::string& body,
                      const ClientRequestOptions& options,
                      ClientResponse* out, uint64_t admission);

  CircuitBreaker& breaker() { return breaker_; }
  const CircuitBreaker& breaker() const { return breaker_; }

  /// The shared multiplexed connection binary suggest traffic rides on.
  PipelinedClient* pipelined_client() { return &pipelined_; }

 private:
  std::unique_ptr<HttpClient> Acquire(io::Status* status, bool* from_pool);
  void Release(std::unique_ptr<HttpClient> client, bool reusable);

  ReplicaClientOptions options_;
  std::string name_;
  CircuitBreaker breaker_;
  PipelinedClient pipelined_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<HttpClient>> pool_;
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_REPLICA_CLIENT_H_
