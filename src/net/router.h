#ifndef DSSDDI_NET_ROUTER_H_
#define DSSDDI_NET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/binary.h"
#include "net/http_server.h"
#include "net/replica_client.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/thread_pool.h"

namespace dssddi::net {

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

struct RouterOptions {
  /// Total tries per request (first attempt + retries).
  int max_tries = 3;
  /// Per-try budget; each try additionally never exceeds the remaining
  /// request deadline.
  int per_try_timeout_ms = 1000;
  /// Capped exponential backoff between retries: base · 2^attempt,
  /// clamped to max, with seeded full jitter (never sleeps past the
  /// request deadline). Retries are also bounded by a token-bucket
  /// budget (router.cc) so they cannot amplify an outage.
  int backoff_base_ms = 5;
  int backoff_max_ms = 100;
  /// Deadline-aware hedging: once a try has been in flight longer than
  /// the observed try-latency p90 (at least `hedge_min_delay_ms`, at
  /// most 1 s), launch a duplicate on another replica; first answer
  /// wins, the loser is cancelled. Refused while `hedge_inhibit` returns
  /// true (wired to the SLO engine's degraded bit) so hedges never
  /// amplify overload.
  bool hedging = true;
  int hedge_min_delay_ms = 10;
  std::function<bool()> hedge_inhibit;
  /// Threads running the tries that block: JSON tries over the HTTP
  /// pool (each up to its per-try budget) and the dials of pipelined
  /// connections. Bounds concurrent JSON tries; binary tries over a
  /// replica's pipelined connection never occupy one while in flight.
  int worker_threads = 8;
};

/// What the router answered with, however it got there.
struct RouterResult {
  int status = 0;
  std::string body;
  std::string content_type;
  /// True when the answer came from the stale cache because no replica
  /// could serve fresh — surfaces as X-Dssddi-Stale: true.
  bool stale = false;
  bool hedged = false;
  int tries = 0;
  /// Replica index that produced the winning answer; -1 for stale /
  /// synthesized answers.
  int replica = -1;
};

/// Fault-tolerant routing client over N replica endpoints: round-robin
/// across closed breakers, per-try timeouts carved from the request
/// deadline, budget-bounded retries with capped exponential backoff +
/// seeded jitter, p90-triggered hedging with loser cancellation, and a
/// generation-keyed stale cache as the last line of defense when every
/// breaker is open.
///
/// Only used for idempotent work (suggest is a pure function of the
/// request + model version), which is what makes retries and hedges
/// safe to fire.
///
/// Threading: every exchange is a small state object advanced by
/// events, never by a thread waiting on it. `Start` picks a replica and
/// launches the first try on the calling thread (an event loop, say) and
/// returns. A binary try is sent over the replica's PipelinedClient
/// without blocking, and its answer is handled on that client's reader
/// thread; a JSON try, and a binary try whose connection must first be
/// dialed, runs on a `pool_` thread. One timer thread fires hedge
/// triggers, per-try budgets, request deadlines and retry backoffs; it
/// sleeps until the earliest of them, so steady traffic that finishes
/// well inside those times does not wake it per request. `done` runs on
/// whichever thread finished the exchange.
class Router {
 public:
  Router(const std::vector<ReplicaClientOptions>& replicas,
         const RouterOptions& options,
         std::shared_ptr<obs::Registry> registry,
         std::shared_ptr<obs::FlightRecorder> recorder);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  using Done = std::function<void(RouterResult result)>;

  /// Routes one exchange without waiting for it. `deadline_ms` (0 =
  /// none) bounds the whole effort — tries, backoffs and hedges
  /// included. `done` runs exactly once with the answer, synthesized
  /// 503/504s included, possibly before Start returns. Never dials or
  /// blocks on a replica socket, so it is safe on an event loop.
  void Start(const std::string& target, const std::string& body,
             const std::string& content_type, int deadline_ms, Done done);

  /// Start plus a wait for `done`. Returns Ok whenever there is an
  /// answer to report, including synthesized 503s; `*out` is always
  /// filled.
  io::Status Exchange(const std::string& target, const std::string& body,
                      const std::string& content_type, int deadline_ms,
                      RouterResult* out);

  size_t num_replicas() const { return replicas_.size(); }
  ReplicaClient& replica(size_t index) { return *replicas_[index]; }
  /// Replicas whose breaker is not open ("able to serve fresh").
  int AvailableReplicas() const;

  const RouterOptions& options() const { return options_; }
  obs::Registry* registry() { return registry_.get(); }
  obs::FlightRecorder* recorder() { return recorder_.get(); }

  /// Backoff before retry `attempt` (1-based): base · 2^(attempt-1)
  /// clamped to `max_ms`, scaled by seeded full jitter in [0.5, 1.0].
  /// Pure — chaos tests assert the schedule replays by seed.
  static int BackoffMs(int attempt, int base_ms, int max_ms, uint64_t seed,
                       uint64_t nonce);

 private:
  using Clock = std::chrono::steady_clock;
  struct Try;
  struct Call;
  class StaleCache;
  using TimerQueue = std::multimap<Clock::time_point, std::shared_ptr<Call>>;
  /// How a try ended, for its breaker admission.
  enum class Verdict { kSucceeded, kFailed, kCancelled };

  /// Round-robin pick of a breaker-admitted replica, skipping indices
  /// in `exclude` (bitmask). -1 when none admits; on success
  /// `*admission` holds the breaker token the eventual try must settle.
  int PickReplica(uint64_t exclude, uint64_t* admission);
  int HedgeDelayMs();
  void RecordTryLatency(double ms);

  // Each of these is called with `lock` held on the call's mutex and
  // returns with it released: they may launch tries or finish the call.
  void NextAttempt(const std::shared_ptr<Call>& call,
                   std::unique_lock<std::mutex>& lock);
  void AttemptFailed(const std::shared_ptr<Call>& call,
                     std::unique_lock<std::mutex>& lock);
  void Finish(const std::shared_ptr<Call>& call,
              std::unique_lock<std::mutex>& lock);

  // Called with the call's mutex held.
  std::shared_ptr<Try> NewTry(const Call& call, int replica,
                              uint64_t admission, int budget_ms,
                              Clock::time_point now);
  /// Settles a try exactly once: the breaker admission of a pipelined
  /// try (and its ticket, when the answer is still due), or the cancel
  /// flag of a pooled one (ReplicaClient::Exchange settles those).
  void CloseTry(const Call& call, Try& t, Verdict verdict);
  /// Points the call's timer entry at its earliest pending time.
  void Rearm(const std::shared_ptr<Call>& call);
  void Disarm(Call& call);

  // Called with no lock held.
  void LaunchTry(const std::shared_ptr<Call>& call,
                 const std::shared_ptr<Try>& t);
  void StartPipelined(const std::shared_ptr<Call>& call,
                      const std::shared_ptr<Try>& t, bool may_dial);
  /// Runs StartPipelined(may_dial = true) on a pool_ thread.
  void DialTry(const std::shared_ptr<Call>& call,
               const std::shared_ptr<Try>& t);
  void OnTryDone(const std::shared_ptr<Call>& call,
                 const std::shared_ptr<Try>& t, io::Status status,
                 ClientResponse response);
  void OnTimer(const std::shared_ptr<Call>& call);
  /// Builds the finished call's result and runs its `done`.
  void Complete(Call& call);
  void TimerLoop();

  RouterOptions options_;
  std::vector<std::unique_ptr<ReplicaClient>> replicas_;
  std::shared_ptr<obs::Registry> registry_;
  std::shared_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<serve::ThreadPool> pool_;
  std::unique_ptr<StaleCache> stale_;
  /// Set first in the destructor: no try starts after it.
  std::atomic<bool> stopping_{false};

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  TimerQueue timers_;  // guarded by timer_mutex_, as is each Call's entry
  /// What the timer thread sleeps until; an earlier entry notifies it.
  Clock::time_point timer_wake_at_ = Clock::time_point::max();
  bool timer_stop_ = false;
  std::thread timer_thread_;

  std::atomic<uint64_t> rr_{0};
  std::atomic<uint64_t> request_counter_{0};
  std::mutex budget_mutex_;
  double retry_tokens_;

  obs::Counter* requests_ok_;
  obs::Counter* requests_stale_;
  obs::Counter* requests_error_;
  obs::Counter* retries_total_;
  obs::Counter* hedges_won_;
  obs::Counter* hedges_lost_;
  obs::Histogram* try_latency_;
  std::vector<obs::Gauge*> replica_state_;

  /// Cached hedge trigger: try-latency p90, refreshed every
  /// kHedgeRefreshEvery records (same pattern as LatencyTracker).
  std::atomic<double> hedge_delay_cache_{0.0};
  std::atomic<uint32_t> try_records_{0};
};

// ---------------------------------------------------------------------
// RouterFrontend
// ---------------------------------------------------------------------

struct RouterFrontendOptions {
  /// Deadline applied to /v1/suggest exchanges arriving without an
  /// X-Deadline-Ms header. Every deadline is capped at 10 s.
  int default_deadline_ms = 1000;
};

/// HTTP face of the Router — what `examples/replica_cluster` serves.
/// A /v1/suggest request is started on the loop thread that parsed it
/// (Router::Start) and answered from whichever thread finishes the
/// exchange (ResponseWriter::Send); no thread waits on it in between.
/// Routes:
///
///   POST /v1/suggest   proxied through the Router (JSON or binary;
///                      codec passthrough). Stale answers carry
///                      X-Dssddi-Stale: true.
///   GET  /healthz      liveness: 200 while the process runs
///   GET  /readyz       readiness: 200 only when not draining and at
///                      least one replica breaker is not open; body
///                      lists per-replica breaker states
///   GET  /statsz       router counters + per-replica breaker states
///   GET  /metricsz     the router registry's Prometheus exposition
///                      (?format=openmetrics supported)
///   GET  /sloz         router-level SLO engine state (when attached):
///                      fast/slow burns plus the degraded bit that
///                      inhibits hedging
///   GET  /logz         the router flight recorder as NDJSON
///   GET  /admin/fault  fault-injector states (launcher-provided hook)
///   POST /admin/fault  {"replica":0,"spec":"reset=0.05"} installs a
///                      spec on one replica's injector ("" clears)
///   POST /admin/replica {"index":1,"action":"stop"|"start"} delegates
///                      to the launcher (kill / restart one replica)
class RouterFrontend {
 public:
  RouterFrontend(Router* router, const RouterFrontendOptions& options = {});
  ~RouterFrontend();

  void AttachServer(const HttpServer* server) { http_ = server; }

  /// Launcher hooks; absent hooks 404 their admin routes.
  using ReplicaAdminHook = std::function<bool(size_t index, bool up)>;
  using FaultInstallHook =
      std::function<io::Status(int replica, const std::string& spec)>;
  using FaultDescribeHook = std::function<std::string()>;
  void set_replica_admin(ReplicaAdminHook hook);
  void set_fault_admin(FaultInstallHook install, FaultDescribeHook describe);
  /// Router-level SLO engine behind GET /sloz — the same engine whose
  /// degraded bit the launcher wires into RouterOptions::hedge_inhibit,
  /// so operators can see why hedging switched off. Must outlive the
  /// frontend; absent → /sloz 404s.
  void set_slo_engine(const obs::SloEngine* slo) { slo_ = slo; }

  void Handle(const HttpRequest& request, ResponseWriter writer);
  HttpServer::Handler AsHandler() {
    return [this](const HttpRequest& request, ResponseWriter writer) {
      Handle(request, writer);
    };
  }

 private:
  void HandleSuggest(const HttpRequest& request, ResponseWriter writer);
  int HandleReadyz(ResponseWriter writer);
  int HandleAdminFault(const HttpRequest& request, ResponseWriter writer);
  int HandleAdminReplica(const HttpRequest& request, ResponseWriter writer);

  Router* router_;
  RouterFrontendOptions options_;
  const HttpServer* http_ = nullptr;
  ReplicaAdminHook replica_admin_;
  FaultInstallHook fault_install_;
  FaultDescribeHook fault_describe_;
  const obs::SloEngine* slo_ = nullptr;

  obs::Counter* suggest_requests_;
  obs::Counter* suggest_2xx_;
  obs::Counter* suggest_4xx_;
  obs::Counter* suggest_5xx_;
  obs::Counter* suggest_stale_;
  obs::Histogram* suggest_latency_;

  /// Exchanges started and not yet answered; the destructor waits for
  /// zero, because their completions touch this frontend's counters.
  std::mutex exchanges_mutex_;
  std::condition_variable exchanges_cv_;
  int exchanges_ = 0;
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_ROUTER_H_
