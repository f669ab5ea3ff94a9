#include "net/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/json.h"
#include "net/wire.h"
#include "util/logging.h"

namespace dssddi::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Seed of the retry backoff's jitter: a chaos replay sleeps the same
/// schedule.
constexpr uint64_t kBackoffSeed = 0x5eedull;
/// Retry budget (token bucket): every request deposits kRetryBudgetRatio
/// tokens, every retry spends one, and the bucket holds at most
/// kRetryBudgetBurst — sustained retry volume is capped at ratio ·
/// request rate so retries cannot amplify an outage.
constexpr double kRetryBudgetRatio = 0.5;
constexpr double kRetryBudgetBurst = 32.0;
/// Ceiling on the hedge trigger, however slow the observed p90.
constexpr int kHedgeMaxDelayMs = 1000;
/// Recompute the cached try-latency p90 every N recorded tries.
constexpr uint32_t kHedgeRefreshEvery = 32;
/// Stale-serve cache entries (successful fresh bodies, keyed by request
/// hash; generation-keyed by the response's model version).
constexpr size_t kStaleCapacity = 512;
/// Ceiling clamped onto every RouterFrontend deadline.
constexpr int kMaxDeadlineMs = 10000;

int RemainingMs(Clock::time_point deadline) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count());
}

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A response the router should hand back without further tries: any
/// parsed status except 5xx (replica fault) and 429 (that one replica
/// shed; another may have capacity).
bool IsFinalStatus(int status) { return status < 500 && status != 429; }

/// The response's model version, for generation-keying the stale cache.
/// Binary frames carry it at a fixed offset; JSON bodies advertise
/// "model_version": N. 0 = unknown.
uint64_t ParseModelVersion(const std::string& body,
                           const std::string& content_type) {
  if (wire::IsBinaryContentType(content_type)) {
    uint64_t version = 0;
    return wire::PeekModelVersion(body, &version) ? version : 0;
  }
  const size_t pos = body.find("\"model_version\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + 16, nullptr, 10);
}

/// An error body the client can read in the codec it spoke: a wire
/// ErrorFrame for binary requests, {"error": ...} otherwise. Returns the
/// body's Content-Type.
const char* EncodeRouterError(int status, const char* message,
                              const std::string& content_type,
                              std::string* body) {
  if (wire::IsBinaryContentType(content_type)) {
    wire::ErrorFrame frame;
    frame.status = static_cast<uint32_t>(status);
    frame.message = message;
    *body = wire::EncodeError(frame);
    return wire::kContentType;
  }
  *body = std::string("{\"error\":\"") + message + "\"}";
  return "application/json";
}

}  // namespace

// ---------------------------------------------------------------------
// Call: one routed exchange in flight, and its tries
// ---------------------------------------------------------------------

/// One try: the request sent to one replica.
struct Router::Try {
  int replica = -1;
  uint64_t admission = 0;
  int budget_ms = 0;
  Clock::time_point started;
  /// Pipelined: the try counts as failed once this passes unanswered.
  Clock::time_point budget_at;
  // Guarded by the call's mutex:
  bool closed = false;
  /// One redial-and-resend is allowed after a transport failure on a
  /// connection that predates the try (the server may have reaped it).
  bool may_redo = false;
  /// PipelinedClient ticket while the answer is due; 0 before Start
  /// returned and once the answer arrived.
  uint64_t ticket = 0;
  /// HttpClient's cooperative cancel flag (pooled tries); the task
  /// holds the Try, so a loser finishing late writes into live memory.
  std::atomic<bool> cancel{false};
};

struct Router::Call {
  // Set by Start, read-only after:
  std::string target;
  std::string body;
  std::string content_type;
  /// A wire frame for /v1/suggest. Its tries ride the replica's
  /// PipelinedClient and the router settles their admission; JSON tries
  /// run ReplicaClient::Exchange on a pool_ thread, which settles it.
  bool binary = false;
  bool has_deadline = false;
  Clock::time_point start;
  Clock::time_point deadline;
  uint64_t nonce = 0;
  uint64_t stale_key = 0;

  std::mutex mutex;
  // Guarded by mutex until `finished`; the thread that set it owns them:
  Done done;
  RouterResult result;  // tries and hedged accumulate here
  std::shared_ptr<Try> tries[2];  // the current attempt's primary, hedge
  bool attempt_hedged = false;
  bool hedge_pending = false;
  Clock::time_point hedge_at;
  bool backoff_pending = false;
  Clock::time_point backoff_at;
  std::shared_ptr<Try> winner;
  ClientResponse winner_response;
  /// Fallback kept from the last replica-authored non-final answer (5xx
  /// or 429): if every try fails, the client gets that over a synthetic
  /// 503 — it carries the replica's own diagnostics.
  bool have_replica_answer = false;
  ClientResponse replica_answer;
  bool deadline_blown = false;
  bool all_open = false;
  bool finished = false;

  // Guarded by Router::timer_mutex_:
  bool timer_armed = false;
  TimerQueue::iterator timer_entry;

  bool AnyLive() const {
    for (const auto& t : tries) {
      if (t != nullptr && !t->closed) return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------
// StaleCache: LRU of fresh bodies, generation-keyed by model version
// ---------------------------------------------------------------------

class Router::StaleCache {
 public:
  void Put(uint64_t key, std::string body, std::string content_type,
           uint64_t model_version) {
    std::lock_guard<std::mutex> lock(mutex_);
    // A newer model generation invalidates every older entry: stale
    // answers may lag in time, never across an observed reload. Entries
    // below the current generation (including unparseable versions once
    // one is known) could never be served — don't let them occupy
    // capacity and evict servable ones.
    if (model_version > generation_) generation_ = model_version;
    if (model_version < generation_) return;
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.erase(it->second.lru);
      map_.erase(it);
    }
    while (map_.size() >= kStaleCapacity) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(body), std::move(content_type),
                            model_version, lru_.begin()});
  }

  bool Get(uint64_t key, std::string* body, std::string* content_type) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    if (it->second.model_version != generation_) {
      // Older generation: drop rather than serve a retired model.
      lru_.erase(it->second.lru);
      map_.erase(it);
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    *body = it->second.body;
    *content_type = it->second.content_type;
    return true;
  }

 private:
  struct Entry {
    std::string body;
    std::string content_type;
    uint64_t model_version;
    std::list<uint64_t>::iterator lru;
  };
  std::mutex mutex_;
  uint64_t generation_ = 0;
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, Entry> map_;
};

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

Router::Router(const std::vector<ReplicaClientOptions>& replicas,
               const RouterOptions& options,
               std::shared_ptr<obs::Registry> registry,
               std::shared_ptr<obs::FlightRecorder> recorder)
    : options_(options),
      registry_(std::move(registry)),
      recorder_(std::move(recorder)),
      retry_tokens_(kRetryBudgetBurst) {
  DSSDDI_CHECK(!replicas.empty()) << "Router needs at least one replica";
  DSSDDI_CHECK(replicas.size() <= 64) << "Router caps out at 64 replicas";
  DSSDDI_CHECK(registry_ != nullptr) << "Router needs a registry";
  if (options_.max_tries < 1) options_.max_tries = 1;
  if (options_.per_try_timeout_ms < 1) options_.per_try_timeout_ms = 1;
  if (options_.worker_threads < 2) options_.worker_threads = 2;

  pool_ = std::make_unique<serve::ThreadPool>(options_.worker_threads);
  stale_ = std::make_unique<StaleCache>();

  requests_ok_ = registry_->GetCounter("dssddi_router_requests_total",
                                       "Router exchanges by outcome",
                                       {{"outcome", "ok"}});
  requests_stale_ = registry_->GetCounter("dssddi_router_requests_total",
                                          "Router exchanges by outcome",
                                          {{"outcome", "stale"}});
  requests_error_ = registry_->GetCounter("dssddi_router_requests_total",
                                          "Router exchanges by outcome",
                                          {{"outcome", "error"}});
  retries_total_ = registry_->GetCounter(
      "dssddi_router_retries_total",
      "Retries launched after a failed try (budget-bounded)");
  hedges_won_ = registry_->GetCounter(
      "dssddi_router_hedges_total",
      "Hedged duplicate tries by result", {{"result", "won"}});
  hedges_lost_ = registry_->GetCounter(
      "dssddi_router_hedges_total",
      "Hedged duplicate tries by result", {{"result", "lost"}});
  try_latency_ = registry_->GetHistogram(
      "dssddi_request_latency_ms",
      "Handler-observed latency (dispatch to response send) in "
      "milliseconds, by route",
      {{"route", "replica_try"}});

  for (const ReplicaClientOptions& replica_options : replicas) {
    replicas_.push_back(std::make_unique<ReplicaClient>(replica_options));
  }
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const std::string& name = replicas_[i]->name();
    obs::Gauge* state_gauge = registry_->GetGauge(
        "dssddi_replica_state",
        "Per-replica circuit breaker state (0=closed, 1=half-open, 2=open)",
        {{"replica", name}});
    state_gauge->Set(0.0);
    replica_state_.push_back(state_gauge);
    obs::Counter* to_open = registry_->GetCounter(
        "dssddi_replica_transitions_total",
        "Circuit breaker transitions, by replica and target state",
        {{"replica", name}, {"to", "open"}});
    obs::Counter* to_half_open = registry_->GetCounter(
        "dssddi_replica_transitions_total",
        "Circuit breaker transitions, by replica and target state",
        {{"replica", name}, {"to", "half_open"}});
    obs::Counter* to_closed = registry_->GetCounter(
        "dssddi_replica_transitions_total",
        "Circuit breaker transitions, by replica and target state",
        {{"replica", name}, {"to", "closed"}});
    obs::FlightRecorder* recorder = recorder_.get();
    replicas_[i]->breaker().set_transition_hook(
        [i, state_gauge, to_open, to_half_open, to_closed, recorder](
            BreakerState /*from*/, BreakerState to) {
          state_gauge->Set(static_cast<double>(static_cast<int>(to)));
          switch (to) {
            case BreakerState::kOpen: to_open->Increment(); break;
            case BreakerState::kHalfOpen: to_half_open->Increment(); break;
            case BreakerState::kClosed: to_closed->Increment(); break;
          }
          if (recorder != nullptr) {
            // trace_id carries the replica index (route/detail must be
            // literals — the recorder's zero-alloc contract).
            const char* detail =
                to == BreakerState::kOpen        ? "circuit breaker opened"
                : to == BreakerState::kHalfOpen  ? "circuit breaker half-open"
                                                 : "circuit breaker closed";
            recorder->Record(to == BreakerState::kOpen
                                 ? obs::LogSeverity::kWarning
                                 : obs::LogSeverity::kInfo,
                             obs::LogReason::kReplicaState, "router", 0,
                             /*trace_id=*/i, 0.0, nullptr, detail);
          }
        });
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

Router::~Router() {
  stopping_.store(true, std::memory_order_relaxed);
  // Queued dials and pooled tries run out (each sees stopping_); no new
  // one starts after this.
  pool_->Shutdown();
  // Fail every try still in flight on a pipelined connection. Their
  // calls finish without retrying, while the clients are still alive.
  for (const auto& replica : replicas_) replica->pipelined_client()->Close();
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  timer_thread_.join();
  // A call left waiting on a timer (a backoff or a hedge trigger)
  // finishes here.
  TimerQueue left;
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    left.swap(timers_);
    for (auto& entry : left) entry.second->timer_armed = false;
  }
  for (auto& entry : left) {
    std::unique_lock<std::mutex> lock(entry.second->mutex);
    if (!entry.second->finished) Finish(entry.second, lock);
  }
}

int Router::AvailableReplicas() const {
  int available = 0;
  for (const auto& replica : replicas_) {
    if (replica->breaker().state() != BreakerState::kOpen) ++available;
  }
  return available;
}

int Router::BackoffMs(int attempt, int base_ms, int max_ms, uint64_t seed,
                      uint64_t nonce) {
  if (attempt < 1) attempt = 1;
  if (base_ms < 0) base_ms = 0;
  double delay = static_cast<double>(base_ms) *
                 std::pow(2.0, static_cast<double>(attempt - 1));
  if (delay > static_cast<double>(max_ms)) delay = static_cast<double>(max_ms);
  // Seeded jitter in [0.5, 1.0): deterministic per (seed, nonce,
  // attempt) so a chaos replay sleeps the same schedule.
  const uint64_t h = Mix64(seed ^ Mix64(nonce * 0x9e3779b97f4a7c15ull +
                                        static_cast<uint64_t>(attempt)));
  const double unit =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return static_cast<int>(delay * (0.5 + 0.5 * unit));
}

int Router::PickReplica(uint64_t exclude, uint64_t* admission) {
  const size_t n = replicas_.size();
  const uint64_t begin = rr_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    const size_t index = (begin + i) % n;
    if (exclude & (1ull << index)) continue;
    const uint64_t token = replicas_[index]->breaker().Admit();
    if (token != 0) {
      *admission = token;
      return static_cast<int>(index);
    }
  }
  *admission = 0;
  return -1;
}

int Router::HedgeDelayMs() {
  const double p90 = hedge_delay_cache_.load(std::memory_order_relaxed);
  double delay = p90 > 0.0 ? p90 : options_.hedge_min_delay_ms;
  delay = std::max(delay, static_cast<double>(options_.hedge_min_delay_ms));
  delay = std::min(delay, static_cast<double>(kHedgeMaxDelayMs));
  return static_cast<int>(std::ceil(delay));
}

void Router::RecordTryLatency(double ms) {
  try_latency_->Record(ms);
  if (try_records_.fetch_add(1, std::memory_order_relaxed) %
          kHedgeRefreshEvery ==
      kHedgeRefreshEvery - 1) {
    hedge_delay_cache_.store(try_latency_->Snapshot().Quantile(0.90),
                             std::memory_order_relaxed);
  }
}

void Router::Start(const std::string& target, const std::string& body,
                   const std::string& content_type, int deadline_ms,
                   Done done) {
  auto call = std::make_shared<Call>();
  call->target = target;
  call->body = body;
  call->content_type = content_type;
  call->binary =
      wire::IsBinaryContentType(content_type) && target == "/v1/suggest";
  call->start = Clock::now();
  call->has_deadline = deadline_ms > 0;
  call->deadline =
      call->start + std::chrono::milliseconds(call->has_deadline ? deadline_ms : 0);
  call->nonce = request_counter_.fetch_add(1, std::memory_order_relaxed);
  call->stale_key =
      Mix64(io::Fnv1a64(target) ^ (io::Fnv1a64(body) * 0x9e3779b97f4a7c15ull));
  call->done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(budget_mutex_);
    retry_tokens_ =
        std::min(kRetryBudgetBurst, retry_tokens_ + kRetryBudgetRatio);
  }
  std::unique_lock<std::mutex> lock(call->mutex);
  NextAttempt(call, lock);
}

io::Status Router::Exchange(const std::string& target,
                            const std::string& body,
                            const std::string& content_type, int deadline_ms,
                            RouterResult* out) {
  auto answer = std::make_shared<std::promise<RouterResult>>();
  std::future<RouterResult> result = answer->get_future();
  Start(target, body, content_type, deadline_ms,
        [answer](RouterResult routed) { answer->set_value(std::move(routed)); });
  *out = result.get();
  return io::Status::Ok();
}

std::shared_ptr<Router::Try> Router::NewTry(const Call& call, int replica,
                                            uint64_t admission, int budget_ms,
                                            Clock::time_point now) {
  auto t = std::make_shared<Try>();
  t->replica = replica;
  t->admission = admission;
  t->budget_ms = budget_ms;
  t->started = now;
  t->budget_at = now + std::chrono::milliseconds(budget_ms);
  t->may_redo = call.binary;
  return t;
}

void Router::NextAttempt(const std::shared_ptr<Call>& call,
                         std::unique_lock<std::mutex>& lock) {
  Call& c = *call;
  c.tries[0].reset();
  c.tries[1].reset();
  c.attempt_hedged = false;
  c.hedge_pending = false;
  c.backoff_pending = false;
  if (stopping_.load(std::memory_order_relaxed) ||
      c.result.tries >= options_.max_tries) {
    Finish(call, lock);
    return;
  }
  int remaining_ms = options_.per_try_timeout_ms;
  if (c.has_deadline) {
    remaining_ms = RemainingMs(c.deadline);
    if (remaining_ms <= 0) {
      c.deadline_blown = true;
      Finish(call, lock);
      return;
    }
  }
  uint64_t admission = 0;
  const int primary = PickReplica(0, &admission);
  if (primary < 0) {
    c.all_open = true;
    Finish(call, lock);
    return;
  }
  const int budget_ms = std::min(options_.per_try_timeout_ms, remaining_ms);
  const Clock::time_point now = Clock::now();
  std::shared_ptr<Try> t = NewTry(c, primary, admission, budget_ms, now);
  c.tries[0] = t;
  ++c.result.tries;

  const bool can_hedge = options_.hedging && replicas_.size() > 1 &&
                         !(options_.hedge_inhibit && options_.hedge_inhibit());
  const int hedge_ms = can_hedge ? HedgeDelayMs() : -1;
  if (hedge_ms >= 0 && hedge_ms < budget_ms) {  // else it would never fire
    c.hedge_pending = true;
    c.hedge_at = now + std::chrono::milliseconds(hedge_ms);
  }
  Rearm(call);
  lock.unlock();
  LaunchTry(call, t);
}

void Router::AttemptFailed(const std::shared_ptr<Call>& call,
                           std::unique_lock<std::mutex>& lock) {
  Call& c = *call;
  c.hedge_pending = false;  // one hedge per attempt, fired or not
  if (stopping_.load(std::memory_order_relaxed) ||
      c.result.tries >= options_.max_tries) {
    Finish(call, lock);
    return;
  }
  // Retry only within the budget.
  bool spend = false;
  {
    std::lock_guard<std::mutex> budget_lock(budget_mutex_);
    spend = retry_tokens_ >= 1.0;
    if (spend) retry_tokens_ -= 1.0;
  }
  if (!spend) {
    Finish(call, lock);
    return;
  }
  retries_total_->Increment();
  int backoff_ms =
      BackoffMs(c.result.tries, options_.backoff_base_ms,
                options_.backoff_max_ms, kBackoffSeed, c.nonce);
  if (c.has_deadline) {
    backoff_ms = std::min(backoff_ms, std::max(0, RemainingMs(c.deadline) - 1));
  }
  if (backoff_ms <= 0) {
    NextAttempt(call, lock);
    return;
  }
  c.backoff_pending = true;
  c.backoff_at = Clock::now() + std::chrono::milliseconds(backoff_ms);
  Rearm(call);
  lock.unlock();
}

void Router::Finish(const std::shared_ptr<Call>& call,
                    std::unique_lock<std::mutex>& lock) {
  Call& c = *call;
  c.finished = true;
  // Whatever the verdict, stop every try still running.
  for (const auto& t : c.tries) {
    if (t != nullptr && !t->closed) CloseTry(c, *t, Verdict::kCancelled);
  }
  c.hedge_pending = false;
  c.backoff_pending = false;
  Disarm(c);
  lock.unlock();
  Complete(c);
}

void Router::CloseTry(const Call& call, Try& t, Verdict verdict) {
  t.closed = true;
  ReplicaClient& replica = *replicas_[static_cast<size_t>(t.replica)];
  if (!call.binary) {
    // ReplicaClient::Exchange settles the admission; a cancelled try
    // aborts within one poll slice and is settled as neutral.
    if (verdict == Verdict::kCancelled) {
      t.cancel.store(true, std::memory_order_relaxed);
    }
    return;
  }
  if (t.ticket != 0) {
    replica.pipelined_client()->Abandon(t.ticket);
    t.ticket = 0;
  }
  switch (verdict) {
    case Verdict::kSucceeded: replica.breaker().RecordSuccess(t.admission); break;
    case Verdict::kFailed: replica.breaker().RecordFailure(t.admission); break;
    // A hedge loser or a request-deadline abort: the replica did
    // nothing wrong. A burst of tight-deadline cancellations must never
    // open breakers on a healthy cluster.
    case Verdict::kCancelled: replica.breaker().Abandon(t.admission); break;
  }
}

void Router::LaunchTry(const std::shared_ptr<Call>& call,
                       const std::shared_ptr<Try>& t) {
  if (call->binary) {
    StartPipelined(call, t, /*may_dial=*/false);
    return;
  }
  const bool submitted = pool_->Submit([this, call, t] {
    ClientRequestOptions options;
    options.content_type = call->content_type;
    options.deadline_ms = t->budget_ms;
    options.cancel = &t->cancel;
    ClientResponse response;
    const io::Status status = replicas_[static_cast<size_t>(t->replica)]->Exchange(
        "POST", call->target, call->body, options, &response, t->admission);
    OnTryDone(call, t, status, std::move(response));
  });
  if (!submitted) {
    // The try never ran, so nothing settles its admission — release it
    // here or a half-open probe slot leaks forever.
    replicas_[static_cast<size_t>(t->replica)]->breaker().Abandon(t->admission);
    OnTryDone(call, t, io::Status::Error("router shutting down"),
              ClientResponse{});
  }
}

void Router::StartPipelined(const std::shared_ptr<Call>& call,
                            const std::shared_ptr<Try>& t, bool may_dial) {
  PipelinedClient* client =
      replicas_[static_cast<size_t>(t->replica)]->pipelined_client();
  const PipelinedClient::Started started = client->Start(
      call->body,
      [this, call, t](io::Status status, ClientResponse response) {
        OnTryDone(call, t, std::move(status), std::move(response));
      },
      may_dial);
  if (started.needs_dial) {
    {
      std::lock_guard<std::mutex> lock(call->mutex);
      if (t->closed) return;
      t->may_redo = false;  // its connection will be fresh
    }
    DialTry(call, t);
    return;
  }
  if (started.ticket == 0) {
    OnTryDone(call, t, started.status, ClientResponse{});
    return;
  }
  std::lock_guard<std::mutex> lock(call->mutex);
  if (t->closed) {
    // Closed while starting, when the closer had no ticket to abandon.
    client->Abandon(started.ticket);
    return;
  }
  t->ticket = started.ticket;
}

void Router::DialTry(const std::shared_ptr<Call>& call,
                     const std::shared_ptr<Try>& t) {
  const bool submitted = pool_->Submit([this, call, t] {
    {
      std::lock_guard<std::mutex> lock(call->mutex);
      if (t->closed) return;
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      OnTryDone(call, t, io::Status::Error("router shutting down"),
                ClientResponse{});
      return;
    }
    StartPipelined(call, t, /*may_dial=*/true);
  });
  if (!submitted) {
    OnTryDone(call, t, io::Status::Error("router shutting down"),
              ClientResponse{});
  }
}

void Router::OnTryDone(const std::shared_ptr<Call>& call,
                       const std::shared_ptr<Try>& t, io::Status status,
                       ClientResponse response) {
  std::unique_lock<std::mutex> lock(call->mutex);
  Call& c = *call;
  if (t->closed) return;  // abandoned: a winner, a budget or a deadline
  t->ticket = 0;
  const bool stopping = stopping_.load(std::memory_order_relaxed);
  if (!status.ok && t->may_redo && !stopping) {
    // The shared connection may have been idle-reaped by the server
    // between exchanges: redial and resend once before charging the
    // replica. Never on this thread — it may be the reader that reported
    // the failure, and a dialing Start joins that reader.
    t->may_redo = false;
    lock.unlock();
    DialTry(call, t);
    return;
  }
  CloseTry(c, *t, stopping ? Verdict::kCancelled
                  : status.ok && response.status < 500
                      ? Verdict::kSucceeded
                      : Verdict::kFailed);
  if (status.ok) RecordTryLatency(ElapsedMs(t->started));
  if (status.ok && IsFinalStatus(response.status)) {
    c.winner = t;
    c.winner_response = std::move(response);
    Finish(call, lock);
    return;
  }
  if (status.ok) {
    c.have_replica_answer = true;
    c.replica_answer = std::move(response);
  }
  if (c.AnyLive()) {
    Rearm(call);  // this try's budget no longer counts
    return;
  }
  AttemptFailed(call, lock);
}

void Router::OnTimer(const std::shared_ptr<Call>& call) {
  std::unique_lock<std::mutex> lock(call->mutex);
  Call& c = *call;
  if (c.finished) return;
  const Clock::time_point now = Clock::now();
  bool expired = false;
  for (const auto& t : c.tries) {
    if (t != nullptr && !t->closed && c.binary && now >= t->budget_at) {
      CloseTry(c, *t, Verdict::kFailed);  // no answer within its budget
      expired = true;
    }
  }
  if (c.has_deadline && now >= c.deadline) {
    c.deadline_blown = true;
    Finish(call, lock);
    return;
  }
  if (expired && !c.AnyLive()) {
    AttemptFailed(call, lock);
    return;
  }
  if (c.backoff_pending && now >= c.backoff_at) {
    NextAttempt(call, lock);
    return;
  }
  std::shared_ptr<Try> hedge;
  if (c.hedge_pending && now >= c.hedge_at) {
    c.hedge_pending = false;  // one hedge per attempt, fired or not
    // Budget first, admission second: an admitted half-open probe that
    // is never launched would hold the probe slot forever.
    int hedge_budget_ms = options_.per_try_timeout_ms;
    if (c.has_deadline) {
      hedge_budget_ms = std::min(hedge_budget_ms, RemainingMs(c.deadline));
    }
    if (hedge_budget_ms > 0) {
      uint64_t admission = 0;
      const int secondary = PickReplica(1ull << c.tries[0]->replica, &admission);
      if (secondary >= 0) {
        hedge = NewTry(c, secondary, admission, hedge_budget_ms, now);
        c.tries[1] = hedge;
        ++c.result.tries;
        c.result.hedged = true;
        c.attempt_hedged = true;
      }
    }
  }
  Rearm(call);
  lock.unlock();
  if (hedge != nullptr) LaunchTry(call, hedge);
}

void Router::Rearm(const std::shared_ptr<Call>& call) {
  Call& c = *call;
  bool any = false;
  Clock::time_point at{};
  const auto consider = [&](Clock::time_point when) {
    if (!any || when < at) at = when;
    any = true;
  };
  if (c.has_deadline) consider(c.deadline);
  if (c.hedge_pending) consider(c.hedge_at);
  if (c.backoff_pending) consider(c.backoff_at);
  for (const auto& t : c.tries) {
    if (t != nullptr && !t->closed && c.binary) consider(t->budget_at);
  }
  if (!any) {
    Disarm(c);
    return;
  }
  std::lock_guard<std::mutex> lock(timer_mutex_);
  if (c.timer_armed) {
    if (c.timer_entry->first == at) return;
    timers_.erase(c.timer_entry);
  }
  c.timer_entry = timers_.emplace(at, call);
  c.timer_armed = true;
  if (at < timer_wake_at_) {
    timer_wake_at_ = at;
    timer_cv_.notify_one();
  }
}

void Router::Disarm(Call& call) {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  if (!call.timer_armed) return;
  timers_.erase(call.timer_entry);
  call.timer_armed = false;
}

void Router::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_wake_at_ = Clock::time_point::max();
      timer_cv_.wait(lock);
      continue;
    }
    const auto first = timers_.begin();
    if (Clock::now() < first->first) {
      timer_wake_at_ = first->first;
      timer_cv_.wait_until(lock, timer_wake_at_);
      continue;
    }
    std::shared_ptr<Call> call = std::move(first->second);
    call->timer_armed = false;
    timers_.erase(first);
    lock.unlock();
    OnTimer(call);
    call.reset();
    lock.lock();
  }
}

void Router::Complete(Call& c) {
  RouterResult& out = c.result;
  if (c.winner != nullptr) {
    if (c.attempt_hedged) {
      (c.winner == c.tries[1] ? hedges_won_ : hedges_lost_)->Increment();
    }
    out.status = c.winner_response.status;
    out.body = std::move(c.winner_response.body);
    const std::string* type = c.winner_response.FindHeader("Content-Type");
    out.content_type = type != nullptr ? *type : c.content_type;
    out.replica = c.winner->replica;
    if (out.status == 200) {
      stale_->Put(c.stale_key, out.body, out.content_type,
                  ParseModelVersion(out.body, out.content_type));
    }
    requests_ok_->Increment();
  } else {
    // State-only availability check for diagnostics — PickReplica would
    // consume a half-open probe slot that no try settles.
    if (!c.all_open && AvailableReplicas() == 0) c.all_open = true;
    // No fresh answer. Degrade: stale cache first, then the best
    // replica-authored error, then a synthesized status.
    if (stale_->Get(c.stale_key, &out.body, &out.content_type)) {
      out.stale = true;
      out.status = 200;
      out.replica = -1;
      requests_stale_->Increment();
      if (recorder_ != nullptr) {
        recorder_->Record(obs::LogSeverity::kWarning,
                          obs::LogReason::kStaleServe, "router", 200, 0,
                          ElapsedMs(c.start), nullptr,
                          c.all_open ? "all breakers open; served stale"
                                     : "tries exhausted; served stale");
      }
    } else if (c.have_replica_answer) {
      out.status = c.replica_answer.status;
      out.body = std::move(c.replica_answer.body);
      const std::string* type = c.replica_answer.FindHeader("Content-Type");
      out.content_type = type != nullptr ? *type : c.content_type;
      requests_error_->Increment();
    } else {
      out.status = c.deadline_blown ? 504 : 503;
      const char* message = c.deadline_blown
                                ? "router deadline exceeded"
                                : (c.all_open ? "all replicas unavailable"
                                              : "no replica answered");
      out.content_type =
          EncodeRouterError(out.status, message, c.content_type, &out.body);
      requests_error_->Increment();
    }
  }
  Done done = std::move(c.done);
  done(std::move(out));
}

// ---------------------------------------------------------------------
// RouterFrontend
// ---------------------------------------------------------------------

namespace {

std::string FrontendQueryParam(const std::string& query, const char* key) {
  size_t pos = 0;
  const std::string want(key);
  while (pos < query.size()) {
    size_t next = query.find('&', pos);
    if (next == std::string::npos) next = query.size();
    const std::string pair = query.substr(pos, next - pos);
    pos = next + 1;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (pair.compare(0, eq, want) == 0) return pair.substr(eq + 1);
  }
  return "";
}

}  // namespace

RouterFrontend::RouterFrontend(Router* router,
                               const RouterFrontendOptions& options)
    : router_(router), options_(options) {
  DSSDDI_CHECK(router_ != nullptr) << "RouterFrontend needs a router";
  obs::Registry* registry = router_->registry();
  suggest_requests_ = registry->GetCounter("dssddi_http_requests_total",
                                           "HTTP requests handled, by route",
                                           {{"route", "/v1/suggest"}});
  suggest_2xx_ = registry->GetCounter(
      "dssddi_http_responses_total",
      "HTTP responses by route and status class",
      {{"route", "/v1/suggest"}, {"class", "2xx"}});
  suggest_4xx_ = registry->GetCounter(
      "dssddi_http_responses_total",
      "HTTP responses by route and status class",
      {{"route", "/v1/suggest"}, {"class", "4xx"}});
  suggest_5xx_ = registry->GetCounter(
      "dssddi_http_responses_total",
      "HTTP responses by route and status class",
      {{"route", "/v1/suggest"}, {"class", "5xx"}});
  suggest_stale_ = registry->GetCounter(
      "dssddi_router_stale_responses_total",
      "Requests answered from the stale cache (all replicas open)");
  suggest_latency_ = registry->GetHistogram(
      "dssddi_request_latency_ms",
      "Handler-observed latency (dispatch to response send) in "
      "milliseconds, by route",
      {{"route", "/v1/suggest"}});
}

RouterFrontend::~RouterFrontend() {
  std::unique_lock<std::mutex> lock(exchanges_mutex_);
  exchanges_cv_.wait(lock, [this] { return exchanges_ == 0; });
}

void RouterFrontend::set_replica_admin(ReplicaAdminHook hook) {
  replica_admin_ = std::move(hook);
}

void RouterFrontend::set_fault_admin(FaultInstallHook install,
                                     FaultDescribeHook describe) {
  fault_install_ = std::move(install);
  fault_describe_ = std::move(describe);
}

void RouterFrontend::Handle(const HttpRequest& request,
                            ResponseWriter writer) {
  std::string path = request.target;
  std::string query;
  if (const size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }

  if (path == "/v1/suggest") {
    HandleSuggest(request, writer);
    return;
  }
  HttpResponse response;
  if (path == "/healthz") {
    JsonWriter w;
    w.BeginObject().Key("status").String("ok").Key("replicas")
        .Int(static_cast<int64_t>(router_->num_replicas())).EndObject();
    response.body = w.str();
  } else if (path == "/readyz") {
    response.status = HandleReadyz(writer);
    return;
  } else if (path == "/statsz") {
    JsonWriter w;
    w.BeginObject().Key("replicas").BeginArray();
    for (size_t i = 0; i < router_->num_replicas(); ++i) {
      ReplicaClient& replica = router_->replica(i);
      w.BeginObject()
          .Key("name").String(replica.name())
          .Key("state").String(BreakerStateName(replica.breaker().state()))
          .EndObject();
    }
    w.EndArray()
        .Key("available").Int(router_->AvailableReplicas())
        .Key("draining").Bool(http_ != nullptr && http_->draining())
        .EndObject();
    response.body = w.str();
  } else if (path == "/metricsz") {
    const bool openmetrics =
        FrontendQueryParam(query, "format") == "openmetrics";
    response.content_type =
        openmetrics ? "application/openmetrics-text; version=1.0.0; "
                      "charset=utf-8"
                    : "text/plain; version=0.0.4; charset=utf-8";
    response.body = openmetrics
                        ? router_->registry()->RenderOpenMetricsText()
                        : router_->registry()->RenderPrometheusText();
  } else if (path == "/sloz") {
    if (slo_ == nullptr) {
      response.status = 404;
      response.body = "{\"error\":\"no slo engine attached\"}";
    } else {
      response.body = slo_->RenderSlozJson();
    }
  } else if (path == "/logz") {
    if (router_->recorder() == nullptr) {
      response.status = 404;
      response.body = "{\"error\":\"no flight recorder\"}";
    } else {
      response.content_type = "application/x-ndjson";
      response.body = router_->recorder()->RenderLogzJson();
    }
  } else if (path == "/admin/fault") {
    response.status = HandleAdminFault(request, writer);
    return;
  } else if (path == "/admin/replica") {
    response.status = HandleAdminReplica(request, writer);
    return;
  } else {
    response.status = 404;
    response.body = "{\"error\":\"no such route\"}";
  }
  writer.Send(std::move(response));
}

int RouterFrontend::HandleReadyz(ResponseWriter writer) {
  const bool draining = http_ != nullptr && http_->draining();
  const int available = router_->AvailableReplicas();
  const bool ready = !draining && available > 0;
  JsonWriter w;
  w.BeginObject()
      .Key("ready").Bool(ready)
      .Key("draining").Bool(draining)
      .Key("available").Int(available)
      .Key("replicas").BeginArray();
  for (size_t i = 0; i < router_->num_replicas(); ++i) {
    ReplicaClient& replica = router_->replica(i);
    w.BeginObject()
        .Key("name").String(replica.name())
        .Key("state").String(BreakerStateName(replica.breaker().state()))
        .EndObject();
  }
  w.EndArray().EndObject();
  HttpResponse response;
  response.status = ready ? 200 : 503;
  response.body = w.str();
  writer.Send(std::move(response));
  return response.status;
}

int RouterFrontend::HandleAdminFault(const HttpRequest& request,
                                     ResponseWriter writer) {
  HttpResponse response;
  if (request.method == "GET") {
    if (!fault_describe_) {
      response.status = 404;
      response.body = "{\"error\":\"no fault injectors attached\"}";
    } else {
      response.body = fault_describe_();
    }
  } else if (request.method == "POST") {
    JsonValue body;
    std::string error;
    const JsonValue* spec = nullptr;
    if (!fault_install_) {
      response.status = 404;
      response.body = "{\"error\":\"no fault injectors attached\"}";
    } else if (!ParseJson(request.body, &body, &error) ||
               (spec = body.Find("spec")) == nullptr || !spec->is_string()) {
      response.status = 400;
      response.body = "{\"error\":\"body wants {\\\"replica\\\":N,"
                      "\\\"spec\\\":\\\"...\\\"}\"}";
    } else {
      const JsonValue* replica = body.Find("replica");
      const int index =
          replica != nullptr ? static_cast<int>(replica->AsInt(-1)) : -1;
      const io::Status installed = fault_install_(index, spec->AsString());
      if (!installed.ok) {
        response.status = 400;
        response.body = "{\"error\":\"" + JsonEscape(installed.message) + "\"}";
      } else {
        response.body = "{\"installed\":true}";
      }
    }
  } else {
    response.status = 405;
    response.body = "{\"error\":\"GET or POST\"}";
  }
  writer.Send(std::move(response));
  return response.status;
}

int RouterFrontend::HandleAdminReplica(const HttpRequest& request,
                                       ResponseWriter writer) {
  HttpResponse response;
  JsonValue body;
  std::string error;
  if (request.method != "POST") {
    response.status = 405;
    response.body = "{\"error\":\"POST only\"}";
  } else if (!replica_admin_) {
    response.status = 404;
    response.body = "{\"error\":\"no replica admin hook attached\"}";
  } else if (!ParseJson(request.body, &body, &error)) {
    response.status = 400;
    response.body = "{\"error\":\"" + JsonEscape(error) + "\"}";
  } else {
    const JsonValue* index = body.Find("index");
    const JsonValue* action = body.Find("action");
    const int64_t i = index != nullptr ? index->AsInt(-1) : -1;
    const std::string verb =
        action != nullptr && action->is_string() ? action->AsString() : "";
    if (i < 0 || i >= static_cast<int64_t>(router_->num_replicas()) ||
        (verb != "stop" && verb != "start")) {
      response.status = 400;
      response.body = "{\"error\":\"body wants {\\\"index\\\":N,"
                      "\\\"action\\\":\\\"stop|start\\\"}\"}";
    } else if (!replica_admin_(static_cast<size_t>(i), verb == "start")) {
      response.status = 409;
      response.body = "{\"error\":\"replica admin action failed\"}";
    } else {
      response.body = "{\"ok\":true}";
    }
  }
  writer.Send(std::move(response));
  return response.status;
}

void RouterFrontend::HandleSuggest(const HttpRequest& request,
                                   ResponseWriter writer) {
  suggest_requests_->Increment();
  const Clock::time_point start = Clock::now();
  if (request.method != "POST") {
    HttpResponse response;
    response.status = 405;
    response.body = "{\"error\":\"POST only\"}";
    suggest_4xx_->Increment();
    writer.Send(std::move(response));
    return;
  }
  const std::string* type = request.FindHeader("Content-Type");
  std::string content_type = type != nullptr ? *type : "application/json";
  int deadline_ms = options_.default_deadline_ms;
  if (const std::string* header = request.FindHeader("X-Deadline-Ms")) {
    // The replica's rule: a positive integer that fits an int, else 400
    // in the request's codec.
    uint64_t parsed = 0;
    if (!ParseUintHeader(*header, &parsed) || parsed == 0 ||
        parsed > INT32_MAX) {
      HttpResponse response;
      response.status = 400;
      response.content_type =
          EncodeRouterError(400, "X-Deadline-Ms must be a positive integer",
                            content_type, &response.body);
      suggest_4xx_->Increment();
      writer.Send(std::move(response));
      return;
    }
    deadline_ms = static_cast<int>(parsed);
  }
  deadline_ms = std::min(deadline_ms, kMaxDeadlineMs);

  {
    std::lock_guard<std::mutex> lock(exchanges_mutex_);
    ++exchanges_;
  }
  router_->Start(
      "/v1/suggest", request.body, content_type, deadline_ms,
      [this, writer, start](RouterResult result) {
        HttpResponse response;
        response.status = result.status;
        response.body = std::move(result.body);
        response.content_type = std::move(result.content_type);
        if (result.stale) {
          response.extra_headers.emplace_back("X-Dssddi-Stale", "true");
          suggest_stale_->Increment();
        }
        (response.status >= 500   ? suggest_5xx_
         : response.status >= 400 ? suggest_4xx_
                                  : suggest_2xx_)
            ->Increment();
        suggest_latency_->Record(ElapsedMs(start));
        writer.Send(std::move(response));
        std::lock_guard<std::mutex> lock(exchanges_mutex_);
        if (--exchanges_ == 0) exchanges_cv_.notify_all();
      });
}

}  // namespace dssddi::net
