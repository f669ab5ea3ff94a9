#include "net/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
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
  if (content_type == wire::kContentType) {
    wire::SuggestResponseFrame frame;
    std::string error;
    if (wire::DecodeSuggestResponse(body, &frame, &error)) {
      return frame.model_version;
    }
    return 0;
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
  if (content_type == wire::kContentType) {
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
// Race: shared state between an Exchange call and its in-flight tries
// ---------------------------------------------------------------------

struct Router::Race {
  struct Outcome {
    int slot = 0;
    int replica = -1;
    io::Status status;
    ClientResponse response;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Outcome> outcomes;  // appended as tries finish
  int launched = 0;               // guarded by mutex
  /// Per-slot cancellation flags read by HttpClient's sliced polls.
  /// The Race outlives every try (shared_ptr captured by the task), so
  /// a loser finishing after Exchange returned writes into live memory.
  std::array<std::atomic<bool>, 2> cancel{};
};

// ---------------------------------------------------------------------
// StaleCache: LRU of fresh bodies, generation-keyed by model version
// ---------------------------------------------------------------------

class Router::StaleCache {
 public:
  explicit StaleCache(size_t capacity) : capacity_(capacity) {}

  void Put(uint64_t key, std::string body, std::string content_type,
           uint64_t model_version) {
    if (capacity_ == 0) return;
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
    while (map_.size() >= capacity_) {
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
  size_t capacity_;
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
      retry_tokens_(options.retry_budget_burst) {
  DSSDDI_CHECK(!replicas.empty()) << "Router needs at least one replica";
  DSSDDI_CHECK(replicas.size() <= 64) << "Router caps out at 64 replicas";
  DSSDDI_CHECK(registry_ != nullptr) << "Router needs a registry";
  if (options_.max_tries < 1) options_.max_tries = 1;
  if (options_.per_try_timeout_ms < 1) options_.per_try_timeout_ms = 1;
  if (options_.worker_threads < 2) options_.worker_threads = 2;

  pool_ = std::make_unique<serve::ThreadPool>(options_.worker_threads);
  stale_ = std::make_unique<StaleCache>(options_.stale_capacity);

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
}

Router::~Router() {
  // Unblock any cancelled stragglers, then drain the try pool.
  pool_->Shutdown();
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
  delay = std::min(delay, static_cast<double>(options_.hedge_max_delay_ms));
  return static_cast<int>(std::ceil(delay));
}

void Router::RecordTryLatency(double ms) {
  try_latency_->Record(ms);
  const uint32_t every = std::max<uint32_t>(options_.hedge_refresh_every, 1);
  if (try_records_.fetch_add(1, std::memory_order_relaxed) % every ==
      every - 1) {
    hedge_delay_cache_.store(try_latency_->Snapshot().Quantile(0.90),
                             std::memory_order_relaxed);
  }
}

void Router::LaunchTry(const std::shared_ptr<Race>& race, int slot,
                       int replica, uint64_t admission,
                       const std::string& target, const std::string& body,
                       const std::string& content_type, int budget_ms) {
  const bool submitted = pool_->Submit([this, race, slot, replica, admission,
                                        target, body, content_type,
                                        budget_ms] {
    ClientRequestOptions options;
    options.content_type = content_type;
    options.deadline_ms = budget_ms;
    options.cancel = &race->cancel[static_cast<size_t>(slot)];
    Race::Outcome outcome;
    outcome.slot = slot;
    outcome.replica = replica;
    const Clock::time_point start = Clock::now();
    outcome.status =
        replicas_[static_cast<size_t>(replica)]->Exchange(
            "POST", target, body, options, &outcome.response, admission);
    if (outcome.status.ok) RecordTryLatency(ElapsedMs(start));
    std::lock_guard<std::mutex> lock(race->mutex);
    race->outcomes.push_back(std::move(outcome));
    race->cv.notify_all();
  });
  if (!submitted) {
    // The try never ran, so Exchange will never settle the admission —
    // release it here or a half-open probe slot leaks forever.
    replicas_[static_cast<size_t>(replica)]->breaker().Abandon(admission);
    Race::Outcome outcome;
    outcome.slot = slot;
    outcome.replica = replica;
    outcome.status = io::Status::Error("router shutting down");
    std::lock_guard<std::mutex> lock(race->mutex);
    race->outcomes.push_back(std::move(outcome));
    race->cv.notify_all();
  }
}

io::Status Router::Exchange(const std::string& target,
                            const std::string& body,
                            const std::string& content_type, int deadline_ms,
                            RouterResult* out) {
  *out = RouterResult{};
  const Clock::time_point start = Clock::now();
  const bool has_deadline = deadline_ms > 0;
  const Clock::time_point deadline =
      start + std::chrono::milliseconds(has_deadline ? deadline_ms : 0);
  const uint64_t nonce =
      request_counter_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t stale_key =
      Mix64(io::Fnv1a64(target) ^ (io::Fnv1a64(body) * 0x9e3779b97f4a7c15ull));
  {
    std::lock_guard<std::mutex> lock(budget_mutex_);
    retry_tokens_ = std::min(options_.retry_budget_burst,
                             retry_tokens_ + options_.retry_budget_ratio);
  }

  // Fallback kept from the last replica-authored non-final answer (5xx
  // or 429): if every try fails, the client gets that over a synthetic
  // 503 — it carries the replica's own diagnostics.
  bool have_replica_answer = false;
  ClientResponse replica_answer;
  bool deadline_blown = false;
  bool all_open = false;

  while (out->tries < options_.max_tries) {
    int remaining_ms = options_.per_try_timeout_ms;
    if (has_deadline) {
      remaining_ms = RemainingMs(deadline);
      if (remaining_ms <= 0) {
        deadline_blown = true;
        break;
      }
    }
    uint64_t primary_admission = 0;
    const int primary = PickReplica(0, &primary_admission);
    if (primary < 0) {
      all_open = true;
      break;
    }
    const int budget_ms = std::min(options_.per_try_timeout_ms, remaining_ms);

    auto race = std::make_shared<Race>();
    {
      std::lock_guard<std::mutex> lock(race->mutex);
      race->launched = 1;
    }
    LaunchTry(race, /*slot=*/0, primary, primary_admission, target, body,
              content_type, budget_ms);
    ++out->tries;

    const bool can_hedge =
        options_.hedging && replicas_.size() > 1 &&
        !(options_.hedge_inhibit && options_.hedge_inhibit());
    int hedge_at_ms = can_hedge ? HedgeDelayMs() : -1;
    if (hedge_at_ms >= budget_ms) hedge_at_ms = -1;  // would never fire

    const Clock::time_point try_start = Clock::now();
    bool hedge_launched = false;
    bool have_winner = false;
    Race::Outcome winner;

    std::unique_lock<std::mutex> lock(race->mutex);
    size_t seen = 0;
    for (;;) {
      for (; seen < race->outcomes.size(); ++seen) {
        const Race::Outcome& outcome = race->outcomes[seen];
        if (outcome.status.ok && IsFinalStatus(outcome.response.status)) {
          winner = outcome;
          have_winner = true;
          break;
        }
        if (outcome.status.ok) {
          have_replica_answer = true;
          replica_answer = outcome.response;
        }
      }
      if (have_winner || seen >= static_cast<size_t>(race->launched)) break;
      if (has_deadline && RemainingMs(deadline) <= 0) {
        deadline_blown = true;
        break;
      }
      if (!hedge_launched && hedge_at_ms >= 0 &&
          ElapsedMs(try_start) >= static_cast<double>(hedge_at_ms)) {
        lock.unlock();
        // Budget first, admission second: an admitted half-open probe
        // that is never launched would hold the probe slot forever.
        int hedge_budget_ms = options_.per_try_timeout_ms;
        if (has_deadline) {
          hedge_budget_ms = std::min(hedge_budget_ms, RemainingMs(deadline));
        }
        if (hedge_budget_ms > 0) {
          uint64_t hedge_admission = 0;
          const int secondary =
              PickReplica(1ull << primary, &hedge_admission);
          if (secondary >= 0) {
            {
              std::lock_guard<std::mutex> relock(race->mutex);
              race->launched = 2;
            }
            LaunchTry(race, /*slot=*/1, secondary, hedge_admission, target,
                      body, content_type, hedge_budget_ms);
            ++out->tries;
            out->hedged = true;
            hedge_launched = true;
          }
        }
        lock.lock();
        hedge_at_ms = -1;  // one hedge per attempt, fired or not
        continue;
      }
      // Wake on completion; the 5 ms cap keeps the hedge trigger and
      // deadline checks responsive without busy-waiting.
      race->cv.wait_for(lock, std::chrono::milliseconds(5));
    }

    // Whatever the verdict, stop both tries; a loser aborts within one
    // poll slice and returns its pooled connection.
    race->cancel[0].store(true, std::memory_order_relaxed);
    race->cancel[1].store(true, std::memory_order_relaxed);
    lock.unlock();

    if (have_winner) {
      if (hedge_launched) {
        (winner.slot == 1 ? hedges_won_ : hedges_lost_)->Increment();
      }
      out->status = winner.response.status;
      out->body = std::move(winner.response.body);
      const std::string* type = winner.response.FindHeader("Content-Type");
      out->content_type = type != nullptr ? *type : content_type;
      out->replica = winner.replica;
      if (out->status == 200) {
        stale_->Put(stale_key, out->body, out->content_type,
                    ParseModelVersion(out->body, out->content_type));
      }
      requests_ok_->Increment();
      return io::Status::Ok();
    }
    if (deadline_blown) break;

    // Attempt failed. Retry only within the budget.
    if (out->tries >= options_.max_tries) break;
    {
      std::lock_guard<std::mutex> budget_lock(budget_mutex_);
      if (retry_tokens_ < 1.0) break;
      retry_tokens_ -= 1.0;
    }
    retries_total_->Increment();
    int backoff_ms =
        BackoffMs(out->tries, options_.backoff_base_ms, options_.backoff_max_ms,
                  options_.backoff_seed, nonce);
    if (has_deadline) {
      backoff_ms = std::min(backoff_ms, std::max(0, RemainingMs(deadline) - 1));
    }
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
  }

  // State-only availability check for diagnostics — PickReplica would
  // consume a half-open probe slot that no try settles.
  if (!all_open && AvailableReplicas() == 0) all_open = true;

  // No fresh answer. Degrade: stale cache first, then the best
  // replica-authored error, then a synthesized status.
  if (stale_->Get(stale_key, &out->body, &out->content_type)) {
    out->stale = true;
    out->status = 200;
    out->replica = -1;
    requests_stale_->Increment();
    if (recorder_ != nullptr) {
      recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kStaleServe,
                        "router", 200, 0, ElapsedMs(start), nullptr,
                        all_open ? "all breakers open; served stale"
                                 : "tries exhausted; served stale");
    }
    return io::Status::Ok();
  }
  if (have_replica_answer) {
    out->status = replica_answer.status;
    out->body = std::move(replica_answer.body);
    const std::string* type = replica_answer.FindHeader("Content-Type");
    out->content_type = type != nullptr ? *type : content_type;
    requests_error_->Increment();
    return io::Status::Ok();
  }
  out->status = deadline_blown ? 504 : 503;
  const char* message = deadline_blown
                            ? "router deadline exceeded"
                            : (all_open ? "all replicas unavailable"
                                        : "no replica answered");
  out->content_type =
      EncodeRouterError(out->status, message, content_type, &out->body);
  requests_error_->Increment();
  return io::Status::Ok();
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
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  workers_ = std::make_unique<serve::ThreadPool>(options_.worker_threads);
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

RouterFrontend::~RouterFrontend() { workers_->Shutdown(); }

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
  if (options_.max_deadline_ms > 0) {
    deadline_ms = std::min(deadline_ms, options_.max_deadline_ms);
  }

  // The router exchange blocks (tries, backoff, hedges) — never on a
  // loop thread.
  const bool submitted = workers_->Submit(
      [this, writer, start, deadline_ms, body = request.body,
       content_type = std::move(content_type)] {
        RouterResult result;
        router_->Exchange("/v1/suggest", body, content_type, deadline_ms,
                          &result);
        HttpResponse response;
        response.status = result.status;
        response.body = std::move(result.body);
        response.content_type = result.content_type;
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
      });
  if (!submitted) {
    HttpResponse response;
    response.status = 503;
    response.body = "{\"error\":\"router shutting down\"}";
    suggest_5xx_->Increment();
    writer.Send(std::move(response));
  }
}

}  // namespace dssddi::net
