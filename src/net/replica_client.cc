#include "net/replica_client.h"

#include <algorithm>
#include <utility>

namespace dssddi::net {
namespace {

/// Connect + per-socket recv/send timeout handed to HttpClient.
constexpr int kConnectTimeoutMs = 2000;
/// Idle keep-alive connections retained for reuse.
constexpr size_t kMaxPool = 4;

PipelinedClientOptions PipelinedOptions(const ReplicaClientOptions& options) {
  PipelinedClientOptions pipelined;
  pipelined.host = options.host;
  pipelined.port = options.port;
  return pipelined;
}

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kHalfOpen: return "half_open";
    case BreakerState::kOpen: return "open";
  }
  return "unknown";
}

// ---------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options) {
  if (options_.window < 1) options_.window = 1;
  if (options_.min_volume < 1) options_.min_volume = 1;
  if (options_.min_volume > options_.window) {
    options_.min_volume = options_.window;
  }
  outcomes_.assign(static_cast<size_t>(options_.window), 0);
}

void CircuitBreaker::set_transition_hook(TransitionHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  hook_ = std::move(hook);
}

void CircuitBreaker::TransitionLocked(BreakerState to) {
  if (state_ == to) return;
  const BreakerState from = state_;
  state_ = to;
  ++epoch_;  // invalidate tokens admitted under the previous state
  if (to == BreakerState::kOpen) {
    opened_at_ = std::chrono::steady_clock::now();
    probes_in_flight_ = 0;
  } else if (to == BreakerState::kHalfOpen) {
    probes_in_flight_ = 0;
  } else {  // kClosed: forgive history
    std::fill(outcomes_.begin(), outcomes_.end(), 0);
    outcome_pos_ = 0;
    outcome_count_ = 0;
    failures_ = 0;
  }
  if (hook_) hook_(from, to);
}

void CircuitBreaker::PushOutcomeLocked(bool failure) {
  failures_ -= outcomes_[outcome_pos_];
  outcomes_[outcome_pos_] = failure ? 1 : 0;
  failures_ += outcomes_[outcome_pos_];
  outcome_pos_ = (outcome_pos_ + 1) % outcomes_.size();
  if (outcome_count_ < outcomes_.size()) ++outcome_count_;
}

uint64_t CircuitBreaker::Admit() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return epoch_;
    case BreakerState::kOpen: {
      const auto now = std::chrono::steady_clock::now();
      if (now - opened_at_ <
          std::chrono::milliseconds(options_.open_cooldown_ms)) {
        return 0;
      }
      TransitionLocked(BreakerState::kHalfOpen);
      ++probes_in_flight_;
      return epoch_;
    }
    case BreakerState::kHalfOpen:
      if (probes_in_flight_ > 0) return 0;
      ++probes_in_flight_;
      return epoch_;
  }
  return 0;
}

void CircuitBreaker::RecordSuccess(uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A stale token is a straggler from before a state transition (e.g. a
  // closed-era try completing after open → half-open): its outcome must
  // not drive the current probe, so it is ignored.
  if (token != epoch_) return;
  if (state_ == BreakerState::kHalfOpen) {
    // One probe success closes the breaker.
    TransitionLocked(BreakerState::kClosed);
    return;
  }
  if (state_ == BreakerState::kClosed) PushOutcomeLocked(false);
}

void CircuitBreaker::RecordFailure(uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (token != epoch_) return;  // straggler from an earlier era
  if (state_ == BreakerState::kHalfOpen) {
    if (probes_in_flight_ > 0) --probes_in_flight_;
    TransitionLocked(BreakerState::kOpen);
    return;
  }
  if (state_ != BreakerState::kClosed) return;
  PushOutcomeLocked(true);
  if (outcome_count_ >= static_cast<size_t>(options_.min_volume) &&
      static_cast<double>(failures_) >=
          options_.failure_threshold * static_cast<double>(outcome_count_)) {
    TransitionLocked(BreakerState::kOpen);
  }
}

void CircuitBreaker::Abandon(uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (token != epoch_) return;
  if (state_ == BreakerState::kHalfOpen && probes_in_flight_ > 0) {
    --probes_in_flight_;
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

// ---------------------------------------------------------------------
// ReplicaClient
// ---------------------------------------------------------------------

ReplicaClient::ReplicaClient(const ReplicaClientOptions& options)
    : options_(options),
      name_(options.host + ":" + std::to_string(options.port)),
      breaker_(options.breaker),
      pipelined_(PipelinedOptions(options)) {}

std::unique_ptr<HttpClient> ReplicaClient::Acquire(io::Status* status,
                                                   bool* from_pool) {
  *from_pool = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!pool_.empty()) {
      auto client = std::move(pool_.back());
      pool_.pop_back();
      *status = io::Status::Ok();
      *from_pool = true;
      return client;
    }
  }
  auto client = std::make_unique<HttpClient>();
  *status = client->Connect(options_.host, options_.port, kConnectTimeoutMs);
  if (!status->ok) return nullptr;
  return client;
}

void ReplicaClient::Release(std::unique_ptr<HttpClient> client,
                            bool reusable) {
  if (!reusable || client == nullptr || !client->connected()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_.size() < kMaxPool) pool_.push_back(std::move(client));
}

io::Status ReplicaClient::Exchange(const std::string& method,
                                   const std::string& target,
                                   const std::string& body,
                                   const ClientRequestOptions& options,
                                   ClientResponse* out, uint64_t admission) {
  io::Status status;
  bool from_pool = false;
  std::unique_ptr<HttpClient> client = Acquire(&status, &from_pool);
  if (client == nullptr) {
    breaker_.RecordFailure(admission);
    return io::Status::Error("connect " + name_ + ": " + status.message);
  }
  status = client->Request(method, target, body, options, out);
  if (!status.ok && from_pool &&
      status.message.find("deadline") == std::string::npos &&
      status.message.find("cancelled") == std::string::npos) {
    // An idle pooled connection may have been reaped by the server
    // between exchanges; redo the try once on a fresh socket before
    // charging the replica with a failure. Deadline/cancel aborts are
    // excluded — redoing those would double the per-try budget.
    auto fresh = std::make_unique<HttpClient>();
    const io::Status connected =
        fresh->Connect(options_.host, options_.port, kConnectTimeoutMs);
    if (connected.ok) {
      status = fresh->Request(method, target, body, options, out);
      client = std::move(fresh);
    }
  }
  if (!status.ok) {
    if (status.message.find("cancelled") != std::string::npos) {
      // The caller aborted the try (hedge loser, request deadline) —
      // the replica did nothing wrong, so the outcome is neutral. A
      // burst of tight-deadline cancellations must never open breakers
      // on a healthy cluster.
      breaker_.Abandon(admission);
    } else {
      breaker_.RecordFailure(admission);
    }
    return io::Status::Error(name_ + ": " + status.message);
  }
  // Any parsed response means the replica is alive; only 5xx counts
  // against it (429/504 are policy answers, not replica faults).
  if (out->status >= 500) {
    breaker_.RecordFailure(admission);
  } else {
    breaker_.RecordSuccess(admission);
  }
  Release(std::move(client), out->keep_alive);
  return io::Status::Ok();
}

}  // namespace dssddi::net
