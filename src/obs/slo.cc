#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace dssddi::obs {

namespace {

constexpr double kMinBudget = 1e-9;  // target == 1.0 still yields finite burns
/// Enter degraded when any fast-window burn >= this. 14.4 is the SRE
/// Workbook's page-worthy fast burn (2% of a 30-day budget in 1h).
constexpr double kFastBurnEnter = 14.4;
/// Exit degraded when every fast-window burn < this (hysteresis).
constexpr double kFastBurnExit = 1.0;

const char* KindName(SloObjective::Kind kind) {
  return kind == SloObjective::Kind::kLatency ? "latency" : "availability";
}

/// burn = windowed bad fraction / error budget.
double BurnRate(uint64_t window_bad, uint64_t window_total, double target) {
  if (window_total == 0) return 0.0;
  const double bad_fraction =
      static_cast<double>(window_bad) / static_cast<double>(window_total);
  const double budget = std::max(kMinBudget, 1.0 - target);
  return bad_fraction / budget;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

std::vector<SloObjective> DefaultSuggestObjectives(double p99_threshold_ms) {
  SloObjective latency;
  latency.name = "suggest-latency-p99";
  latency.kind = SloObjective::Kind::kLatency;
  latency.route = "/v1/suggest";
  latency.threshold_ms = p99_threshold_ms;
  latency.target = 0.99;
  SloObjective availability;
  availability.name = "suggest-availability";
  availability.kind = SloObjective::Kind::kAvailability;
  availability.route = "/v1/suggest";
  availability.target = 0.999;
  return {latency, availability};
}

SloEngine::SloEngine(std::shared_ptr<Registry> registry,
                     SloEngineOptions options,
                     std::function<void(bool)> on_degraded_change,
                     std::shared_ptr<FlightRecorder> recorder)
    : registry_(std::move(registry)),
      options_(std::move(options)),
      on_degraded_change_(std::move(on_degraded_change)),
      recorder_(std::move(recorder)) {
  sources_.reserve(options_.objectives.size());
  for (const SloObjective& objective : options_.objectives) {
    Source source;
    if (objective.kind == SloObjective::Kind::kLatency) {
      // Get-or-create resolves to the very histogram the frontend
      // records into for this route (same name + labels), whether the
      // engine or the frontend registers first.
      source.histogram = registry_->GetHistogram(
          "dssddi_request_latency_ms",
          "Handler-observed latency (dispatch to response send) in "
          "milliseconds, by route",
          {{"route", objective.route}});
      source.good_bucket_limit = BucketIndex(objective.threshold_ms);
    } else {
      const char* help = "HTTP responses by route and status class";
      source.responses_2xx = registry_->GetCounter(
          "dssddi_http_responses_total", help,
          {{"route", objective.route}, {"class", "2xx"}});
      source.responses_4xx = registry_->GetCounter(
          "dssddi_http_responses_total", help,
          {{"route", objective.route}, {"class", "4xx"}});
      source.responses_5xx = registry_->GetCounter(
          "dssddi_http_responses_total", help,
          {{"route", objective.route}, {"class", "5xx"}});
    }
    sources_.push_back(source);
  }
  degraded_gauge_ = registry_->GetGauge(
      "dssddi_slo_degraded",
      "1 while the SLO engine holds the pipeline in degraded mode");
  enter_transitions_ = registry_->GetCounter(
      "dssddi_slo_transitions_total", "Degraded-mode transitions, by state",
      {{"state", "degraded"}});
  exit_transitions_ = registry_->GetCounter(
      "dssddi_slo_transitions_total", "Degraded-mode transitions, by state",
      {{"state", "ok"}});

  // Seed the sample ring so the first real tick has an anchor.
  Tick(std::chrono::steady_clock::now());
  if (options_.start_thread) {
    ticker_ = std::thread([this] { RunLoop(); });
  }
}

SloEngine::~SloEngine() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

void SloEngine::RunLoop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_) {
    stop_cv_.wait_for(lock, options_.tick_period, [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    Tick(std::chrono::steady_clock::now());
    lock.lock();
  }
}

void SloEngine::ReadCumulative(
    std::vector<std::pair<uint64_t, uint64_t>>* out) const {
  out->clear();
  out->reserve(sources_.size());
  for (const Source& source : sources_) {
    uint64_t good = 0;
    uint64_t total = 0;
    if (source.histogram != nullptr) {
      const HistogramSnapshot snap = source.histogram->Snapshot();
      total = snap.count;
      for (int b = 0; b <= source.good_bucket_limit && b < kNumBuckets; ++b) {
        good += snap.buckets[static_cast<size_t>(b)];
      }
    } else {
      const uint64_t ok2 = source.responses_2xx->Value();
      const uint64_t ok4 = source.responses_4xx->Value();
      const uint64_t bad5 = source.responses_5xx->Value();
      total = ok2 + ok4 + bad5;
      good = ok2 + ok4;
    }
    out->emplace_back(good, total);
  }
}

void SloEngine::Tick(std::chrono::steady_clock::time_point now) {
  Sample sample;
  sample.time = now;
  ReadCumulative(&sample.good_total);

  bool entered = false;
  bool exited = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Monotonic guard: a Tick with an older timestamp than the ring's
    // back (racing manual + background tickers) is evaluated against the
    // existing ring but not inserted out of order.
    if (samples_.empty() || now >= samples_.back().time) {
      samples_.push_back(sample);
    }
    // Prune: keep exactly one sample at-or-beyond the slow window as the
    // diff anchor.
    const auto slow_horizon = now - options_.slow_window;
    while (samples_.size() >= 2 && samples_[1].time <= slow_horizon) {
      samples_.pop_front();
    }

    // Newest sample no newer than `horizon`, falling back to the oldest
    // retained (partial window at startup).
    const auto anchor_for = [this](std::chrono::steady_clock::time_point horizon)
        -> const Sample& {
      const Sample* anchor = &samples_.front();
      for (const Sample& candidate : samples_) {
        if (candidate.time > horizon) break;
        anchor = &candidate;
      }
      return *anchor;
    };
    const Sample& fast_anchor = anchor_for(now - options_.fast_window);
    const Sample& slow_anchor = anchor_for(now - options_.slow_window);

    status_.clear();
    bool any_enter = false;
    bool all_exit = true;
    for (size_t i = 0; i < options_.objectives.size(); ++i) {
      const SloObjective& objective = options_.objectives[i];
      SloStatus status;
      status.name = objective.name;
      status.kind = objective.kind;
      status.route = objective.route;
      status.threshold_ms =
          objective.kind == SloObjective::Kind::kLatency
              ? BucketUpperBound(sources_[i].good_bucket_limit)
              : 0.0;
      status.target = objective.target;
      status.good = sample.good_total[i].first;
      status.total = sample.good_total[i].second;

      const auto windowed = [&](const Sample& anchor, uint64_t* bad,
                                uint64_t* total) {
        const uint64_t d_total =
            sample.good_total[i].second - anchor.good_total[i].second;
        const uint64_t d_good =
            sample.good_total[i].first - anchor.good_total[i].first;
        *total = d_total;
        *bad = d_total >= d_good ? d_total - d_good : 0;
      };
      uint64_t fast_bad = 0, fast_total = 0, slow_bad = 0, slow_total = 0;
      windowed(fast_anchor, &fast_bad, &fast_total);
      windowed(slow_anchor, &slow_bad, &slow_total);
      status.fast_window_bad = fast_bad;
      status.fast_window_total = fast_total;
      status.fast_burn = BurnRate(fast_bad, fast_total, objective.target);
      status.slow_burn = BurnRate(slow_bad, slow_total, objective.target);

      if (status.fast_burn >= kFastBurnEnter) any_enter = true;
      if (status.fast_burn >= kFastBurnExit) all_exit = false;
      status_.push_back(std::move(status));
    }

    const bool was_degraded = degraded_.load(std::memory_order_relaxed);
    if (!was_degraded && any_enter) {
      degraded_.store(true, std::memory_order_relaxed);
      entered = true;
    } else if (was_degraded && all_exit) {
      degraded_.store(false, std::memory_order_relaxed);
      exited = true;
    }
  }

  if (entered || exited) {
    degraded_gauge_->Set(entered ? 1.0 : 0.0);
    (entered ? enter_transitions_ : exit_transitions_)->Increment();
    if (recorder_) {
      recorder_->Record(
          entered ? LogSeverity::kWarning : LogSeverity::kInfo,
          LogReason::kSloTransition, "slo", 0, 0, 0.0, nullptr,
          entered ? "entered degraded mode (fast burn over threshold)"
                  : "exited degraded mode (fast window cleared)");
    }
    if (on_degraded_change_) on_degraded_change_(entered);
  }
}

std::vector<SloStatus> SloEngine::Status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

std::string SloEngine::RenderSlozJson() const {
  const bool degraded = degraded_.load(std::memory_order_relaxed);
  const std::vector<SloStatus> status = Status();
  std::string out = "{\"degraded\":";
  out += degraded ? "true" : "false";
  out += ",\"fast_window_seconds\":";
  out += std::to_string(options_.fast_window.count());
  out += ",\"slow_window_seconds\":";
  out += std::to_string(options_.slow_window.count());
  out += ",\"fast_burn_enter\":";
  AppendDouble(&out, kFastBurnEnter);
  out += ",\"fast_burn_exit\":";
  AppendDouble(&out, kFastBurnExit);
  out += ",\"transitions\":";
  out += std::to_string(transitions());
  out += ",\"objectives\":[";
  for (size_t i = 0; i < status.size(); ++i) {
    const SloStatus& s = status[i];
    if (i != 0) out += ',';
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"kind\":\"";
    out += KindName(s.kind);
    out += "\",\"route\":\"";
    out += s.route;
    out += "\",\"target\":";
    AppendDouble(&out, s.target);
    if (s.kind == SloObjective::Kind::kLatency) {
      out += ",\"threshold_ms\":";
      AppendDouble(&out, s.threshold_ms);
    }
    out += ",\"fast_burn\":";
    AppendDouble(&out, s.fast_burn);
    out += ",\"slow_burn\":";
    AppendDouble(&out, s.slow_burn);
    out += ",\"fast_window_bad\":";
    out += std::to_string(s.fast_window_bad);
    out += ",\"fast_window_total\":";
    out += std::to_string(s.fast_window_total);
    out += ",\"good\":";
    out += std::to_string(s.good);
    out += ",\"total\":";
    out += std::to_string(s.total);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace dssddi::obs
