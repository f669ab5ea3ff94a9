#ifndef DSSDDI_OBS_SLO_H_
#define DSSDDI_OBS_SLO_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace dssddi::obs {

/// SLO burn-rate engine (Google SRE Workbook, multi-window multi-burn-
/// rate alerting, applied in-process): declarative objectives evaluated
/// against the registry's existing histograms and counters over sliding
/// windows, with a `degraded` output the admission controller consumes.
///
/// An objective defines what fraction of events must be "good" (e.g.
/// 99% of /v1/suggest requests under 50 ms; 99.9% of responses non-5xx).
/// The error budget is 1 - target; the burn rate over a window is
/// (observed bad fraction) / budget — burn 1.0 spends the budget exactly
/// at the sustainable rate, burn 14.4 exhausts a 30-day budget in ~2
/// days. The engine samples cumulative counts every tick, diffs against
/// the sample one window back (5m fast / 1h slow by default), and enters
/// `degraded` when any objective's fast burn reaches 14.4, exiting —
/// with hysteresis — only when every fast burn has fallen below 1.0,
/// i.e. after the window clears.

/// One declarative objective.
struct SloObjective {
  enum class Kind {
    /// Good = request latency <= threshold_ms, from
    /// dssddi_request_latency_ms{route=...}. The threshold snaps to the
    /// containing histogram bucket's upper bound (<= +25% coarse).
    kLatency,
    /// Good = response class != 5xx, from
    /// dssddi_http_responses_total{route=...,class=...}.
    kAvailability,
  };
  std::string name;    // e.g. "suggest-latency-p99"
  Kind kind = Kind::kLatency;
  std::string route = "/v1/suggest";
  double threshold_ms = 250.0;  // latency objectives only
  /// Required good fraction: 0.99 = "p99 under threshold", 0.999 =
  /// "three nines availability".
  double target = 0.99;
};

struct SloEngineOptions {
  std::vector<SloObjective> objectives;
  /// Multi-window burn evaluation: the fast window triggers, the slow
  /// window contextualizes (/sloz reports both).
  std::chrono::seconds fast_window{std::chrono::minutes(5)};
  std::chrono::seconds slow_window{std::chrono::hours(1)};
  /// Cadence of the background evaluator thread (ignored by manual
  /// Tick calls, which tests use for determinism).
  std::chrono::milliseconds tick_period{1000};
  /// Spawn the evaluator thread. Tests disable it and drive Tick.
  bool start_thread = true;
};

/// Default objectives for the suggest route: p99 latency and
/// three-nines availability.
std::vector<SloObjective> DefaultSuggestObjectives(double p99_threshold_ms);

/// Point-in-time objective evaluation (also the /sloz row shape).
struct SloStatus {
  std::string name;
  SloObjective::Kind kind = SloObjective::Kind::kLatency;
  std::string route;
  double threshold_ms = 0.0;
  double target = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  /// Cumulative totals since process start (not windowed).
  uint64_t good = 0;
  uint64_t total = 0;
  /// Windowed event counts behind fast_burn, for debuggability.
  uint64_t fast_window_bad = 0;
  uint64_t fast_window_total = 0;
};

class SloEngine {
 public:
  /// `on_degraded_change` fires on every enter/exit transition (from the
  /// evaluating thread — the Tick caller or the background thread).
  /// `recorder` (optional) gets a warning/info event per transition.
  /// Metric handles resolve get-or-create in `registry`, so the engine
  /// can be built before or after the frontend registers the same
  /// families — both get the same instances.
  SloEngine(std::shared_ptr<Registry> registry, SloEngineOptions options,
            std::function<void(bool degraded)> on_degraded_change = nullptr,
            std::shared_ptr<FlightRecorder> recorder = nullptr);
  ~SloEngine();
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// One evaluation pass at `now`. Thread-safe; tests call it with
  /// synthetic timestamps for deterministic window arithmetic.
  void Tick(std::chrono::steady_clock::time_point now);

  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  /// Enter + exit transitions, read from dssddi_slo_transitions_total.
  uint64_t transitions() const {
    return enter_transitions_->Value() + exit_transitions_->Value();
  }

  /// /sloz payload: engine config, degraded state, per-objective burns.
  std::string RenderSlozJson() const;

  std::vector<SloStatus> Status() const;
  const SloEngineOptions& options() const { return options_; }

 private:
  struct Source {
    // Latency: the route histogram + the snapped good-bucket ceiling.
    Histogram* histogram = nullptr;
    int good_bucket_limit = 0;  // cumulative buckets [0, limit] are good
    // Availability: per-class counters.
    Counter* responses_2xx = nullptr;
    Counter* responses_4xx = nullptr;
    Counter* responses_5xx = nullptr;
  };
  struct Sample {
    std::chrono::steady_clock::time_point time;
    std::vector<std::pair<uint64_t, uint64_t>> good_total;
  };

  void ReadCumulative(std::vector<std::pair<uint64_t, uint64_t>>* out) const;
  void RunLoop();

  std::shared_ptr<Registry> registry_;
  SloEngineOptions options_;
  std::function<void(bool)> on_degraded_change_;
  std::shared_ptr<FlightRecorder> recorder_;
  std::vector<Source> sources_;
  Gauge* degraded_gauge_ = nullptr;
  Counter* enter_transitions_ = nullptr;
  Counter* exit_transitions_ = nullptr;

  std::atomic<bool> degraded_{false};

  mutable std::mutex mutex_;  // samples_ + status_
  std::deque<Sample> samples_;
  std::vector<SloStatus> status_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread ticker_;
};

}  // namespace dssddi::obs

#endif  // DSSDDI_OBS_SLO_H_
