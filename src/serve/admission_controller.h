#ifndef DSSDDI_SERVE_ADMISSION_CONTROLLER_H_
#define DSSDDI_SERVE_ADMISSION_CONTROLLER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "serve/request_context.h"

namespace dssddi::serve {

/// Load-shedding gate in front of the serving pipeline. Three
/// independent checks, all observed at admission time:
///
///  - `max_in_flight`: requests admitted but not yet completed. This is
///    the classic token gate — it caps the work (and memory: promises,
///    feature rows, batch slots) a traffic burst can pin at once.
///  - `max_queue_depth`: requests sitting in the batcher queue, not yet
///    cut into a batch by a scoring worker (requests, not batches: one
///    queue, one unit). Queue depth is the earliest congestion
///    signal: once queues grow, every queued request is already paying
///    latency, so it is strictly better to shed new arrivals (HTTP 429)
///    than to let them join a line that can only get longer.
///  - deadline feasibility: a request whose remaining latency budget
///    cannot cover even the observed median service time is already
///    lost — admitting it burns a batch slot to produce an answer the
///    client will have abandoned. These sheds are counted separately
///    (`deadline_shed`, HTTP 504) from the queue-based ones because
///    they indicate *client* budgets out of step with service capacity,
///    not raw overload.
///
/// Either depth bound set to 0 disables that check; a request without a
/// deadline (remaining budget = +infinity) never deadline-sheds. The
/// controller is a pure policy object: the caller supplies the current
/// depths, remaining budget, the observed p50 and the SLO engine's
/// degraded bit (the service reads obs::SloEngine::degraded(), the one
/// copy of that bit, on every arrival), the controller answers
/// admit/shed and counts each decision in the registry's
/// `dssddi_admission_total{decision=...}` series, since only it can tell
/// a degraded shed from a load shed. All methods are lock-free and safe
/// from any thread.
class AdmissionController {
 public:
  struct Options {
    /// Admitted-but-uncompleted ceiling; 0 = unbounded.
    size_t max_in_flight = 0;
    /// Ceiling on queued (not yet cut) requests observed at admission;
    /// 0 = unbounded.
    size_t max_queue_depth = 0;
    /// A deadline-carrying request is shed when its remaining budget is
    /// below `deadline_headroom * observed_p50`. 1.0 sheds requests that
    /// cannot cover the median service time; larger values shed earlier
    /// (more headroom demanded), 0 sheds only already-expired requests.
    double deadline_headroom = 1.0;
    /// Multiplier applied to `deadline_headroom` while the SLO engine
    /// holds the gate in degraded mode: requests must show more slack to
    /// be admitted, so marginal ones are rejected before they queue.
    double degraded_headroom_multiplier = 2.0;
    /// While degraded, shed kBatch-priority arrivals outright (429):
    /// graceful degradation drops the traffic class that asked to be
    /// dropped first, keeping interactive p99 inside its objective.
    bool degraded_shed_batch = true;
  };

  enum class Decision {
    kAdmit,
    kShedLoad,      // in-flight or queue-depth bound hit -> 429
    kShedDeadline,  // remaining budget can't cover service time -> 504
  };

  /// Registers the four decision series in `registry`, which must
  /// outlive the controller.
  AdmissionController(obs::Registry& registry, const Options& options)
      : options_(options),
        admitted_(DecisionCounter(registry, "admitted")),
        shed_load_(DecisionCounter(registry, "shed_load")),
        shed_deadline_(DecisionCounter(registry, "shed_deadline")),
        shed_degraded_(DecisionCounter(registry, "shed_degraded")) {}

  /// Decides one arrival given the current pipeline state. The deadline
  /// check runs first: a doomed request is not "overload" and must not
  /// be retried-after like one. `remaining_budget_ms` is the request's
  /// budget left right now (+infinity when it has no deadline);
  /// `p50_service_ms` is the caller's rolling estimate (0 = unknown, in
  /// which case only already-expired requests are deadline-shed).
  /// `degraded` is the SLO engine's burn-rate state right now (false
  /// without an engine). Counts the decision as a side effect.
  ///
  /// Probing: every kProbeInterval'th estimate-driven shed candidate is
  /// admitted instead. The p50 estimate is refreshed by completions, so
  /// shedding every budget-infeasible request after a latency spike
  /// would freeze a stale-high estimate in place and the 504s would
  /// never stop; the occasional probe completes, pulls the estimate
  /// back down, and reopens the gate. Requests whose budget is already
  /// blown (remaining <= 0) are never probed — they cannot succeed.
  Decision AdmitWithDeadline(size_t in_flight, size_t queue_depth,
                             double remaining_budget_ms,
                             double p50_service_ms,
                             RequestPriority priority =
                                 RequestPriority::kInteractive,
                             bool degraded = false) {
    if (remaining_budget_ms <= 0.0) {
      shed_deadline_->Increment();
      return Decision::kShedDeadline;
    }
    // Degraded mode (the SLO engine's fast burn crossed its threshold):
    // drop the low-priority class first, and demand extra deadline slack
    // from everyone else. Both levers act before the depth bounds —
    // degradation is about protecting the objective, not about queue
    // capacity.
    if (degraded && options_.degraded_shed_batch &&
        priority == RequestPriority::kBatch) {
      shed_degraded_->Increment();
      shed_load_->Increment();
      return Decision::kShedLoad;
    }
    const double headroom =
        degraded ? options_.deadline_headroom * options_.degraded_headroom_multiplier
                 : options_.deadline_headroom;
    if (remaining_budget_ms < headroom * p50_service_ms) {
      const uint64_t nth =
          probe_candidates_.fetch_add(1, std::memory_order_relaxed);
      if (nth % kProbeInterval != kProbeInterval - 1) {
        shed_deadline_->Increment();
        return Decision::kShedDeadline;
      }
      // Probe: fall through to the depth bounds like any admission.
    }
    if ((options_.max_in_flight > 0 && in_flight >= options_.max_in_flight) ||
        (options_.max_queue_depth > 0 &&
         queue_depth >= options_.max_queue_depth)) {
      shed_load_->Increment();
      return Decision::kShedLoad;
    }
    admitted_->Increment();
    return Decision::kAdmit;
  }

  /// Depth-bounds-only flavor for callers without request deadlines.
  bool Admit(size_t in_flight, size_t queue_depth) {
    return AdmitWithDeadline(in_flight, queue_depth,
                             std::numeric_limits<double>::infinity(),
                             0.0) == Decision::kAdmit;
  }

  /// Cumulative decisions, read back from the registry series. Load
  /// sheds (429) and deadline sheds (504) are counted separately;
  /// `degraded_shed` counts kBatch arrivals shed while degraded, a subset
  /// of `shed`: the measured cost of graceful degradation.
  uint64_t admitted() const { return admitted_->Value(); }
  uint64_t shed() const { return shed_load_->Value(); }
  uint64_t deadline_shed() const { return shed_deadline_->Value(); }
  uint64_t degraded_shed() const { return shed_degraded_->Value(); }

  const Options& options() const { return options_; }
  bool enabled() const {
    return options_.max_in_flight > 0 || options_.max_queue_depth > 0;
  }

 private:
  static constexpr uint64_t kProbeInterval = 16;

  static obs::Counter* DecisionCounter(obs::Registry& registry,
                                       const char* decision) {
    return registry.GetCounter("dssddi_admission_total",
                               "Admission gate outcomes, by decision",
                               {{"decision", decision}});
  }

  Options options_;
  obs::Counter* admitted_;
  obs::Counter* shed_load_;
  obs::Counter* shed_deadline_;
  obs::Counter* shed_degraded_;
  std::atomic<uint64_t> probe_candidates_{0};
};

}  // namespace dssddi::serve

#endif  // DSSDDI_SERVE_ADMISSION_CONTROLLER_H_
