#ifndef DSSDDI_OBS_TRACE_H_
#define DSSDDI_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dssddi::obs {

/// Per-request tracing for the serving pipeline. A sampled request gets a
/// heap Trace that every layer stamps through RAII TraceSpans; when the
/// last reference drops (after the response is serialized and sent, on
/// whichever thread that happens), the trace finalizes: total and
/// per-stage durations feed the stage histograms, and the trace is
/// offered to a bounded ring that keeps the N slowest and the N most
/// recent errored traces for /tracez.
///
/// The non-sampled path is the one that matters for throughput, and it is
/// engineered to cost nothing: an unsampled request carries a null
/// shared_ptr<Trace>, every TraceSpan on it skips both clock reads, and
/// no allocation happens anywhere (tests assert this with an
/// allocation-counting hook).

// ---------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------

/// Pipeline stages in request order. Kept in one enum (rather than
/// free-form strings) so a Trace stores durations in a fixed array —
/// stamping a span is two clock reads and an add, never a map touch.
enum class Stage : int {
  kHttpParse = 0,   // request line + headers + body decode
  kAdmission,       // admission-control decision
  kQueueWait,       // enqueue to batch-formation pickup
  kBatchForm,       // urgency sort + batch assembly
  kExpirySweep,     // deadline sweep that expired the request (504s only)
  kGemm,            // dense kernel time inside PredictScores
  kEpilogue,        // top-k suggestion build from scores
  kExplain,         // Medical Support explanation of the suggestion
  kSerialize,       // response encode (JSON or binary frame)
  kStageCount,
};
inline constexpr int kNumStages = static_cast<int>(Stage::kStageCount);

/// Stable lower_snake_case stage name (metric label / JSON key).
const char* StageName(Stage stage);

// ---------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------

/// One sampled request's record. Stage durations are relaxed atomics
/// because different pipeline threads stamp different stages (dispatch
/// loop stamps queue_wait/gemm, the worker stamps epilogue/explain, the
/// event loop stamps serialize) — stages never race on the same slot, but the
/// finalizing reader needs a defined read.
struct Trace {
  using Clock = std::chrono::steady_clock;

  uint64_t trace_id = 0;
  const char* route = "";
  Clock::time_point start = Clock::now();
  std::array<std::atomic<uint64_t>, kNumStages> stage_ns{};
  std::atomic<int> status = 200;
  std::atomic<uint64_t> total_ns = 0;  // set at finalize

  void AddStageNs(Stage stage, uint64_t ns) {
    stage_ns[static_cast<size_t>(stage)].fetch_add(ns,
                                                   std::memory_order_relaxed);
  }
  uint64_t StageNs(Stage stage) const {
    return stage_ns[static_cast<size_t>(stage)].load(
        std::memory_order_relaxed);
  }
  void SetStatus(int code) { status.store(code, std::memory_order_relaxed); }
};

/// RAII stage timer. Constructed on a null trace it is a complete no-op:
/// no clock read at either end. `ns` values can also be stamped directly
/// via Trace::AddStageNs when the duration was measured out-of-band
/// (batch-wide sweep/formation cost, kernel time attribution).
class TraceSpan {
 public:
  explicit TraceSpan(Trace* trace, Stage stage) : trace_(trace), stage_(stage) {
    if (trace_ != nullptr) start_ = Trace::Clock::now();
  }
  TraceSpan(const std::shared_ptr<Trace>& trace, Stage stage)
      : TraceSpan(trace.get(), stage) {}
  ~TraceSpan() { Stop(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early (idempotent).
  void Stop() {
    if (trace_ == nullptr) return;
    const auto elapsed = Trace::Clock::now() - start_;
    trace_->AddStageNs(
        stage_, static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
    trace_ = nullptr;
  }

 private:
  Trace* trace_;
  Stage stage_;
  Trace::Clock::time_point start_;
};

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

/// Head-based 1-in-N sampling state for one route. every == 0 disables
/// sampling entirely, every == 1 traces every request.
class TraceSampler {
 public:
  void set_every(uint32_t every) {
    every_.store(every, std::memory_order_relaxed);
  }
  uint32_t every() const { return every_.load(std::memory_order_relaxed); }

  bool Sample() {
    const uint32_t every = every_.load(std::memory_order_relaxed);
    if (every == 0) return false;
    if (every == 1) return true;
    return counter_.fetch_add(1, std::memory_order_relaxed) % every == 0;
  }

 private:
  std::atomic<uint32_t> every_{0};
  std::atomic<uint64_t> counter_{0};
};

/// Finalized-trace copy kept for /tracez (plain data, no atomics).
struct TraceRecord {
  uint64_t trace_id = 0;
  std::string route;
  int status = 200;
  uint64_t total_ns = 0;
  std::array<uint64_t, kNumStages> stage_ns{};
};

/// Owns sampling, the per-stage histograms, and the retention rings.
/// Held by shared_ptr: each live Trace's finalizer keeps the collector
/// alive, so completions that outlive service teardown stay safe.
class TraceCollector : public std::enable_shared_from_this<TraceCollector> {
 public:
  /// `registry` may outlive or be shared with the collector (the service
  /// owns both); per-stage histograms and trace counters register there.
  /// `ring_capacity` bounds both the slowest ring and the error ring.
  explicit TraceCollector(std::shared_ptr<Registry> registry,
                          size_t ring_capacity = 32);

  /// Sampler handle for a route; stable for the collector's lifetime.
  /// Callers cache the pointer and pass it back to MaybeStartTrace.
  TraceSampler* SamplerForRoute(const std::string& route);

  /// Null (allocation-free) when the sampler declines; otherwise a Trace
  /// whose last shared_ptr release finalizes it into histograms + rings.
  std::shared_ptr<Trace> MaybeStartTrace(TraceSampler* sampler,
                                         const char* route, uint64_t trace_id);

  /// /tracez payload: {"slowest": [...], "errors": [...]} sorted by
  /// total duration descending / most recent first.
  std::string RenderTracezJson() const;

  size_t ring_capacity() const { return ring_capacity_; }
  std::vector<TraceRecord> SlowestForTest() const;

 private:
  void Finalize(Trace* trace);

  std::shared_ptr<Registry> registry_;
  const size_t ring_capacity_;
  std::array<Histogram*, kNumStages> stage_histograms_{};
  Counter* traces_sampled_ = nullptr;
  Counter* traces_errored_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceSampler>> samplers_;  // with names below
  std::vector<std::string> sampler_routes_;
  // Slowest ring: min-heap ordered vector (heap root = smallest total) so
  // an incoming trace only competes with the current minimum.
  std::vector<TraceRecord> slowest_;
  std::deque<TraceRecord> errors_;  // FIFO of most recent errored traces
};

}  // namespace dssddi::obs

#endif  // DSSDDI_OBS_TRACE_H_
