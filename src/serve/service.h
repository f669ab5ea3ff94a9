#ifndef DSSDDI_SERVE_SERVICE_H_
#define DSSDDI_SERVE_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dssddi_system.h"
#include "core/ms_module.h"
#include "io/inference_bundle.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/admission_controller.h"
#include "serve/explanation_memo.h"
#include "serve/latency_tracker.h"
#include "serve/request_batcher.h"
#include "serve/request_context.h"
#include "serve/suggestion_cache.h"
#include "util/stopwatch.h"

namespace dssddi::serve {

struct ServiceOptions {
  /// Scoring threads; each cuts its own batch from the request queue
  /// whenever it is free. 0 uses the hardware concurrency.
  int num_threads = 0;
  /// Micro-batch ceiling; 1 disables batching (one matrix pass per request).
  int max_batch_size = 32;
  /// Total cached suggestions across shards; 0 disables the cache (and
  /// with it in-flight coalescing, which rides on the same keys).
  size_t cache_capacity = 4096;
  int cache_shards = 8;
  /// How many slowest traces (and how many recent errored traces) the
  /// /tracez ring retains.
  size_t trace_ring_capacity = 32;
  /// Load-shedding bounds applied by TrySubmitAsync (both 0 = admit
  /// everything; Submit/SubmitAsync always bypass admission).
  AdmissionController::Options admission;
  /// Scoring arithmetic for the initial bundle: "auto" follows the
  /// process-wide mode (DSSDDI_QUANTIZE / kernels::SetQuantMode),
  /// "none"/"float" pins the float kernels, "int8" pins the quantized
  /// path. Reload decides per incoming bundle (see /admin/reload's
  /// "quantize" field), so the mode can be flipped live.
  std::string quantization = "auto";
  /// Flight-recorder ring (wide events at completion + every error
  /// path), served at /logz. Always on — recording is lock-free and
  /// allocation-free, so there is nothing to turn off.
  obs::FlightRecorderOptions flight_recorder;
  /// SLO engine: burn-rate evaluation of declarative objectives, with a
  /// degraded output wired into the admission controller. Empty
  /// `slo.objectives` uses DefaultSuggestObjectives(slo_default_p99_ms).
  /// `slo_enabled = false` skips the engine entirely (no thread, the
  /// gate never degrades).
  bool slo_enabled = true;
  double slo_default_p99_ms = 250.0;
  obs::SloEngineOptions slo;
};

/// Point-in-time service health snapshot. A read-only view: every count
/// and live gauge below is read from the service's metrics registry (the
/// same series /metricsz renders), and the rest describes the served
/// model snapshot. No field has storage of its own in the service.
struct ServiceStats {
  uint64_t requests = 0;       // accepted by Submit
  uint64_t completed = 0;      // completions fired
  uint64_t batches = 0;        // matrix passes dispatched
  double mean_batch_size = 0.0;  // rows scored / batches
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  /// Requests that attached to an identical in-flight query instead of
  /// being scored again (singleflight coalescing).
  uint64_t coalesced = 0;
  /// Explained answers whose explanation was read from the model
  /// snapshot's memo (hit) or computed by the explainer (miss).
  uint64_t explain_memo_hits = 0;
  uint64_t explain_memo_misses = 0;
  /// Admission gate outcomes (TrySubmitAsync callers only). Load sheds
  /// (`shed`, depth bounds -> 429) and deadline sheds (`deadline_shed`,
  /// remaining budget < observed p50 -> 504) are counted separately.
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deadline_shed = 0;
  /// kBatch arrivals shed because the SLO engine held the gate degraded
  /// (subset of `shed`), plus the gate's current degraded state.
  uint64_t degraded_shed = 0;
  bool slo_degraded = false;
  /// Requests dropped after admission because their deadline passed
  /// before scoring started (the cut's expiry sweep; completed
  /// with DeadlineExceeded, never scored, never a batch slot).
  uint64_t expired = 0;
  /// Accepted requests not yet completed / queued and not yet cut into a
  /// batch, at the instant of the snapshot.
  uint64_t in_flight = 0;
  uint64_t queue_depth = 0;
  /// Model snapshot bookkeeping: version starts at 1 and increases by
  /// one per successful hot reload.
  uint64_t model_version = 0;
  uint64_t reloads = 0;
  double uptime_seconds = 0.0;
  double qps = 0.0;            // completed / uptime
  double p50_latency_ms = 0.0;
  double p90_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;  // over the latency window
  int num_threads = 0;
  /// Active GEMM backend ("reference" / "blocked") scoring every batch,
  /// so perf numbers are never attributed to the wrong kernel.
  std::string gemm_backend;
  /// Scoring arithmetic of the current snapshot: "none" (float) or
  /// "int8" — snapshot-resolved, so it reports what is actually served
  /// even while the process-wide mode is being flipped.
  std::string quantization;
  /// Per-layer max |w - dequant(quant(w))| across the served MLPs
  /// (patient encoder layers first, then decoder layers). Empty when
  /// serving the float path.
  std::vector<double> quant_layer_max_abs_error;
  /// Provenance of the served bundle: "v4" (flat mmap file) or "memory"
  /// (assembled in process, never loaded from disk).
  std::string bundle_format;
  /// Wall-clock cost of the load that produced the served bundle, and
  /// the bytes it holds mapped (0 for in-process bundles).
  double bundle_load_ms = 0.0;
  uint64_t bundle_bytes_mapped = 0;
};

/// One immutable, shareable model generation: the frozen bundle plus the
/// Medical Support explainer built over its DDI graph, and the memo of
/// that explainer's answers. In-flight batches pin the snapshot they
/// score against via shared_ptr, so a hot reload never pulls weights out
/// from under a request, and drops the memo with the old model.
struct ModelSnapshot {
  io::InferenceBundle bundle;
  core::MsModule ms;  // references bundle.ddi; must stay declared after it
  /// Memo of ms.Explain (references ms, so declared after it). Filling
  /// it changes no answer, so a const snapshot may fill it.
  mutable ExplanationMemo explanation_memo;
  uint64_t version = 1;

  ModelSnapshot(io::InferenceBundle b, uint64_t v)
      : bundle(std::move(b)),
        // A v4 bundle carries its interaction skeleton as a CSR view
        // into the mapping (pinned by bundle.mapping, which this
        // snapshot owns), so the explainer is built without re-sorting
        // the DDI edges; in-process bundles derive it here.
        ms(bundle.has_ms_skeleton
               ? core::MsModule(
                     bundle.ddi, bundle.ms_skeleton, bundle.ms_alpha,
                     static_cast<core::ExplainerKind>(bundle.ms_explainer))
               : core::MsModule(
                     bundle.ddi, bundle.ms_alpha,
                     static_cast<core::ExplainerKind>(bundle.ms_explainer))),
        explanation_memo(ms),
        version(v) {
    // Pin the quantization mode for this model generation: an "auto"
    // bundle resolves the process-wide mode exactly once, here, so a
    // later SetQuantMode / env change can never alter the arithmetic of
    // a snapshot already in flight — the next reload picks it up.
    if (bundle.quantization == io::kQuantizeAuto) {
      bundle.quantization =
          static_cast<int>(tensor::kernels::ActiveQuantMode());
    }
    if (quant_mode() == tensor::kernels::QuantMode::kInt8) {
      bundle.EnsureQuantized();
    }
  }

  int feature_width() const { return bundle.cluster_centroids.cols(); }
  tensor::kernels::QuantMode quant_mode() const {
    return bundle.EffectiveQuantMode();
  }
  const char* quantization_name() const {
    return tensor::kernels::QuantModeName(quant_mode());
  }
  /// "v4" for bundles mapped from a file, "memory" for in-process ones.
  const char* format_name() const {
    return bundle.format_version == 4 ? "v4" : "memory";
  }
};

/// Concurrent top-k suggestion server over a frozen io::InferenceBundle.
///
/// Requests enter through `Submit` (future-based), `SubmitAsync`
/// (callback-based, what the HTTP front-end uses) or `SubmitBatch`
/// (blocking convenience). They wait in one RequestBatcher queue; each
/// scoring thread, when free, cuts whatever is queued into a micro-batch
/// and scores it in one `InferenceBundle::PredictScores` pass on the
/// active GEMM backend (cache blocking lives inside the kernel layer,
/// not up here). A sharded LRU SuggestionCache short-circuits repeat
/// (patient_id, k) queries. While a keyed query is being scored,
/// identical arrivals coalesce onto it (singleflight) instead of queuing
/// duplicate work.
/// Results are bit-identical to calling `InferenceBundle::Suggest` (and
/// therefore `DssddiSystem::Suggest`) per patient: batching changes only
/// how rows are grouped, never the per-row arithmetic.
///
/// The model lives behind an atomically swapped shared_ptr snapshot:
/// `Reload` installs a new bundle without draining in-flight requests —
/// batches already cut keep the snapshot they grabbed alive, new
/// arrivals score against the new weights, and the suggestion cache is
/// version-keyed and flushed so a post-reload query can never be
/// answered from pre-reload results.
///
/// `TrySubmitAsync` additionally runs the AdmissionController gate:
/// when in-flight or queue-depth bounds are hit the request is shed
/// (kShedLoad, nothing enqueued) so overload degrades into fast
/// rejections instead of unbounded queues, and a deadline-carrying
/// request whose remaining budget cannot cover the observed p50 service
/// time is shed as kShedDeadline before it wastes a batch slot.
///
/// Deadline propagation past admission: each request's RequestContext
/// travels with it, and the worker cutting a batch sweeps
/// already-expired requests out *before* scoring (completing them with
/// DeadlineExceeded, counted in `expired`) and forms the batch
/// oldest-deadline-first. A singleflight waiter coalesced onto a
/// leader inherits the leader's fate: if the leader expires, everyone
/// riding it fails with DeadlineExceeded too (they asked the identical
/// question; under deadline pressure re-scoring it for a follower would
/// be exactly the wasted work expiry exists to avoid).
///
/// Thread-safety: every public method may be called from any number of
/// threads. Destruction flushes every in-flight request before
/// returning, so no completion is left dangling.
class SuggestionService {
 public:
  explicit SuggestionService(io::InferenceBundle bundle,
                             const ServiceOptions& options = {});
  ~SuggestionService() = default;

  SuggestionService(const SuggestionService&) = delete;
  SuggestionService& operator=(const SuggestionService&) = delete;

  /// Asynchronously answers one request. The future carries the
  /// suggestion, or an exception for malformed input (wrong feature
  /// width, k < 1).
  std::future<core::Suggestion> Submit(Request request);

  /// Callback flavor of Submit: `done` fires exactly once, from
  /// whichever thread completes the request, with either the suggestion
  /// or the rejection exception. Never blocks the caller on scoring.
  void SubmitAsync(Request request, Completion done);

  /// Admission-gated SubmitAsync. On kShedLoad / kShedDeadline the
  /// request is dropped and `done` is NOT invoked; the HTTP front-end
  /// maps those to 429 Too Many Requests / 504 Gateway Timeout.
  AdmissionController::Decision TrySubmitAsync(Request request,
                                               Completion done);

  /// Submits all requests, waits, and returns the suggestions in order.
  std::vector<core::Suggestion> SubmitBatch(std::vector<Request> requests);

  /// Atomically replaces the served model. Fails (and serves the old
  /// snapshot untouched) if the new bundle is empty or its feature width
  /// differs from the current one — in-flight requests were validated
  /// against that width. On success the suggestion cache generation is
  /// bumped and flushed and `model_version` advances.
  io::Status Reload(io::InferenceBundle bundle);

  /// Refreshes the live gauges, then assembles the snapshot from the
  /// registry.
  ServiceStats Stats() const;

  /// Stamps the live-value gauges (dssddi_in_flight, dssddi_queue_depth,
  /// dssddi_uptime_seconds) into the registry. Every render of the
  /// registry — Stats() and /metricsz — calls this first.
  void RefreshGauges() const;

  /// The current model snapshot (never null). Callers may hold it as
  /// long as they like; it stays valid across reloads.
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  const ServiceOptions& options() const { return options_; }
  uint64_t model_version() const { return snapshot()->version; }
  double uptime_seconds() const { return uptime_.ElapsedSeconds(); }
  int feature_width() const { return snapshot()->feature_width(); }

  /// Requests queued and not yet cut into a batch by a worker.
  size_t QueueDepth() const;

  /// The service's metrics registry: every count and gauge /statsz reads
  /// lives here, so a /metricsz render and a Stats() call can never
  /// disagree. Shared so exposition layers (and trace finalizers) may
  /// outlive the service.
  const std::shared_ptr<obs::Registry>& registry() const { return registry_; }
  /// Trace sampling/retention for this service's pipeline.
  const std::shared_ptr<obs::TraceCollector>& trace_collector() const {
    return collector_;
  }
  /// The flight recorder backing /logz (never null). Shared so the HTTP
  /// layer can record its own parse/overload events into the same ring.
  const std::shared_ptr<obs::FlightRecorder>& flight_recorder() const {
    return recorder_;
  }
  /// The SLO engine behind /sloz; null when `slo_enabled` was false.
  obs::SloEngine* slo_engine() const { return slo_.get(); }
  const AdmissionController& admission() const { return admission_; }

 private:
  struct Waiter {
    Completion done;
    std::chrono::steady_clock::time_point start;
  };

  void HandleBatch(std::vector<PendingRequest> batch);
  /// Completes one already-expired request with DeadlineExceeded;
  /// counts it expired + completed. `registered` says whether the
  /// request's key was entered in the singleflight table (the cut's
  /// expiry sweep) — pass false on the pre-registration fail-fast path,
  /// whose default-constructed key must never be looked up.
  void ExpireRequest(PendingRequest& pending, bool registered = true);
  core::Suggestion BuildSuggestion(const ModelSnapshot& snapshot,
                                   const tensor::Matrix& scores, int row,
                                   const Request& request);
  /// Fulfils everyone coalesced onto `key` with copies of `value`.
  void ResolveInflight(const CacheKey& key, const core::Suggestion& value,
                       const std::shared_ptr<const ModelSnapshot>& snapshot);
  /// Fails everyone coalesced onto `key` (scoring threw for the leader).
  void FailInflight(const CacheKey& key, const std::exception_ptr& error);
  void RecordLatency(double millis);
  uint64_t InFlight() const;
  /// Stamps the bundle-provenance gauges (load_ms, bytes mapped, model
  /// version) from a freshly installed snapshot — constructor and every
  /// successful Reload.
  void PublishBundleGauges(const ModelSnapshot& snapshot);

  ServiceOptions options_;

  /// Declared before every component that records into them (and before
  /// the batcher whose destructor flushes completions), so they are
  /// constructed first and destroyed last: a completion firing during
  /// shutdown can still stamp its trace and record its latency.
  std::shared_ptr<obs::Registry> registry_;
  std::shared_ptr<obs::TraceCollector> collector_;
  std::shared_ptr<obs::FlightRecorder> recorder_;

  /// Every serving count and gauge, registered once at construction;
  /// each event is counted at the one place that knows it happened.
  /// Pointers are stable for the registry's lifetime.
  obs::Counter* requests_;
  obs::Counter* completed_;
  obs::Counter* expired_;
  obs::Counter* coalesced_;
  obs::Counter* batches_;
  obs::Counter* batch_rows_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* explain_memo_hits_;
  obs::Counter* explain_memo_misses_;
  obs::Counter* reloads_;
  obs::Gauge* in_flight_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* uptime_gauge_;
  obs::Gauge* model_version_gauge_;
  obs::Gauge* bundle_load_ms_gauge_;
  obs::Gauge* bundle_bytes_mapped_gauge_;

  /// Counts its decisions into registry_, so declared after it.
  AdmissionController admission_;

  /// Swapped only by Reload; read via std::atomic_load everywhere.
  std::shared_ptr<const ModelSnapshot> snapshot_;
  std::mutex reload_mutex_;

  util::Stopwatch uptime_;

  std::mutex inflight_mutex_;
  std::unordered_map<CacheKey, std::vector<Waiter>, CacheKeyHash> inflight_;

  /// Successful-completion latency only: expired requests never feed it,
  /// so the cached p50 the admission gate consults stays an estimate of
  /// real service time, not of how long doomed requests sat in queues.
  LatencyTracker latency_;

  // Shutdown order (reverse of declaration): the batcher stops intake,
  // its workers drain the queue and join, and only then do the cache and
  // snapshot go away.
  std::unique_ptr<SuggestionCache> cache_;
  std::unique_ptr<RequestBatcher> batcher_;

  /// Declared last so its evaluator thread stops before anything it
  /// observes (registry histograms, the admission gate, the recorder)
  /// is torn down. Null when slo_enabled is false.
  std::unique_ptr<obs::SloEngine> slo_;
};

}  // namespace dssddi::serve

#endif  // DSSDDI_SERVE_SERVICE_H_
