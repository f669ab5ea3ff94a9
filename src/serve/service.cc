#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/suggestion_model.h"
#include "io/binary.h"
#include "obs/kernel_timing.h"
#include "obs/trace.h"
#include "tensor/kernels/gemm_backend.h"
#include "util/logging.h"

namespace dssddi::serve {
namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Cache/singleflight key for a request: patient id and k plus a hash of
/// the feature bytes, so an id reused with updated patient state can
/// never be answered from the stale entry. `generation` is the version
/// of the snapshot the submitter loaded: because it comes from the same
/// atomic load that scoring validity is judged by, a post-reload
/// submitter keys with the new version and can never hit (or be hit by)
/// a pre-reload entry — no ordering window against the cache flush.
CacheKey KeyFor(const Request& request, uint64_t generation) {
  return CacheKey{request.patient_id, request.k,
                  io::Fnv1a64(reinterpret_cast<const char*>(request.features.data()),
                              request.features.size() * sizeof(float)),
                  generation};
}

}  // namespace

SuggestionService::SuggestionService(io::InferenceBundle bundle,
                                     const ServiceOptions& options)
    : options_(options),
      registry_(std::make_shared<obs::Registry>()),
      collector_(std::make_shared<obs::TraceCollector>(
          registry_, options.trace_ring_capacity)),
      recorder_(std::make_shared<obs::FlightRecorder>(options.flight_recorder)),
      requests_(registry_->GetCounter("dssddi_service_requests_total",
                                      "Requests accepted by Submit")),
      completed_(registry_->GetCounter("dssddi_service_completed_total",
                                       "Completions fired")),
      expired_(registry_->GetCounter(
          "dssddi_service_expired_total",
          "Requests dropped post-admission because their deadline passed")),
      coalesced_(registry_->GetCounter(
          "dssddi_service_coalesced_total",
          "Requests that rode an identical in-flight query")),
      batches_(registry_->GetCounter("dssddi_service_batches_total",
                                     "Matrix passes dispatched")),
      batch_rows_(registry_->GetCounter(
          "dssddi_service_batch_rows_total",
          "Requests scored in a matrix pass (rows / batches = mean batch "
          "size)")),
      cache_hits_(registry_->GetCounter("dssddi_cache_total",
                                        "Suggestion cache outcomes",
                                        {{"outcome", "hit"}})),
      cache_misses_(registry_->GetCounter("dssddi_cache_total",
                                          "Suggestion cache outcomes",
                                          {{"outcome", "miss"}})),
      explain_memo_hits_(registry_->GetCounter(
          "dssddi_explain_memo_total", "Explanation memo outcomes",
          {{"outcome", "hit"}})),
      explain_memo_misses_(registry_->GetCounter(
          "dssddi_explain_memo_total", "Explanation memo outcomes",
          {{"outcome", "miss"}})),
      reloads_(registry_->GetCounter("dssddi_model_reloads_total",
                                     "Successful hot reloads")),
      in_flight_gauge_(registry_->GetGauge(
          "dssddi_in_flight", "Accepted requests not yet completed")),
      queue_depth_gauge_(registry_->GetGauge(
          "dssddi_queue_depth",
          "Requests queued and not yet cut into a batch")),
      uptime_gauge_(
          registry_->GetGauge("dssddi_uptime_seconds", "Service uptime")),
      model_version_gauge_(registry_->GetGauge(
          "dssddi_model_version", "Version of the served model snapshot")),
      bundle_load_ms_gauge_(registry_->GetGauge(
          "dssddi_bundle_load_ms",
          "Wall-clock load cost of the currently served bundle in "
          "milliseconds (0 for in-process bundles)")),
      bundle_bytes_mapped_gauge_(registry_->GetGauge(
          "dssddi_bundle_bytes_mapped",
          "Bytes the served bundle holds mmap'd (v4 zero-copy bundles only; "
          "0 on the heap paths)")),
      admission_(*registry_, options.admission),
      latency_(registry_->GetHistogram(
          "dssddi_service_latency_ms",
          "Successful-completion latency (submit to completion) in "
          "milliseconds; feeds the admission gate's p50")) {
  DSSDDI_CHECK(bundle.num_drugs() > 0) << "serving an empty bundle";
  if (options_.quantization != "auto") {
    tensor::kernels::QuantMode mode;
    DSSDDI_CHECK(tensor::kernels::ParseQuantMode(options_.quantization, &mode))
        << "unknown ServiceOptions::quantization '" << options_.quantization
        << "' (want auto, none or int8)";
    bundle.quantization = static_cast<int>(mode);
  }
  snapshot_ = std::make_shared<const ModelSnapshot>(std::move(bundle),
                                                    /*version=*/1);
  PublishBundleGauges(*snapshot_);
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<SuggestionCache>(options_.cache_capacity,
                                               options_.cache_shards);
  }
  RequestBatcher::Options batch_options;
  batch_options.max_batch_size = options_.max_batch_size;
  batch_options.num_workers = ResolveThreads(options_.num_threads);
  batcher_ = std::make_unique<RequestBatcher>(
      batch_options,
      [this](std::vector<PendingRequest> batch) { HandleBatch(std::move(batch)); },
      // Expiry sweep sink: complete each swept request (and its
      // coalesced waiters) with DeadlineExceeded on the worker that cut
      // it — cheap, no scoring, keeps in-flight accounting exact.
      [this](std::vector<PendingRequest> expired) {
        for (PendingRequest& pending : expired) ExpireRequest(pending);
      });
  if (options_.slo_enabled) {
    obs::SloEngineOptions slo_options = options_.slo;
    if (slo_options.objectives.empty()) {
      slo_options.objectives =
          obs::DefaultSuggestObjectives(options_.slo_default_p99_ms);
    }
    // The engine closes the loop: burn-rate transitions flip the
    // admission gate's degraded bit, so overload visible in the SLO
    // windows tightens admission before the objective is blown for good.
    slo_ = std::make_unique<obs::SloEngine>(
        registry_, std::move(slo_options),
        [this](bool degraded) { admission_.set_degraded(degraded); },
        recorder_);
  }
}

std::shared_ptr<const ModelSnapshot> SuggestionService::snapshot() const {
  return std::atomic_load(&snapshot_);
}

void SuggestionService::SubmitAsync(Request request, Completion done) {
  DSSDDI_CHECK(done != nullptr) << "SubmitAsync needs a completion";
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const ModelSnapshot> snapshot = this->snapshot();

  if (static_cast<int>(request.features.size()) != snapshot->feature_width() ||
      request.k < 1) {
    done(core::Suggestion{}, snapshot,
         std::make_exception_ptr(std::invalid_argument(
             "bad request: " + std::to_string(request.features.size()) +
             " features (want " + std::to_string(snapshot->feature_width()) +
             "), k=" + std::to_string(request.k))));
    return;
  }
  requests_->Increment();

  // Fail-fast on a deadline that is already blown at submission: even a
  // cache hit would be delivered late, so don't touch the cache or the
  // singleflight table for it.
  if (request.context.ExpiredAt(std::chrono::steady_clock::now())) {
    PendingRequest pending;
    pending.request = std::move(request);
    pending.done = std::move(done);
    ExpireRequest(pending, /*registered=*/false);
    return;
  }

  // Cache only fully-explained suggestions so a hit can answer any
  // explain=true request verbatim; explanation-free requests always go
  // through scoring (they are cheap) and never pollute the cache.
  CacheKey key;
  if (cache_ && request.patient_id >= 0 && request.explain) {
    key = KeyFor(request, snapshot->version);
    core::Suggestion cached;
    if (cache_->Get(key, &cached)) {
      cache_hits_->Increment();
      RecordLatency(MillisSince(start));
      completed_->Increment();
      done(std::move(cached), snapshot, nullptr);
      return;
    }
    cache_misses_->Increment();
    // Singleflight: if the same keyed query is already being scored,
    // ride on that computation instead of scoring it again.
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        coalesced_->Increment();
        it->second.push_back(Waiter{std::move(done), start});
        return;
      }
      inflight_.emplace(key, std::vector<Waiter>{});
    }
  }
  batcher_->Enqueue(std::move(request), key, std::move(done));
}

AdmissionController::Decision SuggestionService::TrySubmitAsync(
    Request request, Completion done) {
  obs::TraceSpan admission_span(request.context.trace, obs::Stage::kAdmission);
  const double remaining_ms =
      request.context.RemainingMs(std::chrono::steady_clock::now());
  const AdmissionController::Decision decision = admission_.AdmitWithDeadline(
      InFlight(), QueueDepth(), remaining_ms, latency_.CachedP50Ms(),
      request.context.priority);
  admission_span.Stop();
  if (decision != AdmissionController::Decision::kAdmit) return decision;
  SubmitAsync(std::move(request), std::move(done));
  return decision;
}

std::future<core::Suggestion> SuggestionService::Submit(Request request) {
  auto promise = std::make_shared<std::promise<core::Suggestion>>();
  std::future<core::Suggestion> future = promise->get_future();
  SubmitAsync(std::move(request),
              [promise](core::Suggestion suggestion,
                        std::shared_ptr<const ModelSnapshot> /*snapshot*/,
                        std::exception_ptr error) {
                if (error) {
                  promise->set_exception(error);
                } else {
                  promise->set_value(std::move(suggestion));
                }
              });
  return future;
}

std::vector<core::Suggestion> SuggestionService::SubmitBatch(
    std::vector<Request> requests) {
  std::vector<std::future<core::Suggestion>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) futures.push_back(Submit(std::move(request)));
  std::vector<core::Suggestion> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

io::Status SuggestionService::Reload(io::InferenceBundle bundle) {
  if (bundle.num_drugs() <= 0) {
    return io::Status::Error("reload rejected: new bundle has no drugs");
  }
  // One reload at a time; readers are never blocked by this mutex.
  std::lock_guard<std::mutex> lock(reload_mutex_);
  const std::shared_ptr<const ModelSnapshot> current = snapshot();
  const int new_width = bundle.cluster_centroids.cols();
  if (new_width != current->feature_width()) {
    return io::Status::Error(
        "reload rejected: feature width " + std::to_string(new_width) +
        " != served width " + std::to_string(current->feature_width()));
  }
  // reload_mutex_ serializes writers, so the next version is simply the
  // current one plus one.
  auto next = std::make_shared<const ModelSnapshot>(std::move(bundle),
                                                    current->version + 1);
  // Correctness does not depend on ordering here: cache keys carry the
  // snapshot version their submitter loaded, so v2-keyed entries can
  // only ever hold v2-scored results. BumpGeneration is reclamation —
  // it frees the now-unreachable v1 entries (and advances the cache's
  // own generation for standalone users of that API).
  std::atomic_store(&snapshot_, std::static_pointer_cast<const ModelSnapshot>(next));
  if (cache_) cache_->BumpGeneration();
  reloads_->Increment();
  PublishBundleGauges(*next);
  // Reloads are rare, load-bearing events — exactly what the flight
  // recorder exists for. total_ms carries the bundle's load cost so a
  // /logz reader sees what the swap actually paid.
  recorder_->Record(obs::LogSeverity::kInfo, obs::LogReason::kReload,
                    "reload", 200, 0, next->bundle.load_ms, nullptr,
                    next->bundle.format_version == 4
                        ? "installed v4 mmap bundle"
                        : "installed in-process bundle");
  return io::Status::Ok();
}

void SuggestionService::PublishBundleGauges(const ModelSnapshot& snapshot) {
  bundle_load_ms_gauge_->Set(snapshot.bundle.load_ms);
  bundle_bytes_mapped_gauge_->Set(
      static_cast<double>(snapshot.bundle.bytes_mapped()));
  model_version_gauge_->Set(static_cast<double>(snapshot.version));
}

size_t SuggestionService::QueueDepth() const {
  return batcher_->QueueDepth();
}

uint64_t SuggestionService::InFlight() const {
  // Completed first: a completion landing between the two reads then
  // over-reports by one instead of under-reporting (the gate errs toward
  // shedding); the clamp guards what the relaxed reads leave open.
  const uint64_t completed = completed_->Value();
  const uint64_t requests = requests_->Value();
  return requests > completed ? requests - completed : 0;
}

void SuggestionService::RefreshGauges() const {
  in_flight_gauge_->Set(static_cast<double>(InFlight()));
  queue_depth_gauge_->Set(static_cast<double>(QueueDepth()));
  uptime_gauge_->Set(uptime_.ElapsedSeconds());
}

void SuggestionService::HandleBatch(std::vector<PendingRequest> batch) {
  const auto pickup = std::chrono::steady_clock::now();
  // Stamp queue_wait (enqueue to the cut) on sampled requests and
  // learn whether this batch needs kernel-time attribution at all — the
  // untraced batch must not pay for a timing window.
  bool any_traced = false;
  for (const PendingRequest& pending : batch) {
    if (obs::Trace* trace = pending.request.context.trace.get()) {
      any_traced = true;
      trace->AddStageNs(
          obs::Stage::kQueueWait,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  pickup - pending.enqueue_time)
                  .count()));
    }
  }
  // Pin one model generation for the whole batch. A concurrent Reload
  // cannot free it (shared_ptr) and every row of this batch is scored by
  // the same weights.
  const std::shared_ptr<const ModelSnapshot> snapshot = this->snapshot();
  const int width = snapshot->feature_width();
  const int total = static_cast<int>(batch.size());
  batches_->Increment();
  batch_rows_->Add(static_cast<uint64_t>(total));

  // Score the whole batch in one kernel-backed matrix pass. The
  // hand-rolled score tiling that used to live here is gone: keeping the
  // working set cache-resident is the GEMM backend's job now (the
  // blocked backend tiles internally; the reference backend streams).
  // Rows are independent in PredictScores, so batch grouping leaves
  // every result bit-identical.
  int finished = 0;  // requests whose completion already fired
  try {
    tensor::Matrix x(total, width);
    for (int i = 0; i < total; ++i) {
      const auto& features = batch[i].request.features;
      std::copy(features.begin(), features.end(), x.RowPtr(i));
    }
    tensor::Matrix scores;
    if (any_traced) {
      // Kernel time is spent once for the whole batch, so each sampled
      // member is stamped with the full batch's GEMM nanoseconds — the
      // cost the request actually waited behind, not a per-row share.
      obs::KernelTimingWindow kernel_window;
      scores = snapshot->bundle.PredictScores(x);
      const uint64_t kernel_ns = kernel_window.ns();
      if (kernel_ns > 0) {
        for (const PendingRequest& pending : batch) {
          if (obs::Trace* trace = pending.request.context.trace.get()) {
            trace->AddStageNs(obs::Stage::kGemm, kernel_ns);
          }
        }
      }
    } else {
      scores = snapshot->bundle.PredictScores(x);
    }

    for (int i = 0; i < total; ++i) {
      PendingRequest& pending = batch[i];
      core::Suggestion suggestion =
          BuildSuggestion(*snapshot, scores, i, pending.request);
      if (cache_ && pending.request.explain && pending.request.patient_id >= 0) {
        // Cache only when the submit-time key generation matches the
        // snapshot that scored the row. After a racing Reload they can
        // differ (submitted against v1, scored by v2): caching the v2
        // result under a v1 key would let a pre-reload submitter hit
        // it and serialize v2 scores against v1 names/version. The
        // coalesced waiters are still resolved — they asked the same
        // question and this is its (new-model) answer.
        if (pending.key.generation == snapshot->version) {
          cache_->Put(pending.key, suggestion);
        }
        ResolveInflight(pending.key, suggestion, snapshot);
      }
      RecordLatency(MillisSince(pending.enqueue_time));
      completed_->Increment();
      // Count this request finished BEFORE invoking its completion,
      // and swallow completion throws here like every other delivery
      // path does — the catch below is for scoring failures only and
      // must never redeliver a completion's own exception to the rest
      // of the batch.
      ++finished;
      try {
        pending.Complete(std::move(suggestion), snapshot);
      } catch (...) {
        DSSDDI_LOG(Warning) << "completion threw; continuing batch";
      }
    }
  } catch (...) {
    // Scoring threw (bad_alloc under pressure, a pathological explain).
    // Every not-yet-finished request — and anyone coalesced onto one —
    // must still complete, or its HTTP connection hangs forever and the
    // in-flight count never drains (eventually pinning the admission
    // gate shut).
    const std::exception_ptr error = std::current_exception();
    DSSDDI_LOG(Warning) << "batch of " << total << " failed after "
                        << finished << " completions; failing the rest";
    recorder_->Record(obs::LogSeverity::kError, obs::LogReason::kScoringError,
                      "service", 500, 0, 0.0, nullptr,
                      "batch scoring threw; failing remaining requests");
    for (int i = finished; i < total; ++i) {
      PendingRequest& pending = batch[i];
      if (cache_ && pending.request.explain && pending.request.patient_id >= 0) {
        FailInflight(pending.key, error);
      }
      completed_->Increment();
      try {
        pending.Fail(error);
      } catch (...) {
        DSSDDI_LOG(Warning) << "failure completion threw; continuing";
      }
    }
  }
}

void SuggestionService::ExpireRequest(PendingRequest& pending,
                                      bool registered) {
  if (pending.request.context.trace) {
    pending.request.context.trace->SetStatus(504);
  }
  const std::exception_ptr error = std::make_exception_ptr(DeadlineExceeded(
      "deadline exceeded before scoring (trace " +
      std::to_string(pending.request.context.trace_id) + ")"));
  if (registered && cache_ && pending.request.explain &&
      pending.request.patient_id >= 0) {
    FailInflight(pending.key, error);
  }
  expired_->Increment();
  completed_->Increment();
  // Library callers leave `arrival` at the epoch default; report 0
  // rather than a nonsense duration for those.
  const double waited_ms =
      pending.request.context.arrival == RequestContext::Clock::time_point{}
          ? 0.0
          : MillisSince(pending.request.context.arrival);
  recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kExpired,
                    "service", 504, pending.request.context.trace_id,
                    waited_ms, pending.request.context.trace.get(),
                    "deadline passed after admission, before scoring");
  // Expired waits are deliberately NOT recorded as latency: the tracker
  // feeds the admission gate's p50 service-time estimate, which doomed
  // requests' queue time would inflate into a shed-everything spiral.
  try {
    pending.Fail(error);
  } catch (...) {
    DSSDDI_LOG(Warning) << "expiry completion threw; continuing";
  }
}

core::Suggestion SuggestionService::BuildSuggestion(
    const ModelSnapshot& snapshot, const tensor::Matrix& scores, int row,
    const Request& request) {
  // Two back-to-back spans, never nested: the epilogue is the top-k
  // build, the explain stage the Medical Support explanation after it.
  obs::TraceSpan epilogue_span(request.context.trace, obs::Stage::kEpilogue);
  core::Suggestion suggestion;
  suggestion.drugs = core::TopKDrugs(scores, row, request.k);
  suggestion.scores.reserve(suggestion.drugs.size());
  for (int d : suggestion.drugs) suggestion.scores.push_back(scores.At(row, d));
  epilogue_span.Stop();
  if (request.explain) {
    obs::TraceSpan explain_span(request.context.trace, obs::Stage::kExplain);
    bool hit = false;
    suggestion.explanation =
        snapshot.explanation_memo.Explain(suggestion.drugs, &hit);
    (hit ? explain_memo_hits_ : explain_memo_misses_)->Increment();
  }
  return suggestion;
}

void SuggestionService::ResolveInflight(
    const CacheKey& key, const core::Suggestion& value,
    const std::shared_ptr<const ModelSnapshot>& snapshot) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    waiters = std::move(it->second);
    inflight_.erase(it);
  }
  for (Waiter& waiter : waiters) {
    RecordLatency(MillisSince(waiter.start));
    completed_->Increment();
    // One throwing waiter must not abandon the rest — they have already
    // been moved out of the map and would be lost with the unwind.
    try {
      waiter.done(value, snapshot, nullptr);
    } catch (...) {
      DSSDDI_LOG(Warning) << "coalesced completion threw; continuing";
    }
  }
}

void SuggestionService::FailInflight(const CacheKey& key,
                                     const std::exception_ptr& error) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    waiters = std::move(it->second);
    inflight_.erase(it);
  }
  for (Waiter& waiter : waiters) {
    completed_->Increment();
    try {
      waiter.done(core::Suggestion{}, nullptr, error);
    } catch (...) {
      DSSDDI_LOG(Warning) << "coalesced failure completion threw; continuing";
    }
  }
}

void SuggestionService::RecordLatency(double millis) {
  latency_.Record(millis);
}

ServiceStats SuggestionService::Stats() const {
  RefreshGauges();
  ServiceStats stats;
  stats.requests = requests_->Value();
  stats.completed = completed_->Value();
  stats.batches = batches_->Value();
  stats.mean_batch_size =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(batch_rows_->Value()) / stats.batches;
  stats.cache_hits = cache_hits_->Value();
  stats.cache_misses = cache_misses_->Value();
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  stats.cache_hit_rate =
      lookups == 0 ? 0.0 : static_cast<double>(stats.cache_hits) / lookups;
  stats.coalesced = coalesced_->Value();
  stats.explain_memo_hits = explain_memo_hits_->Value();
  stats.explain_memo_misses = explain_memo_misses_->Value();
  stats.admitted = admission_.admitted();
  stats.shed = admission_.shed();
  stats.deadline_shed = admission_.deadline_shed();
  stats.degraded_shed = admission_.degraded_shed();
  stats.slo_degraded = admission_.degraded();
  stats.expired = expired_->Value();
  stats.in_flight = static_cast<uint64_t>(in_flight_gauge_->Value());
  stats.queue_depth = static_cast<uint64_t>(queue_depth_gauge_->Value());
  stats.reloads = reloads_->Value();
  stats.uptime_seconds = uptime_gauge_->Value();
  stats.qps = stats.uptime_seconds > 0.0
                  ? static_cast<double>(stats.completed) / stats.uptime_seconds
                  : 0.0;
  const LatencyTracker::Percentiles latency = latency_.Snapshot();
  stats.p50_latency_ms = latency.p50_ms;
  stats.p90_latency_ms = latency.p90_ms;
  stats.p99_latency_ms = latency.p99_ms;
  stats.max_latency_ms = latency.max_ms;
  stats.num_threads = batcher_->num_workers();
  stats.gemm_backend = tensor::kernels::ActiveBackendName();
  const std::shared_ptr<const ModelSnapshot> current = snapshot();
  stats.model_version = current->version;
  stats.quantization = current->quantization_name();
  if (current->quant_mode() == tensor::kernels::QuantMode::kInt8) {
    const auto append_errors = [&stats](const io::QuantizedMlp& mlp) {
      for (const auto& layer : mlp.layers) {
        stats.quant_layer_max_abs_error.push_back(layer.max_abs_error);
      }
    };
    append_errors(current->bundle.patient_fc.quantized);
    append_errors(current->bundle.decoder.quantized);
  }
  stats.bundle_format = current->format_name();
  stats.bundle_load_ms = current->bundle.load_ms;
  stats.bundle_bytes_mapped = current->bundle.bytes_mapped();
  return stats;
}

}  // namespace dssddi::serve
