#ifndef DSSDDI_NET_SUGGEST_FRONTEND_H_
#define DSSDDI_NET_SUGGEST_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/http_server.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/latency_tracker.h"
#include "serve/service.h"

namespace dssddi::net {

/// Front-end policy knobs, fixed at construction.
struct SuggestFrontendOptions {
  struct RouteBudget {
    std::string route;  // exact target, e.g. "/v1/suggest"
    int budget_ms = 0;
  };
  /// Default latency budgets applied per route when a request arrives
  /// without an explicit deadline (no X-Deadline-Ms header / zero
  /// binary deadline field). Only queued routes meaningfully expire —
  /// /healthz, /statsz and /admin/reload answer inline on the loop
  /// thread — but the table is keyed by route so new scoring routes get
  /// budgets without new plumbing. Empty (default) = no default budgets.
  std::vector<RouteBudget> route_budgets;
  /// Ceiling clamped onto client-supplied budgets; 0 = no ceiling.
  int max_budget_ms = 0;
  /// Head-based trace sampling for /v1/suggest: every Nth request gets a
  /// full per-stage trace (stage histograms + /tracez retention). 1
  /// traces everything, 0 disables tracing — and the disabled path adds
  /// zero allocations and zero clock reads per request. Per-route
  /// latency histograms are recorded for every request regardless.
  uint32_t trace_sample_every = 64;
  /// Attach a Server-Timing header (stage breakdown in milliseconds) to
  /// /v1/suggest responses whose request was trace-sampled.
  bool server_timing = true;
  /// Optional fault injector (chaos testing): when set, GET/POST
  /// /admin/fault reads/installs its spec, and the same injector should
  /// be handed to HttpServerOptions::fault so installed specs take
  /// effect on this replica's socket ops. Absent -> /admin/fault 404s.
  std::shared_ptr<fault::FaultInjector> fault_injector;

  int DefaultBudgetMs(const std::string& route) const {
    for (const RouteBudget& entry : route_budgets) {
      if (entry.route == route) return entry.budget_ms;
    }
    return 0;
  }
};

/// The JSON body of a served suggestion: `patient_id`, `model_version`,
/// `trace_id`, `drugs`, `scores` (%.9g, so a client recovers the exact
/// binary32 scores), `drug_names` (null for an id outside `drug_names`)
/// and, when `explain`, the `explanation` object. Callers pass the names
/// and version of the snapshot that produced `suggestion`.
std::string SuggestionToJson(const core::Suggestion& suggestion,
                             const std::vector<std::string>& drug_names,
                             uint64_t model_version, int64_t patient_id,
                             bool explain, uint64_t trace_id);

/// HTTP API over a SuggestionService. Routes:
///
///   POST /v1/suggest   JSON body {"patient_id":7,"features":[...],"k":3,
///                      "explain":true} — or, when Content-Type is
///                      application/x-dssddi, one binary request frame
///                      (see net/wire.h); the response mirrors the
///                      request's codec.
///                      -> 200 suggestion (JSON object / binary frame)
///                      -> 400 malformed body / wrong feature width / bad k
///                      -> 429 load-shed by the admission controller
///                      -> 504 deadline-shed or expired before scoring
///   GET  /healthz      liveness + model version
///   GET  /statsz       ServiceStats + admission + per-route latency +
///                      HTTP counters as JSON, read from the service's
///                      metrics registry
///   GET  /metricsz     Prometheus exposition text of that same registry
///                      (service, admission and cache counters, live
///                      gauges, per-route and per-stage histograms, HTTP
///                      counters) — /statsz and /metricsz are two renders
///                      of one set of series and cannot disagree
///   GET  /tracez       the slow-trace and errored-trace rings as JSON,
///                      per-stage timings included
///   GET  /logz         the flight recorder's wide events as NDJSON,
///                      oldest first; ?severity=info|warning|error sets
///                      a minimum severity, ?trace=<id> keeps one trace,
///                      ?route=<route> keeps one route
///   GET  /sloz         SLO engine state: per-objective fast/slow burn
///                      rates, windowed counts, degraded flag
///
/// `/metricsz?format=openmetrics` switches the exposition to OpenMetrics
/// 1.0: counter families drop `_total` in HELP/TYPE, histogram buckets
/// carry `# {trace_id="..."} ...` exemplars linking tail latency to
/// /tracez//logz entries, and the payload ends with `# EOF`.
///   POST /admin/reload {"path":"/models/new.dssb"} -> hot-swaps the bundle
///                      -> 409 incompatible bundle, 400 bad body/file
///
/// Request-context edge: this is where a serve::RequestContext is born.
/// Arrival is stamped on dispatch; the deadline comes from the
/// X-Deadline-Ms header (JSON) or the frame's deadline field (binary),
/// falling back to the route's default budget; X-Priority / the frame's
/// priority flag picks the class; X-Trace-Id / the frame's trace id
/// names the request (server-assigned when absent, echoed in binary
/// responses). Every layer downstream — admission, batching, scoring —
/// acts on that one context instead of re-deriving budgets.
///
/// Scoring is fully asynchronous: the handler enqueues into the service
/// and the completion (on a worker thread) sends through the
/// ResponseWriter, so event-loop threads never wait on a model pass.
/// JSON scores are serialized with %.9g, which round-trips binary32
/// exactly; binary scores cross as raw binary32 — both routes deliver
/// floats bit-identical to an in-process `DssddiSystem::Suggest` call.
///
/// `/admin/reload` loads the bundle from local disk on the calling loop
/// thread (admin traffic is rare; a short accept stall is acceptable)
/// and swaps it in without draining in-flight requests.
class SuggestFrontend {
 public:
  explicit SuggestFrontend(serve::SuggestionService* service,
                           const SuggestFrontendOptions& options = {});

  /// Optional: include the server's connection counters in /statsz.
  void AttachServer(const HttpServer* server) { http_ = server; }

  /// The HttpServer handler. Runs on an event-loop thread; never blocks
  /// on scoring.
  void Handle(const HttpRequest& request, ResponseWriter writer);

  HttpServer::Handler AsHandler() {
    return [this](const HttpRequest& request, ResponseWriter writer) {
      Handle(request, writer);
    };
  }

  /// Requests rejected before reaching the service (bad JSON, bad
  /// frames, bad deadline headers); 404/405s are not counted. Read from
  /// the registry's dssddi_http_bad_requests_total.
  uint64_t bad_requests() const { return bad_requests_->Value(); }

  const SuggestFrontendOptions& options() const { return options_; }

 private:
  /// Per-route request counter + handler-observed latency (dispatch to
  /// response send), both living in the service's metrics registry so
  /// /metricsz exposes them as dssddi_http_requests_total{route=...} and
  /// dssddi_request_latency_ms{route=...}. The Counter*/Histogram*
  /// handles are cached here at construction — the hot path never takes
  /// the registry's registration mutex. Held by shared_ptr (and holding
  /// the registry by shared_ptr) because suggest completions run on
  /// service worker threads and may outlive the frontend during
  /// shutdown — the lambda keeps its metrics alive.
  struct RouteMetrics {
    RouteMetrics(std::shared_ptr<obs::Registry> owner, const char* name);
    const char* route;
    std::shared_ptr<obs::Registry> registry;
    obs::Counter* requests;
    /// Response status classes, feeding the availability SLO — same
    /// family (name + labels) the SloEngine resolves, so registration
    /// order between engine and frontend does not matter.
    obs::Counter* responses_2xx;
    obs::Counter* responses_4xx;
    obs::Counter* responses_5xx;
    serve::LatencyTracker latency;

    void CountResponse(int status) {
      (status >= 500       ? responses_5xx
       : status >= 400     ? responses_4xx
                           : responses_2xx)
          ->Increment();
    }
  };

  void HandleSuggest(const HttpRequest& request, ResponseWriter writer,
                     std::chrono::steady_clock::time_point start);
  void HandleHealth(ResponseWriter writer) const;
  /// 200 only when the server (if attached) is not draining: liveness
  /// and readiness diverge during graceful shutdown.
  int HandleReadyz(ResponseWriter writer) const;
  int HandleAdminFault(const HttpRequest& request, ResponseWriter writer);
  void HandleStats(ResponseWriter writer) const;
  void HandleMetrics(ResponseWriter writer, bool openmetrics) const;
  void HandleTracez(ResponseWriter writer) const;
  /// Return the status they answered with, so the caller counts the
  /// response class without re-deriving it.
  int HandleLogz(const std::string& query, ResponseWriter writer);
  int HandleSloz(ResponseWriter writer) const;
  int HandleReload(const HttpRequest& request, ResponseWriter writer);
  /// Counts one pre-service rejection: bad_requests_, the route's 4xx
  /// class, and a kBadRequest flight-recorder event. `detail` must be a
  /// string literal (recorder contract).
  void RecordRejection(RouteMetrics& metrics, const char* detail);

  serve::SuggestionService* service_;
  SuggestFrontendOptions options_;
  const HttpServer* http_ = nullptr;
  /// The service's flight recorder (shared; see SuggestionService).
  std::shared_ptr<obs::FlightRecorder> recorder_;
  /// dssddi_http_bad_requests_total in the service's registry.
  obs::Counter* bad_requests_;
  std::atomic<uint64_t> next_trace_id_{1};
  /// Cached sampler handle for /v1/suggest (stable for the collector's
  /// lifetime; consulting it is a relaxed load + fetch_add).
  obs::TraceSampler* suggest_sampler_ = nullptr;
  std::shared_ptr<RouteMetrics> suggest_metrics_;
  std::shared_ptr<RouteMetrics> healthz_metrics_;
  std::shared_ptr<RouteMetrics> statsz_metrics_;
  std::shared_ptr<RouteMetrics> metricsz_metrics_;
  std::shared_ptr<RouteMetrics> tracez_metrics_;
  std::shared_ptr<RouteMetrics> logz_metrics_;
  std::shared_ptr<RouteMetrics> sloz_metrics_;
  std::shared_ptr<RouteMetrics> reload_metrics_;
  std::shared_ptr<RouteMetrics> readyz_metrics_;
  std::shared_ptr<RouteMetrics> fault_metrics_;
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_SUGGEST_FRONTEND_H_
