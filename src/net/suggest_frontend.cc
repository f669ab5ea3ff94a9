#include "net/suggest_frontend.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/inference_bundle.h"
#include "net/json.h"
#include "net/wire.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"

// Build identity for dssddi_build_info; CMake passes the real values,
// these fallbacks keep non-CMake builds (and tooling) compiling.
#ifndef DSSDDI_VERSION
#define DSSDDI_VERSION "dev"
#endif
#ifndef DSSDDI_GIT_SHA
#define DSSDDI_GIT_SHA "unknown"
#endif

namespace dssddi::net {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  JsonWriter writer;
  writer.BeginObject().Key("error").String(message).EndObject();
  response.body = writer.Take();
  return response;
}

/// Error in the codec the client spoke: binary requests get binary
/// error frames (same HTTP status), JSON requests get JSON bodies.
/// `trace_id` rides in the binary frame (0 = request failed before a
/// trace id existed) so rejections stay correlatable with /tracez;
/// `request_id` echoes the failed request's multiplexing correlator.
HttpResponse CodecError(bool binary, int status, const std::string& message,
                        uint64_t trace_id = 0, uint64_t request_id = 0) {
  if (!binary) return JsonError(status, message);
  HttpResponse response;
  response.status = status;
  response.content_type = wire::kContentType;
  response.body = wire::EncodeError(
      {static_cast<uint32_t>(status), message, trace_id, request_id});
  return response;
}

/// Server-Timing value from a trace's stamped stages, e.g.
/// "queue_wait;dur=0.213, gemm;dur=1.871". Only stages with nonzero
/// time appear; durations are milliseconds per the header's spec.
std::string ServerTimingValue(const obs::Trace& trace) {
  std::string out;
  char buf[64];
  for (int s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const uint64_t ns = trace.StageNs(stage);
    if (ns == 0) continue;
    if (!out.empty()) out += ", ";
    std::snprintf(buf, sizeof(buf), "%s;dur=%.3f", obs::StageName(stage),
                  static_cast<double>(ns) / 1e6);
    out += buf;
  }
  return out;
}

void WriteEdges(JsonWriter& writer, const char* key,
                const std::vector<core::InteractionEdge>& edges) {
  writer.Key(key).BeginArray();
  for (const core::InteractionEdge& edge : edges) {
    writer.BeginArray().Int(edge.drug_u).Int(edge.drug_v).EndArray();
  }
  writer.EndArray();
}

std::string SuggestionToFrame(const core::Suggestion& suggestion,
                              const serve::ModelSnapshot& snapshot,
                              uint64_t trace_id, uint64_t request_id) {
  wire::SuggestResponseFrame frame;
  frame.model_version = snapshot.version;
  frame.trace_id = trace_id;
  frame.request_id = request_id;
  frame.drugs.assign(suggestion.drugs.begin(), suggestion.drugs.end());
  frame.scores = suggestion.scores;
  return wire::EncodeSuggestResponse(frame);
}

double UnixSecondsNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Value of `key` in a raw query string ("a=1&b=2"), empty when absent.
/// No percent-decoding: every value this API accepts (severities, trace
/// ids, routes, format names) is literal-safe, and '/' needs no escape
/// in a query per RFC 3986.
std::string QueryParam(const std::string& query, const char* key) {
  const size_t key_len = std::strlen(key);
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    if (end - pos > key_len && query.compare(pos, key_len, key) == 0 &&
        query[pos + key_len] == '=') {
      return query.substr(pos + key_len + 1, end - pos - key_len - 1);
    }
    pos = end + 1;
  }
  return "";
}

}  // namespace

std::string SuggestionToJson(const core::Suggestion& suggestion,
                             const std::vector<std::string>& drug_names,
                             uint64_t model_version, int64_t patient_id,
                             bool explain, uint64_t trace_id) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("patient_id").Int(patient_id);
  writer.Key("model_version").UInt(model_version);
  writer.Key("trace_id").UInt(trace_id);
  writer.Key("drugs").BeginArray();
  for (const int drug : suggestion.drugs) writer.Int(drug);
  writer.EndArray();
  // %.9g round-trips binary32 exactly: a client parsing these decimals
  // recovers the very floats the model produced.
  writer.Key("scores").BeginArray();
  for (const float score : suggestion.scores) writer.Float(score);
  writer.EndArray();
  writer.Key("drug_names").BeginArray();
  for (const int drug : suggestion.drugs) {
    if (drug >= 0 && drug < static_cast<int>(drug_names.size())) {
      writer.String(drug_names[drug]);
    } else {
      writer.Null();
    }
  }
  writer.EndArray();
  if (explain) {
    const core::Explanation& explanation = suggestion.explanation;
    writer.Key("explanation").BeginObject();
    writer.Key("suggestion_satisfaction")
        .Double(explanation.suggestion_satisfaction);
    writer.Key("subgraph_drugs").BeginArray();
    for (const int drug : explanation.subgraph_drugs) writer.Int(drug);
    writer.EndArray();
    WriteEdges(writer, "synergies_within", explanation.synergies_within);
    WriteEdges(writer, "antagonisms_within", explanation.antagonisms_within);
    WriteEdges(writer, "antagonisms_outward", explanation.antagonisms_outward);
    writer.Key("trussness").Int(explanation.trussness);
    writer.Key("diameter").Int(explanation.diameter);
    writer.Key("density").Double(explanation.density);
    writer.EndObject();
  }
  writer.EndObject();
  return writer.Take();
}

SuggestFrontend::RouteMetrics::RouteMetrics(
    std::shared_ptr<obs::Registry> owner, const char* name)
    : route(name),
      registry(std::move(owner)),
      requests(registry->GetCounter("dssddi_http_requests_total",
                                    "HTTP requests handled, by route",
                                    {{"route", name}})),
      responses_2xx(registry->GetCounter(
          "dssddi_http_responses_total",
          "HTTP responses by route and status class",
          {{"route", name}, {"class", "2xx"}})),
      responses_4xx(registry->GetCounter(
          "dssddi_http_responses_total",
          "HTTP responses by route and status class",
          {{"route", name}, {"class", "4xx"}})),
      responses_5xx(registry->GetCounter(
          "dssddi_http_responses_total",
          "HTTP responses by route and status class",
          {{"route", name}, {"class", "5xx"}})),
      latency(registry->GetHistogram(
          "dssddi_request_latency_ms",
          "Handler-observed latency (dispatch to response send) in "
          "milliseconds, by route",
          {{"route", name}})) {}

SuggestFrontend::SuggestFrontend(serve::SuggestionService* service,
                                 const SuggestFrontendOptions& options)
    : service_(service),
      options_(options),
      recorder_(service->flight_recorder()),
      bad_requests_(service->registry()->GetCounter(
          "dssddi_http_bad_requests_total",
          "Requests rejected before reaching the service")),
      suggest_metrics_(std::make_shared<RouteMetrics>(service->registry(),
                                                      "/v1/suggest")),
      healthz_metrics_(
          std::make_shared<RouteMetrics>(service->registry(), "/healthz")),
      statsz_metrics_(
          std::make_shared<RouteMetrics>(service->registry(), "/statsz")),
      metricsz_metrics_(
          std::make_shared<RouteMetrics>(service->registry(), "/metricsz")),
      tracez_metrics_(
          std::make_shared<RouteMetrics>(service->registry(), "/tracez")),
      logz_metrics_(
          std::make_shared<RouteMetrics>(service->registry(), "/logz")),
      sloz_metrics_(
          std::make_shared<RouteMetrics>(service->registry(), "/sloz")),
      reload_metrics_(std::make_shared<RouteMetrics>(service->registry(),
                                                     "/admin/reload")),
      readyz_metrics_(
          std::make_shared<RouteMetrics>(service->registry(), "/readyz")),
      fault_metrics_(std::make_shared<RouteMetrics>(service->registry(),
                                                    "/admin/fault")) {
  suggest_sampler_ = service_->trace_collector()->SamplerForRoute("/v1/suggest");
  suggest_sampler_->set_every(options_.trace_sample_every);
  // Build/runtime identity as an info-style gauge: the value is always 1,
  // the labels carry the facts — so dashboards and alert annotations can
  // join any series against what was running when it was scraped.
  service_->registry()
      ->GetGauge("dssddi_build_info",
                 "Build and runtime identity (constant 1; see labels)",
                 {{"version", DSSDDI_VERSION},
                  {"gemm_backend", tensor::kernels::ActiveBackendName()},
                  {"quantize", service_->snapshot()->quantization_name()},
                  {"int8_kernel", tensor::kernels::QGemmKernelName()},
                  {"git_sha", DSSDDI_GIT_SHA}})
      ->Set(1.0);
}

void SuggestFrontend::RecordRejection(RouteMetrics& metrics,
                                      const char* detail) {
  bad_requests_->Increment();
  metrics.responses_4xx->Increment();
  recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kBadRequest,
                    metrics.route, 400, 0, 0.0, nullptr, detail);
}

void SuggestFrontend::Handle(const HttpRequest& request,
                             ResponseWriter writer) {
  const Clock::time_point start = Clock::now();
  // Split the target at '?': routes match on the path, observability
  // endpoints (/metricsz format, /logz filters) read the query.
  const size_t question = request.target.find('?');
  const std::string path = question == std::string::npos
                               ? request.target
                               : request.target.substr(0, question);
  const std::string query = question == std::string::npos
                                ? std::string()
                                : request.target.substr(question + 1);
  if (path == "/v1/suggest") {
    if (request.method != "POST") {
      writer.Send(JsonError(405, "use POST for /v1/suggest"));
      return;
    }
    HandleSuggest(request, writer, start);
    return;
  }
  // HEAD is rejected along with everything else non-GET: the server
  // always writes the body it declares, and silently serving HEAD with
  // a body would desync keep-alive clients.
  if (path == "/healthz") {
    if (request.method != "GET") {
      writer.Send(JsonError(405, "use GET for /healthz"));
      return;
    }
    HandleHealth(writer);
    healthz_metrics_->requests->Increment();
    healthz_metrics_->CountResponse(200);
    healthz_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/readyz") {
    if (request.method != "GET") {
      writer.Send(JsonError(405, "use GET for /readyz"));
      return;
    }
    const int status = HandleReadyz(writer);
    readyz_metrics_->requests->Increment();
    readyz_metrics_->CountResponse(status);
    readyz_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/admin/fault") {
    const int status = HandleAdminFault(request, writer);
    fault_metrics_->requests->Increment();
    fault_metrics_->CountResponse(status);
    fault_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/statsz") {
    if (request.method != "GET") {
      writer.Send(JsonError(405, "use GET for /statsz"));
      return;
    }
    HandleStats(writer);
    statsz_metrics_->requests->Increment();
    statsz_metrics_->CountResponse(200);
    statsz_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/metricsz") {
    if (request.method != "GET") {
      writer.Send(JsonError(405, "use GET for /metricsz"));
      return;
    }
    const std::string format = QueryParam(query, "format");
    if (!format.empty() && format != "openmetrics" && format != "prometheus") {
      RecordRejection(*metricsz_metrics_,
                      "unknown /metricsz format (want openmetrics)");
      writer.Send(JsonError(400, "unknown format '" + format +
                                     "' (want openmetrics or prometheus)"));
      return;
    }
    HandleMetrics(writer, format == "openmetrics");
    metricsz_metrics_->requests->Increment();
    metricsz_metrics_->CountResponse(200);
    metricsz_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/tracez") {
    if (request.method != "GET") {
      writer.Send(JsonError(405, "use GET for /tracez"));
      return;
    }
    HandleTracez(writer);
    tracez_metrics_->requests->Increment();
    tracez_metrics_->CountResponse(200);
    tracez_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/logz") {
    if (request.method != "GET") {
      writer.Send(JsonError(405, "use GET for /logz"));
      return;
    }
    const int status = HandleLogz(query, writer);
    logz_metrics_->requests->Increment();
    logz_metrics_->CountResponse(status);
    logz_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/sloz") {
    if (request.method != "GET") {
      writer.Send(JsonError(405, "use GET for /sloz"));
      return;
    }
    HandleSloz(writer);
    sloz_metrics_->requests->Increment();
    sloz_metrics_->CountResponse(200);
    sloz_metrics_->latency.Record(MillisSince(start));
    return;
  }
  if (path == "/admin/reload") {
    if (request.method != "POST") {
      writer.Send(JsonError(405, "use POST for /admin/reload"));
      return;
    }
    const int status = HandleReload(request, writer);
    reload_metrics_->requests->Increment();
    reload_metrics_->CountResponse(status);
    reload_metrics_->latency.Record(MillisSince(start));
    return;
  }
  writer.Send(JsonError(404, "no route for '" + path + "'"));
}

void SuggestFrontend::HandleSuggest(const HttpRequest& request,
                                    ResponseWriter writer,
                                    Clock::time_point start) {
  // Content negotiation: the same route speaks JSON (default) or the
  // binary frame codec, selected per request by Content-Type. The
  // response always mirrors the request's codec.
  const std::string* content_type = request.FindHeader("Content-Type");
  const bool binary =
      content_type != nullptr && wire::IsBinaryContentType(*content_type);

  serve::Request suggest;
  int64_t budget_ms = 0;  // 0 = fall through to suggest_budget_ms
  uint64_t trace_id = 0;
  uint64_t request_id = 0;  // multiplexing correlator, echoed verbatim
  serve::RequestPriority priority = serve::RequestPriority::kInteractive;

  if (binary) {
    wire::SuggestRequestFrame frame;
    std::string frame_error;
    if (!wire::DecodeSuggestRequest(request.body, &frame, &frame_error)) {
      uint64_t bad_id = 0;
      wire::PeekRequestId(request.body, &bad_id);
      RecordRejection(*suggest_metrics_, "binary frame decode failed");
      writer.Send(
          CodecError(binary, 400, "bad frame: " + frame_error, 0, bad_id));
      return;
    }
    suggest.patient_id = frame.patient_id;
    suggest.features = std::move(frame.features);
    suggest.k = frame.k;
    suggest.explain = frame.explain;
    budget_ms = frame.deadline_ms;
    trace_id = frame.trace_id;
    request_id = frame.request_id;
    if (frame.batch_priority) priority = serve::RequestPriority::kBatch;
  } else {
    JsonValue document;
    std::string parse_error;
    if (!ParseJson(request.body, &document, &parse_error)) {
      RecordRejection(*suggest_metrics_, "request body is not valid JSON");
      writer.Send(JsonError(400, "bad JSON: " + parse_error));
      return;
    }
    if (!document.is_object()) {
      RecordRejection(*suggest_metrics_, "request body is not a JSON object");
      writer.Send(JsonError(400, "body must be a JSON object"));
      return;
    }
    const JsonValue* features = document.Find("features");
    if (features == nullptr || !features->is_array()) {
      RecordRejection(*suggest_metrics_, "'features' missing or not an array");
      writer.Send(JsonError(400, "'features' must be an array of numbers"));
      return;
    }
    suggest.features.reserve(features->Items().size());
    for (const JsonValue& value : features->Items()) {
      if (!value.is_number()) {
        RecordRejection(*suggest_metrics_, "non-numeric 'features' element");
        writer.Send(JsonError(400, "'features' must be an array of numbers"));
        return;
      }
      suggest.features.push_back(static_cast<float>(value.AsDouble()));
    }
    if (const JsonValue* patient_id = document.Find("patient_id")) {
      suggest.patient_id = patient_id->AsInt(-1);
    }
    if (const JsonValue* k = document.Find("k")) {
      const double value = k->AsDouble();
      if (!k->is_number() || !(value >= 1.0 && value <= INT32_MAX) ||
          value != std::trunc(value)) {
        RecordRejection(*suggest_metrics_, "'k' not an integer in range");
        writer.Send(JsonError(400, "'k' must be an integer from 1 to 2147483647"));
        return;
      }
      suggest.k = static_cast<int>(value);
    }
    if (const JsonValue* explain = document.Find("explain")) {
      suggest.explain = explain->AsBool(true);
    }
  }

  // Deadline / priority / trace headers apply to both codecs (for
  // binary, a nonzero in-frame field wins over the header twin). The
  // headers are validated whenever present — a garbage value is a
  // client bug worth a 400 even when an in-frame field outranks it.
  if (const std::string* header = request.FindHeader("X-Deadline-Ms")) {
    uint64_t parsed = 0;
    if (!ParseUintHeader(*header, &parsed) || parsed == 0 ||
        parsed > INT32_MAX) {
      RecordRejection(*suggest_metrics_, "malformed X-Deadline-Ms header");
      writer.Send(CodecError(binary, 400,
                             "X-Deadline-Ms must be a positive integer", 0,
                             request_id));
      return;
    }
    if (budget_ms == 0) budget_ms = static_cast<int64_t>(parsed);
  }
  if (const std::string* header = request.FindHeader("X-Trace-Id")) {
    uint64_t parsed = 0;
    if (!ParseUintHeader(*header, &parsed)) {
      RecordRejection(*suggest_metrics_, "malformed X-Trace-Id header");
      writer.Send(CodecError(binary, 400, "X-Trace-Id must be an integer", 0,
                             request_id));
      return;
    }
    if (trace_id == 0) trace_id = parsed;
  }
  if (const std::string* header = request.FindHeader("X-Priority")) {
    if (AsciiEqualsIgnoreCase(*header, "batch")) {
      priority = serve::RequestPriority::kBatch;
    } else if (!AsciiEqualsIgnoreCase(*header, "interactive")) {
      RecordRejection(*suggest_metrics_, "unknown X-Priority header value");
      writer.Send(CodecError(binary, 400,
                             "X-Priority must be interactive or batch", 0,
                             request_id));
      return;
    }
  }
  if (budget_ms == 0) budget_ms = options_.suggest_budget_ms;
  if (trace_id == 0) {
    trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Head-based sampling decision, made once the request has a trace id.
  // An unsampled request (the common case) carries a null trace: every
  // stamp downstream is a pointer check, and nothing here allocated.
  // http_parse is stamped out-of-band — the span covers dispatch to
  // here, i.e. content negotiation + body decode + header validation.
  std::shared_ptr<obs::Trace> trace =
      service_->trace_collector()->MaybeStartTrace(suggest_sampler_,
                                                   "/v1/suggest", trace_id);
  if (trace) {
    trace->start = start;
    trace->AddStageNs(
        obs::Stage::kHttpParse,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 start)
                .count()));
  }

  // The edge: one RequestContext, created here, carried through every
  // layer. Arrival anchors at dispatch time (not post-parse), so parse
  // cost already counts against the budget.
  suggest.context.arrival = start;
  suggest.context.priority = priority;
  suggest.context.trace_id = trace_id;
  suggest.context.trace = trace;
  if (budget_ms > 0) {
    suggest.context.deadline = start + std::chrono::milliseconds(budget_ms);
  }

  const int64_t patient_id = suggest.patient_id;
  const bool explain = suggest.explain;
  const bool server_timing = options_.server_timing;
  serve::SuggestionService* service = service_;
  std::shared_ptr<RouteMetrics> metrics = suggest_metrics_;
  std::shared_ptr<obs::FlightRecorder> recorder = recorder_;
  const serve::AdmissionController::Decision decision =
      service_->TrySubmitAsync(
          std::move(suggest),
          [writer, service, patient_id, explain, binary, trace_id, request_id,
           metrics, recorder, start, trace, server_timing](
              core::Suggestion suggestion,
              std::shared_ptr<const serve::ModelSnapshot> snapshot,
              std::exception_ptr error) {
            metrics->requests->Increment();
            // One latency record per completion, exemplar attached: the
            // bucket this request lands in remembers its trace id, so an
            // OpenMetrics scrape links tail buckets to /tracez//logz.
            const double total_ms = MillisSince(start);
            metrics->latency.Record(total_ms, trace_id, UnixSecondsNow());
            if (error) {
              int status = 500;
              std::string message;
              try {
                std::rethrow_exception(error);
              } catch (const serve::DeadlineExceeded& e) {
                status = 504;
                message = e.what();
              } catch (const std::invalid_argument& e) {
                status = 400;
                message = e.what();
              } catch (const std::exception& e) {
                message = e.what();
              }
              if (trace) trace->SetStatus(status);
              metrics->CountResponse(status);
              recorder->Record(
                  status >= 500 ? obs::LogSeverity::kError
                                : obs::LogSeverity::kWarning,
                  status == 504   ? obs::LogReason::kExpired
                  : status == 400 ? obs::LogReason::kBadRequest
                                  : obs::LogReason::kScoringError,
                  "/v1/suggest", status, trace_id, total_ms, trace.get());
              obs::TraceSpan serialize_span(trace, obs::Stage::kSerialize);
              HttpResponse response =
                  CodecError(binary, status, message, trace_id, request_id);
              response.extra_headers.emplace_back("X-Trace-Id",
                                                  std::to_string(trace_id));
              writer.Send(std::move(response));
              return;
            }
            metrics->CountResponse(200);
            recorder->Record(obs::LogSeverity::kInfo, obs::LogReason::kNone,
                             "/v1/suggest", 200, trace_id, total_ms,
                             trace.get());
            // Serialize against the snapshot that actually produced the
            // suggestion: under a concurrent reload the service's current
            // snapshot may already be a different model with different
            // drug names and version.
            if (!snapshot) snapshot = service->snapshot();
            obs::TraceSpan serialize_span(trace, obs::Stage::kSerialize);
            HttpResponse response;
            if (binary) {
              response.content_type = wire::kContentType;
              response.body =
                  SuggestionToFrame(suggestion, *snapshot, trace_id, request_id);
            } else {
              response.body = SuggestionToJson(
                  suggestion, snapshot->bundle.drug_names, snapshot->version,
                  patient_id, explain, trace_id);
            }
            response.extra_headers.emplace_back("X-Trace-Id",
                                                std::to_string(trace_id));
            serialize_span.Stop();
            // The header reports the stages stamped so far; serialize is
            // closed above just so it can be included here.
            if (server_timing && trace) {
              std::string timing = ServerTimingValue(*trace);
              if (!timing.empty()) {
                response.extra_headers.emplace_back("Server-Timing",
                                                    std::move(timing));
              }
            }
            writer.Send(std::move(response));
          });
  switch (decision) {
    case serve::AdmissionController::Decision::kAdmit:
      break;
    case serve::AdmissionController::Decision::kShedLoad: {
      suggest_metrics_->requests->Increment();
      suggest_metrics_->latency.Record(MillisSince(start));
      suggest_metrics_->CountResponse(429);
      recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kShedLoad,
                        "/v1/suggest", 429, trace_id, MillisSince(start),
                        trace.get());
      if (trace) trace->SetStatus(429);
      obs::TraceSpan serialize_span(trace, obs::Stage::kSerialize);
      HttpResponse shed = CodecError(binary, 429, "overloaded, retry later",
                                     trace_id, request_id);
      shed.extra_headers.emplace_back("Retry-After", "1");
      shed.extra_headers.emplace_back("X-Trace-Id", std::to_string(trace_id));
      writer.Send(std::move(shed));
      break;
    }
    case serve::AdmissionController::Decision::kShedDeadline: {
      // No Retry-After: the client's budget, not our load, was the
      // problem — retrying with the same budget would shed again.
      suggest_metrics_->requests->Increment();
      suggest_metrics_->latency.Record(MillisSince(start));
      suggest_metrics_->CountResponse(504);
      recorder_->Record(obs::LogSeverity::kWarning,
                        obs::LogReason::kShedDeadline, "/v1/suggest", 504,
                        trace_id, MillisSince(start), trace.get());
      if (trace) trace->SetStatus(504);
      obs::TraceSpan serialize_span(trace, obs::Stage::kSerialize);
      HttpResponse shed = CodecError(
          binary, 504,
          "deadline infeasible: remaining budget below observed service time",
          trace_id, request_id);
      shed.extra_headers.emplace_back("X-Trace-Id", std::to_string(trace_id));
      writer.Send(std::move(shed));
      break;
    }
  }
}

void SuggestFrontend::HandleHealth(ResponseWriter writer) const {
  HttpResponse response;
  JsonWriter json;
  json.BeginObject()
      .Key("status").String("ok")
      .Key("model_version").UInt(service_->model_version())
      .Key("uptime_seconds").Double(service_->uptime_seconds())
      .EndObject();
  response.body = json.str();
  writer.Send(std::move(response));
}

int SuggestFrontend::HandleReadyz(ResponseWriter writer) const {
  // Liveness (healthz) and readiness diverge during graceful shutdown:
  // a draining server still answers in-flight work but must drop out of
  // load-balancer rotation.
  const bool draining = http_ != nullptr && http_->draining();
  HttpResponse response;
  response.status = draining ? 503 : 200;
  JsonWriter json;
  json.BeginObject()
      .Key("ready").Bool(!draining)
      .Key("draining").Bool(draining)
      .Key("model_version").UInt(service_->model_version())
      .EndObject();
  response.body = json.str();
  const int status = response.status;
  writer.Send(std::move(response));
  return status;
}

int SuggestFrontend::HandleAdminFault(const HttpRequest& request,
                                      ResponseWriter writer) {
  fault::FaultInjector* injector = options_.fault_injector.get();
  if (injector == nullptr) {
    writer.Send(JsonError(404, "no fault injector attached"));
    return 404;
  }
  if (request.method == "GET") {
    HttpResponse response;
    response.body = injector->DescribeJson();
    writer.Send(std::move(response));
    return 200;
  }
  if (request.method != "POST") {
    writer.Send(JsonError(405, "use GET or POST for /admin/fault"));
    return 405;
  }
  JsonValue body;
  std::string error;
  const JsonValue* spec = nullptr;
  if (!ParseJson(request.body, &body, &error) ||
      (spec = body.Find("spec")) == nullptr || !spec->is_string()) {
    RecordRejection(*fault_metrics_, "bad /admin/fault body (want {\"spec\"})");
    writer.Send(JsonError(400, "body wants {\"spec\":\"seed=1;reset=0.05\"}"));
    return 400;
  }
  if (spec->AsString().empty()) {
    injector->Clear();
    HttpResponse response;
    response.body = "{\"installed\":false,\"active\":false}";
    writer.Send(std::move(response));
    return 200;
  }
  const io::Status installed = injector->Install(spec->AsString());
  if (!installed.ok) {
    RecordRejection(*fault_metrics_, "unparseable fault spec");
    writer.Send(JsonError(400, installed.message));
    return 400;
  }
  recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kReplicaState,
                    "/admin/fault", 200, 0, 0.0, nullptr,
                    "fault spec installed");
  HttpResponse response;
  response.body = "{\"installed\":true,\"active\":true}";
  writer.Send(std::move(response));
  return 200;
}

void SuggestFrontend::HandleStats(ResponseWriter writer) const {
  const serve::ServiceStats stats = service_->Stats();
  JsonWriter json;
  json.BeginObject();
  json.Key("service").BeginObject()
      .Key("requests").UInt(stats.requests)
      .Key("completed").UInt(stats.completed)
      .Key("expired").UInt(stats.expired)
      .Key("in_flight").UInt(stats.in_flight)
      .Key("queue_depth").UInt(stats.queue_depth)
      .Key("batches").UInt(stats.batches)
      .Key("mean_batch_size").Double(stats.mean_batch_size)
      .Key("qps").Double(stats.qps)
      .Key("p50_latency_ms").Double(stats.p50_latency_ms)
      .Key("p90_latency_ms").Double(stats.p90_latency_ms)
      .Key("p99_latency_ms").Double(stats.p99_latency_ms)
      .Key("max_latency_ms").Double(stats.max_latency_ms)
      .Key("num_threads").Int(stats.num_threads)
      .Key("gemm_backend").String(stats.gemm_backend)
      .Key("quantization").String(stats.quantization)
      .Key("int8_kernel").String(stats.int8_kernel)
      .Key("uptime_seconds").Double(stats.uptime_seconds)
      .EndObject();
  json.Key("admission").BeginObject()
      .Key("admitted").UInt(stats.admitted)
      .Key("shed").UInt(stats.shed)
      .Key("deadline_shed").UInt(stats.deadline_shed)
      .Key("degraded_shed").UInt(stats.degraded_shed)
      .Key("slo_degraded").Bool(stats.slo_degraded)
      .EndObject();
  json.Key("cache").BeginObject()
      .Key("hits").UInt(stats.cache_hits)
      .Key("misses").UInt(stats.cache_misses)
      .Key("hit_rate").Double(stats.cache_hit_rate)
      .Key("coalesced").UInt(stats.coalesced)
      .EndObject();
  // Its own key, not part of "cache": the memo answers explanations of
  // drug vectors, the cache whole suggestions of patients.
  json.Key("explain_memo").BeginObject()
      .Key("hits").UInt(stats.explain_memo_hits)
      .Key("misses").UInt(stats.explain_memo_misses)
      .EndObject();
  // Handler-observed per-route latency (dispatch to response send) —
  // distinct from the service's scoring latency: it includes codec and
  // queueing cost, which is exactly what per-route budgets bound.
  json.Key("routes").BeginObject();
  for (const auto* metrics :
       {suggest_metrics_.get(), healthz_metrics_.get(), statsz_metrics_.get(),
        metricsz_metrics_.get(), tracez_metrics_.get(),
        reload_metrics_.get()}) {
    const serve::LatencyTracker::Percentiles latency =
        metrics->latency.Snapshot();
    json.Key(metrics->route).BeginObject()
        .Key("requests").UInt(metrics->requests->Value())
        .Key("default_budget_ms")
            .Int(metrics == suggest_metrics_.get() ? options_.suggest_budget_ms : 0)
        .Key("p50_ms").Double(latency.p50_ms)
        .Key("p90_ms").Double(latency.p90_ms)
        .Key("p99_ms").Double(latency.p99_ms)
        .Key("max_ms").Double(latency.max_ms)
        .EndObject();
  }
  json.EndObject();
  json.Key("model").BeginObject()
      .Key("version").UInt(stats.model_version)
      .Key("reloads").UInt(stats.reloads)
      .Key("display_name").String(service_->snapshot()->bundle.display_name)
      .Key("quantization").String(stats.quantization)
      .Key("format").String(stats.bundle_format)
      .Key("load_ms").Double(stats.bundle_load_ms)
      .Key("bytes_mapped").UInt(stats.bundle_bytes_mapped);
  // Per-layer weight-quantization error (patient encoder layers first,
  // then decoder layers); empty on the float path.
  json.Key("quant_layer_max_abs_error").BeginArray();
  for (const double error : stats.quant_layer_max_abs_error) json.Double(error);
  json.EndArray();
  json.EndObject();
  if (http_ != nullptr) {
    const HttpServer::Counters http = http_->counters();
    json.Key("http").BeginObject()
        .Key("accepted").UInt(http.accepted)
        .Key("active").UInt(http.active)
        .Key("requests").UInt(http.requests)
        .Key("responses").UInt(http.responses)
        .Key("parse_errors").UInt(http.parse_errors)
        .Key("overload_closed").UInt(http.overload_closed)
        .Key("bad_requests").UInt(bad_requests())
        .EndObject();
  }
  json.EndObject();
  HttpResponse response;
  response.body = json.str();
  writer.Send(std::move(response));
}

void SuggestFrontend::HandleMetrics(ResponseWriter writer,
                                    bool openmetrics) const {
  // The registry holds every serving count; refresh its live gauges,
  // then render it. /statsz reads the same series through Stats().
  service_->RefreshGauges();
  HttpResponse response;
  if (openmetrics) {
    response.content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    response.body = service_->registry()->RenderOpenMetricsText() + "# EOF\n";
  } else {
    response.content_type = "text/plain; version=0.0.4";
    response.body = service_->registry()->RenderPrometheusText();
  }
  writer.Send(std::move(response));
}

int SuggestFrontend::HandleLogz(const std::string& query,
                                ResponseWriter writer) {
  // Rejections here skip RecordRejection: the caller counts the response
  // class from the returned status, so the helper's 4xx bump would
  // double-count.
  obs::LogSeverity min_severity = obs::LogSeverity::kInfo;
  const std::string severity = QueryParam(query, "severity");
  if (!severity.empty() && !obs::ParseLogSeverity(severity, &min_severity)) {
    bad_requests_->Increment();
    recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kBadRequest,
                      "/logz", 400, 0, 0.0, nullptr,
                      "unknown /logz severity filter");
    writer.Send(JsonError(400, "severity must be info, warning or error"));
    return 400;
  }
  uint64_t trace_filter = 0;
  const std::string trace = QueryParam(query, "trace");
  if (!trace.empty() && !ParseUintHeader(trace, &trace_filter)) {
    bad_requests_->Increment();
    recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kBadRequest,
                      "/logz", 400, 0, 0.0, nullptr,
                      "non-numeric /logz trace filter");
    writer.Send(JsonError(400, "trace must be a trace id"));
    return 400;
  }
  HttpResponse response;
  response.content_type = "application/x-ndjson";
  response.body = recorder_->RenderLogzJson(min_severity, trace_filter,
                                            QueryParam(query, "route"));
  writer.Send(std::move(response));
  return 200;
}

void SuggestFrontend::HandleSloz(ResponseWriter writer) const {
  HttpResponse response;
  response.body = service_->slo_engine()->RenderSlozJson();
  writer.Send(std::move(response));
}

void SuggestFrontend::HandleTracez(ResponseWriter writer) const {
  HttpResponse response;
  response.body = service_->trace_collector()->RenderTracezJson();
  writer.Send(std::move(response));
}

int SuggestFrontend::HandleReload(const HttpRequest& request,
                                  ResponseWriter writer) {
  JsonValue document;
  std::string parse_error;
  if (!ParseJson(request.body, &document, &parse_error) ||
      !document.is_object()) {
    bad_requests_->Increment();
    recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kBadRequest,
                      "/admin/reload", 400, 0, 0.0, nullptr,
                      "reload body is not a JSON object");
    writer.Send(JsonError(400, "bad JSON: " + parse_error));
    return 400;
  }
  const JsonValue* path = document.Find("path");
  if (path == nullptr || !path->is_string() || path->AsString().empty()) {
    bad_requests_->Increment();
    recorder_->Record(obs::LogSeverity::kWarning, obs::LogReason::kBadRequest,
                      "/admin/reload", 400, 0, 0.0, nullptr,
                      "reload 'path' missing or empty");
    writer.Send(JsonError(400, "'path' must name a bundle file"));
    return 400;
  }

  // Optional "quantize": "auto" (default) follows the process-wide
  // mode, "none"/"float" pins float, "int8" pins the quantized path —
  // so one reload call flips a live server between float and int8.
  int quantization = io::kQuantizeAuto;
  if (const JsonValue* quantize = document.Find("quantize")) {
    tensor::kernels::QuantMode mode;
    if (!quantize->is_string() ||
        (quantize->AsString() != "auto" &&
         !tensor::kernels::ParseQuantMode(quantize->AsString(), &mode))) {
      bad_requests_->Increment();
      recorder_->Record(obs::LogSeverity::kWarning,
                        obs::LogReason::kBadRequest, "/admin/reload", 400, 0,
                        0.0, nullptr, "unknown reload 'quantize' value");
      writer.Send(JsonError(400, "'quantize' must be auto, none or int8"));
      return 400;
    }
    if (quantize->AsString() != "auto") quantization = static_cast<int>(mode);
  }

  io::InferenceBundle bundle;
  if (const io::Status loaded = io::LoadInferenceBundle(path->AsString(), &bundle);
      !loaded.ok) {
    recorder_->Record(obs::LogSeverity::kError, obs::LogReason::kReloadError,
                      "/admin/reload", 400, 0, 0.0, nullptr,
                      "bundle load failed");
    // Structured failure body: the loader's own diagnosis, the path as
    // given, and the (untouched) served version, so an operator can see
    // what failed and what is still running from the response alone.
    HttpResponse response;
    response.status = 400;
    JsonWriter error;
    error.BeginObject()
        .Key("error").String("cannot load bundle")
        .Key("detail").String(loaded.message)
        .Key("path").String(path->AsString())
        .Key("model_version").UInt(service_->model_version())
        .EndObject();
    response.body = error.str();
    writer.Send(std::move(response));
    return 400;
  }
  bundle.quantization = quantization;
  const int num_drugs = bundle.num_drugs();
  const std::string display_name = bundle.display_name;
  if (const io::Status swapped = service_->Reload(std::move(bundle));
      !swapped.ok) {
    recorder_->Record(obs::LogSeverity::kError, obs::LogReason::kReloadError,
                      "/admin/reload", 409, 0, 0.0, nullptr,
                      "incompatible bundle rejected by Reload");
    writer.Send(JsonError(409, swapped.message));
    return 409;
  }
  HttpResponse response;
  JsonWriter json;
  const std::shared_ptr<const serve::ModelSnapshot> installed =
      service_->snapshot();
  json.BeginObject()
      .Key("model_version").UInt(service_->model_version())
      .Key("display_name").String(display_name)
      .Key("num_drugs").Int(num_drugs)
      .Key("quantization").String(installed->quantization_name())
      .Key("format").String(installed->format_name())
      .Key("load_ms").Double(installed->bundle.load_ms)
      .Key("bytes_mapped").UInt(installed->bundle.bytes_mapped())
      .EndObject();
  response.body = json.str();
  writer.Send(std::move(response));
  return 200;
}

}  // namespace dssddi::net
