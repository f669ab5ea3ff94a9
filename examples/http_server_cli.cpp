// Network serving workflow: load (or train) a frozen inference bundle
// and serve it over HTTP — the epoll front-end, admission control, and
// hot reload, end to end. While running, poke it with curl:
//
//   curl localhost:8080/healthz
//   curl localhost:8080/statsz
//   curl -d '{"features":[0.1,0.2,...],"k":3}' localhost:8080/v1/suggest
//   curl -d '{"path":"/tmp/dssddi_model.dssb"}' localhost:8080/admin/reload
//
//   ./examples/http_server_cli [options]
//     --model PATH       bundle path (default /tmp/dssddi_model.dssb)
//     --host H           bind address (default 127.0.0.1)
//     --port P           port, 0 = ephemeral (default 8080)
//     --loops N          event-loop threads (default 1)
//     --threads T        scoring worker threads (default hardware)
//     --batch B          micro-batch ceiling (default 32)
//     --cache C          cache capacity, 0 disables (default 4096)
//     --max-inflight N   admission bound, 0 = unbounded (default 256)
//     --max-queue N      queue-depth bound, 0 = unbounded (default 512)
//     --deadline-ms D    default /v1/suggest latency budget when the
//                        client sends no X-Deadline-Ms / binary deadline
//                        field; 0 = no default budget (default 250)
//     --duration S       seconds to serve; 0 = until SIGINT (default 0)

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "example_bundle.h"
#include "net/http_server.h"
#include "net/suggest_frontend.h"
#include "serve/service.h"
#include "util/stopwatch.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace dssddi;

  std::string model_path = "/tmp/dssddi_model.dssb";
  std::string host = "127.0.0.1";
  int port = 8080;
  int loops = 1;
  int threads = 0;
  int batch = 32;
  size_t cache = 4096;
  size_t max_inflight = 256;
  size_t max_queue = 512;
  int deadline_ms = 250;
  int duration = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--model") && i + 1 < argc) {
      model_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--host") && i + 1 < argc) {
      host = argv[++i];
    } else if (!std::strcmp(argv[i], "--port") && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--loops") && i + 1 < argc) {
      loops = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--batch") && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--cache") && i + 1 < argc) {
      cache = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--max-inflight") && i + 1 < argc) {
      max_inflight = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--max-queue") && i + 1 < argc) {
      max_queue = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--deadline-ms") && i + 1 < argc) {
      deadline_ms = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--duration") && i + 1 < argc) {
      duration = std::atoi(argv[++i]);
    } else {
      std::printf(
          "usage: %s [--model PATH] [--host H] [--port P] [--loops N]"
          " [--threads T] [--batch B] [--cache C] [--max-inflight N]"
          " [--max-queue N] [--deadline-ms D] [--duration S]\n",
          argv[0]);
      return 1;
    }
  }

  io::InferenceBundle bundle = examples::LoadOrTrainBundle(model_path);
  const int width = bundle.cluster_centroids.cols();

  serve::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.max_batch_size = batch;
  service_options.cache_capacity = cache;
  service_options.admission.max_in_flight = max_inflight;
  service_options.admission.max_queue_depth = max_queue;
  serve::SuggestionService service(std::move(bundle), service_options);

  net::SuggestFrontendOptions frontend_options;
  if (deadline_ms > 0) frontend_options.suggest_budget_ms = deadline_ms;
  net::SuggestFrontend frontend(&service, frontend_options);
  net::HttpServerOptions server_options;
  server_options.host = host;
  server_options.port = port;
  server_options.num_loops = loops;
  // Connection-level faults (parse errors, overload closes) land in the
  // same /logz ring as request events.
  server_options.recorder = service.flight_recorder();
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  if (const io::Status status = server.Start(); !status.ok) {
    std::printf("error: %s\n", status.message.c_str());
    return 1;
  }

  std::printf(
      "serving on http://%s:%d  (%d loop%s, %s; %d scoring threads;"
      " %s gemm; quantize=%s; admission: %zu in-flight / %zu queued;"
      " suggest budget %d ms; feature width %d)\n",
      host.c_str(), server.port(), server.num_loops(),
      server.num_loops() == 1 ? "" : "s",
      server.using_reuseport() ? "SO_REUSEPORT" : "fd handoff",
      service.Stats().num_threads, service.Stats().gemm_backend.c_str(),
      service.Stats().quantization.c_str(), max_inflight, max_queue,
      deadline_ms, width);
  std::printf("try:  curl http://%s:%d/healthz\n", host.c_str(), server.port());
  std::printf("      curl http://%s:%d/statsz\n", host.c_str(), server.port());
  std::printf("      curl 'http://%s:%d/metricsz?format=openmetrics'\n",
              host.c_str(), server.port());
  std::printf("      curl 'http://%s:%d/logz?severity=warning'\n", host.c_str(),
              server.port());
  std::printf("      curl http://%s:%d/sloz\n", host.c_str(), server.port());
  std::printf(
      "      curl -d '{\"patient_id\":1,\"features\":[%d zeros],\"k\":3}'"
      " http://%s:%d/v1/suggest\n",
      width, host.c_str(), server.port());
  std::printf("      curl -d '{\"path\":\"%s\"}' http://%s:%d/admin/reload\n",
              model_path.c_str(), host.c_str(), server.port());
  // Supervisors and scrape scripts tail this banner for the bound port;
  // with stdout redirected to a file it would otherwise sit in the
  // block buffer until shutdown.
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  util::Stopwatch clock;
  while (!g_stop && (duration == 0 || clock.ElapsedSeconds() < duration)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  server.Stop();
  const serve::ServiceStats stats = service.Stats();
  const net::HttpServer::Counters http = server.counters();
  std::printf("\nshutting down after %.1fs\n", stats.uptime_seconds);
  std::printf("  http:    %llu conns, %llu requests, %llu responses,"
              " %llu parse errors\n",
              static_cast<unsigned long long>(http.accepted),
              static_cast<unsigned long long>(http.requests),
              static_cast<unsigned long long>(http.responses),
              static_cast<unsigned long long>(http.parse_errors));
  std::printf("  service: %llu completed (%.0f qps), p50 %.3f ms, p90 %.3f ms,"
              " p99 %.3f ms, max %.3f ms\n",
              static_cast<unsigned long long>(stats.completed), stats.qps,
              stats.p50_latency_ms, stats.p90_latency_ms, stats.p99_latency_ms,
              stats.max_latency_ms);
  std::printf("  admission: %llu admitted, %llu shed, %llu deadline-shed,"
              " %llu expired; model v%llu (%llu reloads)\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.deadline_shed),
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.model_version),
              static_cast<unsigned long long>(stats.reloads));
  return 0;
}
