// Serving workflow: load a frozen inference bundle (training one first if
// the file is missing), start the concurrent SuggestionService, replay a
// synthetic query stream against it, and print the service stats —
// throughput, latency percentiles, batching and cache behavior.
//
//   ./examples/serve_cli [options]
//     --model PATH      bundle path (default /tmp/dssddi_model.dssb)
//     --requests N      queries to replay (default 2000)
//     --threads T       worker threads (default hardware concurrency)
//     --batch B         micro-batch ceiling (default 32)
//     --cache C         cache capacity, 0 disables (default 4096)
//     --k K             suggestion size (default 3)
//     --unique U        distinct patients in the stream (default 64;
//                       smaller = more cache hits)
//
// This is the bundle-export -> serve path end to end: the same file
// written by `dss_cli` (or by this tool's own training fallback) is what
// a clinic host would load and serve.

#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "core/dssddi_system.h"
#include "example_bundle.h"
#include "io/inference_bundle.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace dssddi;

  std::string model_path = "/tmp/dssddi_model.dssb";
  int num_requests = 2000;
  int threads = 0;
  int batch = 32;
  size_t cache = 4096;
  int k = 3;
  int unique_patients = 64;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--model") && i + 1 < argc) {
      model_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--requests") && i + 1 < argc) {
      num_requests = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--batch") && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--cache") && i + 1 < argc) {
      cache = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--k") && i + 1 < argc) {
      k = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--unique") && i + 1 < argc) {
      unique_patients = std::atoi(argv[++i]);
    } else {
      std::printf(
          "usage: %s [--model PATH] [--requests N] [--threads T] [--batch B]"
          " [--cache C] [--k K] [--unique U]\n",
          argv[0]);
      return 1;
    }
  }
  if (k < 1 || num_requests < 1 || unique_patients < 1) {
    std::printf("error: --k, --requests and --unique must all be >= 1\n");
    return 1;
  }

  // 1. Get a bundle: reuse the file if there is one (exiting if it does
  //    not load), otherwise train a small chronic-cohort system and
  //    export it (the dss_cli workflow).
  io::InferenceBundle bundle = examples::LoadOrTrainBundle(model_path);

  // 2. Start the service.
  serve::ServiceOptions options;
  options.num_threads = threads;
  options.max_batch_size = batch;
  options.cache_capacity = cache;
  serve::SuggestionService service(std::move(bundle), options);
  const int width = service.feature_width();
  std::printf(
      "service up: %d threads, batch<=%d, cache=%zu, %s gemm,"
      " quantize=%s, feature width %d\n\n",
      service.Stats().num_threads, batch, cache,
      service.Stats().gemm_backend.c_str(),
      service.Stats().quantization.c_str(), width);

  // 3. Synthesize a query stream: `unique_patients` distinct synthetic
  //    patients, revisited with heavy repetition like a clinic day sheet.
  util::Rng rng(2024);
  std::vector<std::vector<float>> patients(unique_patients);
  for (auto& features : patients) {
    features.resize(width);
    for (float& v : features) v = static_cast<float>(rng.Normal(0.0, 1.0));
  }

  // Closed-loop replay: keep a bounded window of requests in flight,
  // like concurrent clinic frontends waiting on their answers.
  constexpr size_t kWindow = 128;
  util::Stopwatch clock;
  std::deque<std::future<core::Suggestion>> in_flight;
  size_t total_drugs = 0;
  for (int i = 0; i < num_requests; ++i) {
    if (in_flight.size() >= kWindow) {
      total_drugs += in_flight.front().get().drugs.size();
      in_flight.pop_front();
    }
    const int patient = static_cast<int>(rng.NextBelow(unique_patients));
    serve::Request request;
    request.patient_id = patient;
    request.features = patients[patient];
    request.k = k;
    in_flight.push_back(service.Submit(std::move(request)));
  }
  for (auto& future : in_flight) total_drugs += future.get().drugs.size();
  const double elapsed = clock.ElapsedSeconds();

  // 4. Report.
  const serve::ServiceStats stats = service.Stats();
  std::printf("replayed %d requests in %.3fs  (%.0f req/s, %zu drugs suggested)\n",
              num_requests, elapsed, num_requests / elapsed, total_drugs);
  std::printf("  batches: %llu (mean size %.1f)\n",
              static_cast<unsigned long long>(stats.batches), stats.mean_batch_size);
  std::printf("  cache:   %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              100.0 * stats.cache_hit_rate);
  std::printf("  latency: p50 %.3f ms, p99 %.3f ms\n", stats.p50_latency_ms,
              stats.p99_latency_ms);
  return 0;
}
