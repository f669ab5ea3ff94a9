// End-to-end serving benchmark. One run: load (training once per
// build) the deployed v4 bundle, start the real server binaries on
// ephemeral loopback ports in the deployed kernel configuration (blocked
// GEMM, int8), drive one named workload from a single generator thread,
// check every answer against an in-process oracle, and print one JSON
// result line last on stdout. bench/e2e/run.py builds this binary and is
// the entry point; bench/e2e/README.md documents workloads and metrics.
//
//   bench_e2e --workload NAME --seed N --seconds T --trace 0|1
//             --bin-dir DIR --out-dir DIR [--smoke]
//   bench_e2e --selftest
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the
// workload's primary phase untraced and then traced, replays each layer's
// public calls in-process on the workload's own inputs, and reports the
// per-layer metrics (spans land in OUT/trace-<workload>.json).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "host_speed.h"
#include "loadgen.h"
#include "net/http_client.h"
#include "net/json.h"
#include "net/router.h"
#include "net/wire.h"
#include "serve/service.h"
#include "stats.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"

#ifndef DSSDDI_E2E_BUILD_TYPE
#define DSSDDI_E2E_BUILD_TYPE "unknown"
#endif

namespace dssddi::e2e {
namespace {

constexpr const char* kGemmBackend = "blocked";
constexpr const char* kQuantization = "int8";

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Mix {
  kColdExplain,  // JSON, explain, k=3, every patient_id new
  kBulkScore,    // frames, no explain, k=10, every patient_id new
  kRevisit,      // JSON, explain, k=3, Zipf(1.1) over 512 fixed patients
  kFleet,        // 80% binary-over-HTTP scoring, 20% JSON explained
};

struct Workload {
  const char* name;
  bool cluster;  // replica_cluster (2 replicas) instead of http_server_cli
  /// http_server_cli keeps its default suggestion cache (4096 entries).
  /// Off for explain_cold: its patients are all new, so the cache could only
  /// churn, and churning explained entries made the server's memory
  /// high-water mark chaotic (identical runs 10-28 MB; 6.3-8.5 MB with
  /// 512 entries; a steady 5.6-5.9 MB with none).
  bool cache;
  Mix mix;
  double open_rate;  // req/s of the open-loop phase; 0 = closed loop only
  std::vector<ConnectionSpec> connections;
  double reload_every_s;  // POST /admin/reload under load; 0 = never
};

const std::vector<Workload>& Workloads() {
  const ConnectionSpec http{Transport::kHttp, 1};
  const ConnectionSpec frames{Transport::kFrame, 32};
  static const std::vector<Workload> workloads = {
      {"explain_cold", false, false, Mix::kColdExplain, 400.0, {http, http, http, http}, 0.0},
      {"score_bulk", false, true, Mix::kBulkScore, 0.0, {frames, frames}, 0.0},
      {"revisit_reload", false, true, Mix::kRevisit, 1200.0, {http, http, http, http}, 2.0},
      {"fleet_mixed", true, true, Mix::kFleet, 800.0, {http, http, http, http}, 0.0},
  };
  return workloads;
}

std::string JsonBody(const QueryRow& row, const QueryMeta& query) {
  return "{\"patient_id\":" + std::to_string(query.patient_id) +
         ",\"k\":" + std::to_string(query.k) +
         ",\"explain\":" + (query.explain ? "true" : "false") +
         ",\"features\":" + row.json_features + "}";
}

std::string FrameBody(const QueryRow& row, const QueryMeta& query) {
  net::wire::SuggestRequestFrame frame;
  frame.patient_id = query.patient_id;
  frame.deadline_ms = kLatencyLimitMs;
  frame.k = query.k;
  frame.explain = query.explain;
  frame.features = row.features;
  return net::wire::EncodeSuggestRequest(frame);
}

/// The seeded traffic of one workload. Patient ids start at 1 and are
/// new on every request except under kRevisit, whose 512 ids each keep
/// one held-out row, so repeats hit the suggestion cache.
class WorkloadSource : public RequestSource {
 public:
  WorkloadSource(const std::vector<QueryRow>* rows, Mix mix, uint64_t seed)
      : rows_(rows), mix_(mix), rng_(seed) {
    double total = 0.0;
    for (int rank = 1; rank <= kRevisitPatients; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), 1.1);
      zipf_cdf_.push_back(total);
      revisit_rows_.push_back(static_cast<uint32_t>(rng_() % rows_->size()));
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  void Next(Transport /*transport*/, OutgoingRequest* out) override {
    QueryMeta query;
    bool binary = false;
    switch (mix_) {
      case Mix::kColdExplain:
        query = {UniformRow(), kExplainK, true, next_patient_++};
        break;
      case Mix::kBulkScore:
        query = {UniformRow(), kScoreK, false, next_patient_++};
        binary = true;
        break;
      case Mix::kRevisit: {
        const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
        const size_t rank = std::min<size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin(),
            kRevisitPatients - 1);
        query = {revisit_rows_[rank], kExplainK, true, static_cast<int64_t>(rank)};
        break;
      }
      case Mix::kFleet:
        binary = std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < 0.8;
        query = binary ? QueryMeta{UniformRow(), kScoreK, false, next_patient_++}
                       : QueryMeta{UniformRow(), kExplainK, true, next_patient_++};
        break;
    }
    out->query = query;
    out->binary = binary;
    out->body = binary ? FrameBody((*rows_)[query.row], query)
                       : JsonBody((*rows_)[query.row], query);
  }

 private:
  static constexpr int kRevisitPatients = 512;

  uint32_t UniformRow() { return static_cast<uint32_t>(rng_() % rows_->size()); }

  const std::vector<QueryRow>* rows_;
  Mix mix_;
  std::mt19937_64 rng_;
  int64_t next_patient_ = 1;
  std::vector<double> zipf_cdf_;
  std::vector<uint32_t> revisit_rows_;
};

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

double NsToUs(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
}

/// Durations (us) of every span named `name`.
std::vector<double> SpanDurationsUs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) out.push_back(NsToUs(span));
  }
  return out;
}

/// Per-name self time (ms): each span's duration minus its children's.
std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = NsToUs(spans[i]) / 1e3;
  for (const Span& span : spans) {
    if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= NsToUs(span) / 1e3;
  }
  std::map<std::string, double> totals;
  for (size_t i = 0; i < spans.size(); ++i) totals[spans[i].name] += self[i];
  return totals;
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Where one run executes: every thread of the server on the last CPU
/// bench_e2e may use, the load generator on the one before it (one CPU
/// holds both when only one is allowed), both kept awake by IdleSpinners.
///
/// Measured over the same 4-5 seeds per workload, 20 s runs, on a shared
/// 4-vCPU VM (spread = interquartile range over the median):
/// - all on one CPU, no spinner: explain_cold p95 1.6-3.6 ms (97%
///   spread), revisit_reload p95 1.0-4.1 ms, fleet_mixed p95 1.4-5.7 ms;
/// - one CPU each, no spinner: every request wakes a halted vCPU, and
///   explain_cold p50 read 1.0-1.7 ms, p95 1.6-8.3 ms;
/// - one CPU each, spinners: explain_cold p95 1.66-1.95 ms, revisit_reload
///   p95 0.93-1.01 ms, fleet_mixed p95 1.15-1.32 ms.
/// Waking a halted vCPU goes through the host's scheduler, which on a
/// shared host takes from microseconds to milliseconds.
struct Placement {
  cpu_set_t allowed;  // every CPU bench_e2e may use
  int generator_cpu = 0;
  int server_cpu = 0;
};

/// Fills `placement` and pins this thread (the generator) to its CPU.
bool Place(Placement* placement) {
  CPU_ZERO(&placement->allowed);
  ::sched_getaffinity(0, sizeof(placement->allowed), &placement->allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &placement->allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return false;
  placement->server_cpu = cpus.back();
  placement->generator_cpu = cpus[cpus.size() > 1 ? cpus.size() - 2 : 0];
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(placement->generator_cpu, &pinned);
  return ::sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
}

/// One SCHED_IDLE thread spinning on each given CPU for the object's
/// lifetime. It runs only when nothing else on its CPU is runnable, and
/// the scheduler preempts it at once when anything wakes, so it takes no
/// time from the generator or the server; it only keeps the vCPU from
/// halting between requests. (No pause instruction: a hypervisor may
/// read a pause loop as a spinning lock and deschedule the vCPU.)
class IdleSpinners {
 public:
  explicit IdleSpinners(std::vector<int> cpus) {
    std::sort(cpus.begin(), cpus.end());
    cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
    for (const int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::sched_setaffinity(0, sizeof(one), &one);
        const sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& thread : threads_) thread.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// 1-thread over 4-thread wall time for one fixed amount of spinning on
/// the CPUs this process may use (`allowed`, not the one it is pinned to):
/// 4.0 on four idle cores, lower when the host's cores are shared.
double MeasureHostParallelism(const cpu_set_t& allowed) {
  constexpr uint64_t kIterations = 40'000'000;
  auto spin = [&allowed](int threads) {
    const int64_t start = NowNs();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([threads, &allowed] {
        ::sched_setaffinity(0, sizeof(allowed), &allowed);
        volatile uint64_t x = 1;
        for (uint64_t i = 0; i < kIterations / static_cast<uint64_t>(threads); ++i) {
          x = x * 6364136223846793005ull + 1442695040888963407ull;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    return static_cast<double>(NowNs() - start);
  };
  return spin(1) / spin(4);
}

// ---------------------------------------------------------------------
// Server scrapes
// ---------------------------------------------------------------------

/// The front (router or single server) plus every SuggestFrontend behind
/// it (the single server itself, or each replica).
struct ServerScrapes {
  Scrape front;
  std::vector<Scrape> servers;
};

io::Status ScrapeAll(const ServerProcess& server, bool cluster, ServerScrapes* out) {
  if (!cluster) {
    out->servers.resize(1);
    return TakeScrape(server.port(), true, &out->servers[0]);
  }
  if (const io::Status front = TakeScrape(server.port(), false, &out->front); !front.ok) {
    return front;
  }
  out->servers.resize(server.replica_ports().size());
  for (size_t i = 0; i < out->servers.size(); ++i) {
    if (const io::Status got = TakeScrape(server.replica_ports()[i], true, &out->servers[i]);
        !got.ok) {
      return got;
    }
  }
  return io::Status::Ok();
}

double StatszDelta(const ServerScrapes& before, const ServerScrapes& after,
                   const std::string& path) {
  double total = 0.0;
  for (size_t i = 0; i < after.servers.size() && i < before.servers.size(); ++i) {
    total += StatszValue(after.servers[i], path) - StatszValue(before.servers[i], path);
  }
  return total;
}

/// Rows scored across the interval: mean_batch_size x batches is the
/// cumulative row count /statsz implies.
double ScoredRowsDelta(const ServerScrapes& before, const ServerScrapes& after) {
  double total = 0.0;
  for (size_t i = 0; i < after.servers.size() && i < before.servers.size(); ++i) {
    auto rows = [](const Scrape& s) {
      return StatszValue(s, "service.mean_batch_size") * StatszValue(s, "service.batches");
    };
    total += rows(after.servers[i]) - rows(before.servers[i]);
  }
  return total;
}

obs::HistogramSnapshot StageDelta(const ServerScrapes& before, const ServerScrapes& after,
                                  const char* stage) {
  obs::HistogramSnapshot merged;
  for (size_t i = 0; i < after.servers.size() && i < before.servers.size(); ++i) {
    merged.Merge(HistogramDelta(before.servers[i], after.servers[i],
                                "dssddi_stage_latency_ms",
                                std::string("stage=\"") + stage + "\""));
  }
  return merged;
}

double SeriesDelta(const Scrape& before, const Scrape& after, const std::string& key) {
  return SeriesValue(after, key) - SeriesValue(before, key);
}

/// router.* from one router registry interval (the live router of
/// fleet_mixed, or the in-process replay router elsewhere). `exchange_p50`
/// is the end-to-end p50 of the exchanges that router served.
void AddRouterMetrics(const Scrape& before, const Scrape& after, double exchange_p50,
                      std::vector<Metric>* metrics) {
  const std::string requests = "dssddi_router_requests_total{outcome=\"";
  const double served = SeriesDelta(before, after, requests + "ok\"}") +
                        SeriesDelta(before, after, requests + "stale\"}") +
                        SeriesDelta(before, after, requests + "error\"}");
  const obs::HistogramSnapshot tries = HistogramDelta(
      before, after, "dssddi_request_latency_ms", "route=\"replica_try\"");
  const double won = SeriesDelta(before, after, "dssddi_router_hedges_total{result=\"won\"}");
  const double lost = SeriesDelta(before, after, "dssddi_router_hedges_total{result=\"lost\"}");
  const double try_p50 = tries.Quantile(0.5);
  const size_t n = static_cast<size_t>(served);
  metrics->push_back({"router.tries_per_request",
                      served > 0 ? static_cast<double>(tries.count) / served : 0.0,
                      "ratio", n});
  metrics->push_back({"router.retries",
                      SeriesDelta(before, after, "dssddi_router_retries_total"), "count", n});
  metrics->push_back({"router.hedges", won + lost, "count", n});
  metrics->push_back({"router.hedge_waste_ratio", won + lost > 0 ? lost / (won + lost) : 0.0,
                      "ratio", static_cast<size_t>(won + lost)});
  metrics->push_back({"router.stale_responses",
                      SeriesDelta(before, after, requests + "stale\"}"), "count", n});
  metrics->push_back({"router.try_ms_p50", try_p50, "ms", tries.count});
  metrics->push_back({"router.self_ms_p50", exchange_p50 - try_p50, "ms", n});
}

// ---------------------------------------------------------------------
// In-process replays (traced runs)
// ---------------------------------------------------------------------

template <typename F>
void Timed(std::vector<Span>* spans, const char* name, uint64_t id, F&& call) {
  const int64_t start = NowNs();
  call();
  spans->push_back({name, start, NowNs(), id, -1});
}

/// Multiply-adds of one PredictScores pass over `batch` rows, from the
/// layer shapes: patient MLP on the batch, decoder MLP on batch x |V|
/// interaction rows, plus the elementwise patient x drug products.
double PredictFlops(const io::InferenceBundle& bundle, int batch) {
  double flops = 0.0;
  for (const io::FrozenMlp::Layer& layer : bundle.patient_fc.layers) {
    flops += 2.0 * batch * layer.weight.rows() * layer.weight.cols();
  }
  const double pairs = static_cast<double>(batch) * bundle.num_drugs();
  for (const io::FrozenMlp::Layer& layer : bundle.decoder.layers) {
    flops += 2.0 * pairs * layer.weight.rows() * layer.weight.cols();
  }
  return flops + pairs * bundle.hidden_dim;
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string bin_dir;
  std::string out_dir;
};

void WriteSpans(const std::string& path, const Workload& workload, uint64_t seed,
                const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "{\"workload\":\"%s\",\"seed\":%llu,\"self_time_ms\":{", workload.name,
               static_cast<unsigned long long>(seed));
  bool first = true;
  for (const auto& [name, ms] : SelfTimesMs(spans)) {
    std::fprintf(file, "%s\"%s\":%.6f", first ? "" : ",", name.c_str(), ms);
    first = false;
  }
  std::fprintf(file, "},\"spans\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"request_id\":%llu,\"parent\":%lld}",
                 i == 0 ? "" : ",\n", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(file, "\n]}\n");
  std::fclose(file);
}

/// One window of a measured phase, as the end-to-end metrics read it.
struct Window {
  double elapsed_s = 0.0;
  size_t answers = 0;
  uint64_t in_limit = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  /// Host speed around the window, as a share of kReferenceProbeRate:
  /// the mean of the probes just before and just after it.
  double speed = 1.0;
};

/// A phase: `windows` back-to-back runs of the same traffic (one, unless
/// the phase is measured end to end), folded into `result`.
struct PhaseRecord {
  const char* name;
  PhaseOptions options;  // of one window
  PhaseResult result;
  std::vector<Window> windows;
  double server_cpu_s;  // CPU the server process used during the phase
};

/// Adds `window`'s counts and samples to `into`.
void Fold(PhaseResult& into, PhaseResult&& window) {
  into.elapsed_s += window.elapsed_s;
  into.attempted += window.attempted;
  into.ok += window.ok;
  into.wrong += window.wrong;
  into.rejected += window.rejected;
  into.lost += window.lost;
  into.over_limit += window.over_limit;
  into.explained += window.explained;
  auto append = [](auto& to, auto& from) { to.insert(to.end(), from.begin(), from.end()); };
  append(into.latency_ms, window.latency_ms);
  append(into.lag_ms, window.lag_ms);
  append(into.reload_ms, window.reload_ms);
  append(into.reload_versions, window.reload_versions);
  append(into.spans, window.spans);
  into.bytes_out += window.bytes_out;
  into.bytes_in += window.bytes_in;
  into.reload_failures += window.reload_failures;
  into.max_model_version = std::max(into.max_model_version, window.max_model_version);
  into.cpu_s += window.cpu_s;
}

void WritePhase(net::JsonWriter& json, const PhaseRecord& record) {
  const PhaseOptions& options = record.options;
  const PhaseResult& phase = record.result;
  json.BeginObject()
      .Key("phase").String(record.name)
      .Key("loop").String(options.open_rate > 0 ? "open" : "closed")
      .Key("rate_rps").Double(options.open_rate)
      .Key("connections").Int(static_cast<int64_t>(options.connections.size()))
      .Key("window_s").Double(options.seconds)
      .Key("elapsed_s").Double(phase.elapsed_s)
      .Key("attempted").UInt(phase.attempted)
      .Key("ok").UInt(phase.ok)
      .Key("wrong").UInt(phase.wrong)
      .Key("rejected").UInt(phase.rejected)
      .Key("lost").UInt(phase.lost)
      .Key("over_limit").UInt(phase.over_limit)
      .Key("p50_ms").Double(Percentile(phase.latency_ms, 0.5))
      .Key("p90_ms").Double(Percentile(phase.latency_ms, 0.9))
      .Key("p99_ms").Double(Percentile(phase.latency_ms, 0.99))
      .Key("samples_beyond_p99").UInt(SamplesBeyond(phase.latency_ms, 0.99))
      .Key("lag_p99_ms").Double(Percentile(phase.lag_ms, 0.99))
      .Key("reloads").UInt(phase.reload_ms.size())
      .Key("reload_p50_ms").Double(Median(phase.reload_ms))
      .Key("generator_cpu_s").Double(phase.cpu_s)
      .Key("server_cpu_s").Double(record.server_cpu_s);
  // As measured, before any speed adjustment: how steady the host was.
  json.Key("windows").BeginArray();
  for (const Window& window : record.windows) {
    json.BeginObject()
        .Key("elapsed_s").Double(window.elapsed_s)
        .Key("answers").UInt(window.answers)
        .Key("in_limit").UInt(window.in_limit)
        .Key("p50_ms").Double(window.p50_ms)
        .Key("p95_ms").Double(window.p95_ms)
        .Key("host_speed").Double(window.speed)
        .EndObject();
  }
  json.EndArray();
  json.EndObject();
}

/// Everything one run accumulates, shared by its steps.
struct Run {
  Run(const Workload& w, const Options& o, const Placement& p)
      : workload(w), options(o), placement(p) {}

  const Workload& workload;
  const Options& options;
  const Placement& placement;
  std::string bundle_path;
  io::InferenceBundle bundle;
  std::vector<QueryRow> rows;
  AnswerChecker checker{&rows};
  ServerProcess server;
  std::string reload_body;
  std::vector<double> setup_s;
  std::vector<double> setup_speed;  // host speed probed before each spawn's group
  std::vector<double> idle_reload_ms;
  /// The model_version the reloaded server should now report.
  uint64_t last_version = 1;
  std::deque<PhaseRecord> phases;  // deque: references to records stay valid
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  /// Failed checks; any one makes the run's `correct` false.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<Span> spans;
};

std::vector<std::string> ServerArgv(const Run& run) {
  const std::string& bin = run.options.bin_dir;
  if (run.workload.cluster) {
    return {bin + "/examples/replica_cluster", "--model", run.bundle_path, "--port", "0",
            "--replicas", "2", "--threads", "1", "--duration", "300"};
  }
  std::vector<std::string> argv = {bin + "/examples/http_server_cli", "--model",
                                   run.bundle_path, "--port", "0", "--threads", "1",
                                   "--loops", "1", "--duration", "300"};
  if (!run.workload.cache) argv.insert(argv.end(), {"--cache", "0"});
  return argv;
}

/// Seconds of probe work per host-speed probe: about 180 chunks.
constexpr double kProbeS = 0.03;

/// The servers' CPU's speed right now, as a share of the reference speed.
double HostSpeed(const Run& run) {
  return ProbeRate(run.placement.server_cpu, kProbeS) / kReferenceProbeRate;
}

/// setup_s samples: spawn to first verified answer, `repeats` times into
/// `server`, whose last spawn keeps running, after one host-speed probe.
/// False when a server fails to come up. The answer is score-only: an
/// explanation's cost depends on the patient (so on the seed), and
/// explain_cold already times it.
bool MeasureSetup(Run& run, ServerProcess& server, int repeats) {
  const QueryMeta probe{0, kScoreK, false, -1};
  const std::string body = JsonBody(run.rows[0], probe);
  const std::vector<std::string> argv = ServerArgv(run);
  const double speed = HostSpeed(run);
  for (int i = 0; i < repeats; ++i) {
    server.Kill();
    const int64_t spawned = NowNs();
    if (const io::Status started = server.Start(argv, run.placement.server_cpu, 60000);
        !started.ok) {
      std::fprintf(stderr, "error: %s\n", started.message.c_str());
      return false;
    }
    int status = 0;
    std::string answer;
    uint64_t version = 0;
    const io::Status asked =
        HttpExchange(server.port(), "POST", "/v1/suggest", body, &status, &answer);
    if (!asked.ok || status != 200 ||
        !run.checker.CheckJson(probe, answer.data(), answer.size(), &version)) {
      std::fprintf(stderr, "error: first answer failed (%s, status %d): %s\n",
                   asked.message.c_str(), status, run.checker.first_error().c_str());
      return false;
    }
    run.setup_s.push_back(static_cast<double>(NowNs() - spawned) / 1e9);
    run.setup_speed.push_back(speed);
  }
  return true;
}

/// /admin/reload round trips on the idle server (replica 0 of a cluster),
/// each of which must bump model_version by one.
bool MeasureIdleReloads(Run& run) {
  net::HttpClient admin;
  const int port =
      run.workload.cluster ? run.server.replica_ports().at(0) : run.server.port();
  if (const io::Status connected = admin.Connect("127.0.0.1", port); !connected.ok) {
    std::fprintf(stderr, "error: admin connect: %s\n", connected.message.c_str());
    return false;
  }
  // A fresh server's first ~10 round trips run up to 2x slower (cold
  // caches); they are made but not timed.
  const int untimed = run.options.smoke ? 1 : 10;
  const int timed = run.options.smoke ? 3 : 40;
  for (int i = 0; i < untimed + timed; ++i) {
    net::ClientResponse response;
    const int64_t sent = NowNs();
    const io::Status done = admin.Request("POST", "/admin/reload", run.reload_body, &response);
    if (i >= untimed) run.idle_reload_ms.push_back(static_cast<double>(NowNs() - sent) / 1e6);
    net::JsonValue answer;
    std::string error;
    const net::JsonValue* version = nullptr;
    if (!done.ok || response.status != 200 || !net::ParseJson(response.body, &answer, &error) ||
        (version = answer.Find("model_version")) == nullptr ||
        static_cast<uint64_t>(version->AsInt()) != run.last_version + 1) {
      run.problems.push_back("idle reload did not bump model_version by one");
      return true;
    }
    run.last_version = static_cast<uint64_t>(version->AsInt());
  }
  return true;
}

/// Runs one phase of `windows` back-to-back windows of `options` (each on
/// the next seed) and folds its outcome into the run's counts and checks.
/// Between windows every request has been answered and the servers are
/// idle; with `probe`, the host's speed is probed then on their CPU,
/// before the first window and after each one.
const PhaseRecord& RunPhase(Run& run, LoadGenerator& generator, const char* name,
                            PhaseOptions options, int windows, bool probe) {
  const double cpu_before = run.server.CpuSeconds();
  PhaseRecord record{name, options, {}, {}, 0.0};
  double speed_before = probe ? HostSpeed(run) : 1.0;
  for (int i = 0; i < windows; ++i) {
    PhaseResult result = generator.Run(options);
    ++options.seed;
    const double speed_after = probe ? HostSpeed(run) : 1.0;
    Window window;
    window.elapsed_s = result.elapsed_s;
    window.answers = result.latency_ms.size();
    window.in_limit = result.in_limit();
    window.p50_ms = Percentile(result.latency_ms, 0.5);
    window.p95_ms = Percentile(result.latency_ms, 0.95);
    window.speed = (speed_before + speed_after) / 2.0;
    record.windows.push_back(window);
    Fold(record.result, std::move(result));
    speed_before = speed_after;
  }
  record.server_cpu_s = run.server.CpuSeconds() - cpu_before;
  run.phases.push_back(std::move(record));
  const PhaseResult& phase = run.phases.back().result;
  run.attempted += phase.attempted;
  run.failed += phase.failed();
  run.wrong += phase.wrong;
  if (phase.reload_failures > 0) run.problems.push_back("a reload under load failed");
  for (const uint64_t version : phase.reload_versions) {
    if (version != run.last_version + 1) {
      run.problems.push_back("a reload under load did not bump model_version by one");
    }
    run.last_version = version;
  }
  if (!phase.reload_versions.empty() && phase.max_model_version < run.last_version) {
    run.problems.push_back("no answer came from the reloaded model");
  }
  return run.phases.back();
}

/// Every time is reported at the reference host speed (host_speed.h): a
/// window's p50, p95 and in-limit answers per second, and each setup
/// spawn, are scaled by the host speed probed around them (to the power
/// kSpeedElasticity), and the metric is the median over the phase's
/// windows (spawns). A stall of a second or two then moves one window, not
/// the pooled tail.
void AddEndToEndMetrics(Run& run, const PhaseRecord& latency, const PhaseRecord& capacity,
                        double peak_rss_mb) {
  std::vector<double> p50, p95, rate, latency_speed, capacity_speed;
  for (const Window& window : latency.windows) {
    p50.push_back(window.p50_ms);
    p95.push_back(window.p95_ms);
    latency_speed.push_back(window.speed);
  }
  for (const Window& window : capacity.windows) {
    rate.push_back(window.elapsed_s > 0 ? static_cast<double>(window.in_limit) / window.elapsed_s
                                        : 0.0);
    capacity_speed.push_back(window.speed);
  }
  const size_t answers = latency.result.latency_ms.size();
  std::vector<Metric>& m = run.metrics;
  const double e = kSpeedElasticity;
  m.push_back({"setup_s", MedianAtReferenceSpeed(run.setup_s, run.setup_speed, e), "s",
               run.setup_s.size()});
  m.push_back({"p50_ms", MedianAtReferenceSpeed(p50, latency_speed, e), "ms", answers});
  m.push_back({"p95_ms", MedianAtReferenceSpeed(p95, latency_speed, e), "ms", answers});
  m.push_back({"capacity_rps", MedianAtReferenceSpeed(rate, capacity_speed, -e), "req/s",
               capacity.result.in_limit()});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB", 1});
}

/// explain.*: MsModule::Explain replayed on the suggested drug sets of the
/// workload's own requests, and its share of the end-to-end time.
void AddExplainMetrics(Run& run, const std::vector<OutgoingRequest>& replay,
                       const serve::ModelSnapshot& snapshot, const PhaseResult& traced,
                       double explained_on_server) {
  std::set<std::vector<int>> distinct_sets;
  double subgraph_nodes = 0.0;
  double trussness = 0.0;
  for (size_t i = 0; i < replay.size(); ++i) {
    const core::Suggestion& expected = run.rows[replay[i].query.row].explained;
    Timed(&run.spans, "replay.explain", i, [&] { snapshot.ms.Explain(expected.drugs); });
    distinct_sets.insert(expected.drugs);
    subgraph_nodes += static_cast<double>(expected.explanation.subgraph_drugs.size());
    trussness += expected.explanation.trussness;
  }
  const std::vector<double> explain_us = SpanDurationsUs(run.spans, "replay.explain");
  const double n = static_cast<double>(replay.size());
  const double answered = static_cast<double>(traced.ok + traced.wrong + traced.rejected);
  const double e2e_mean = Mean(traced.latency_ms);
  std::vector<Metric>& m = run.metrics;
  m.push_back({"explain.call_us_p50", Percentile(explain_us, 0.5), "us", explain_us.size()});
  m.push_back({"explain.call_us_p99", Percentile(explain_us, 0.99), "us", explain_us.size()});
  m.push_back({"explain.subgraph_nodes_mean", subgraph_nodes / n, "count", replay.size()});
  m.push_back({"explain.trussness_mean", trussness / n, "count", replay.size()});
  m.push_back({"explain.distinct_drug_sets", static_cast<double>(distinct_sets.size()),
               "count", replay.size()});
  m.push_back({"explain.share_of_e2e",
               answered > 0 && e2e_mean > 0
                   ? Mean(explain_us) / 1e3 * explained_on_server / (e2e_mean * answered)
                   : 0.0,
               "ratio", static_cast<size_t>(answered)});
}

/// kernels.*: PredictScores replayed at batch 1 and 32 on the workload's
/// rows, plus the servers' sampled gemm stage.
void AddKernelMetrics(Run& run, const std::vector<OutgoingRequest>& replay,
                      const serve::ModelSnapshot& snapshot, const ServerScrapes& before,
                      const ServerScrapes& after) {
  const int width = static_cast<int>(run.rows[0].features.size());
  for (size_t i = 0; i < std::min<size_t>(replay.size(), 400); ++i) {
    const std::vector<float>& features = run.rows[replay[i].query.row].features;
    tensor::Matrix x(1, width);
    std::copy(features.begin(), features.end(), x.RowPtr(0));
    Timed(&run.spans, "replay.predict_b1", i, [&] { snapshot.bundle.PredictScores(x); });
  }
  for (size_t b = 0; b + 32 <= std::min<size_t>(replay.size(), 32 * 60); b += 32) {
    tensor::Matrix x(32, width);
    for (int r = 0; r < 32; ++r) {
      const std::vector<float>& features = run.rows[replay[b + r].query.row].features;
      std::copy(features.begin(), features.end(), x.RowPtr(r));
    }
    Timed(&run.spans, "replay.predict_b32", b, [&] { snapshot.bundle.PredictScores(x); });
  }
  const std::vector<double> b1_us = SpanDurationsUs(run.spans, "replay.predict_b1");
  const std::vector<double> b32_us = SpanDurationsUs(run.spans, "replay.predict_b32");
  const double b32_us_median = Median(b32_us);
  const obs::HistogramSnapshot gemm = StageDelta(before, after, "gemm");
  std::vector<Metric>& m = run.metrics;
  m.push_back({"kernels.predict_us_per_row_b1", Median(b1_us), "us", b1_us.size()});
  m.push_back({"kernels.predict_us_per_row_b32", b32_us_median / 32.0, "us", b32_us.size()});
  m.push_back({"kernels.gflops_b32",
               b32_us_median > 0 ? PredictFlops(snapshot.bundle, 32) / (b32_us_median * 1e3)
                                 : 0.0,
               "GFLOP/s", b32_us.size()});
  m.push_back({"kernels.gemm_ms_p50", gemm.Quantile(0.5), "ms", gemm.count});
}

/// serve.*: batcher, cache and admission, from /statsz and stage deltas.
void AddServeMetrics(Run& run, const ServerScrapes& before, const ServerScrapes& after) {
  const obs::HistogramSnapshot queue_wait = StageDelta(before, after, "queue_wait");
  const obs::HistogramSnapshot epilogue = StageDelta(before, after, "epilogue");
  const double batches = StatszDelta(before, after, "service.batches");
  const double hits = StatszDelta(before, after, "cache.hits");
  const double misses = StatszDelta(before, after, "cache.misses");
  std::vector<Metric>& m = run.metrics;
  m.push_back({"serve.queue_wait_ms_p50", queue_wait.Quantile(0.5), "ms", queue_wait.count});
  m.push_back({"serve.queue_wait_ms_p99", queue_wait.Quantile(0.99), "ms", queue_wait.count});
  m.push_back({"serve.epilogue_ms_p50", epilogue.Quantile(0.5), "ms", epilogue.count});
  m.push_back({"serve.mean_batch_size",
               batches > 0 ? ScoredRowsDelta(before, after) / batches : 0.0, "rows",
               static_cast<size_t>(batches)});
  m.push_back({"serve.batches", batches, "count", 1});
  m.push_back({"serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio", static_cast<size_t>(hits + misses)});
  m.push_back({"serve.cache_hits", hits, "count", 1});
  m.push_back({"serve.cache_misses", misses, "count", 1});
  m.push_back({"serve.coalesced", StatszDelta(before, after, "cache.coalesced"), "count", 1});
  m.push_back({"serve.shed", StatszDelta(before, after, "admission.shed"), "count", 1});
  m.push_back({"serve.deadline_shed", StatszDelta(before, after, "admission.deadline_shed"),
               "count", 1});
  m.push_back({"serve.expired", StatszDelta(before, after, "service.expired"), "count", 1});
}

/// net.*: codec calls replayed on the workload's bodies (both codecs,
/// whichever the workload speaks), stage deltas and wire bytes.
void AddNetMetrics(Run& run, const std::vector<OutgoingRequest>& replay,
                   const PhaseResult& traced, const ServerScrapes& before,
                   const ServerScrapes& after) {
  for (size_t i = 0; i < replay.size(); ++i) {
    const QueryRow& row = run.rows[replay[i].query.row];
    const std::string json = JsonBody(row, replay[i].query);
    const std::string frame = FrameBody(row, replay[i].query);
    net::JsonValue document;
    net::wire::SuggestRequestFrame decoded;
    std::string error;
    Timed(&run.spans, "replay.json_parse", i, [&] { net::ParseJson(json, &document, &error); });
    Timed(&run.spans, "replay.wire_decode", i,
          [&] { net::wire::DecodeSuggestRequest(frame, &decoded, &error); });
  }
  const std::vector<double> parse_us = SpanDurationsUs(run.spans, "replay.json_parse");
  const std::vector<double> decode_us = SpanDurationsUs(run.spans, "replay.wire_decode");
  const obs::HistogramSnapshot http_parse = StageDelta(before, after, "http_parse");
  const obs::HistogramSnapshot serialize = StageDelta(before, after, "serialize");
  const uint64_t answered = traced.ok + traced.wrong + traced.rejected;
  std::vector<Metric>& m = run.metrics;
  m.push_back({"net.json_parse_us_p50", Median(parse_us), "us", parse_us.size()});
  m.push_back({"net.wire_decode_us_p50", Median(decode_us), "us", decode_us.size()});
  m.push_back({"net.http_parse_ms_p50", http_parse.Quantile(0.5), "ms", http_parse.count});
  m.push_back({"net.serialize_ms_p50", serialize.Quantile(0.5), "ms", serialize.count});
  m.push_back({"net.request_bytes",
               traced.attempted > 0 ? static_cast<double>(traced.bytes_out) /
                                          static_cast<double>(traced.attempted)
                                    : 0.0,
               "bytes", traced.attempted});
  m.push_back({"net.response_bytes",
               answered > 0 ? static_cast<double>(traced.bytes_in) / static_cast<double>(answered)
                            : 0.0,
               "bytes", answered});
}

/// io.*: the v4 load and the snapshot build replayed, plus the idle
/// reload round trips measured at set-up.
void AddIoMetrics(Run& run) {
  size_t bytes_mapped = 0;
  for (int i = 0; i < 15; ++i) {
    io::InferenceBundle loaded;
    Timed(&run.spans, "replay.load", i,
          [&] { io::LoadInferenceBundle(run.bundle_path, &loaded); });
    bytes_mapped = loaded.bytes_mapped();
    loaded.quantization = run.bundle.quantization;
    Timed(&run.spans, "replay.snapshot_build", i,
          [&] { serve::ModelSnapshot built(std::move(loaded), 2); });
  }
  const std::vector<double> load_us = SpanDurationsUs(run.spans, "replay.load");
  const std::vector<double> build_us = SpanDurationsUs(run.spans, "replay.snapshot_build");
  std::vector<Metric>& m = run.metrics;
  m.push_back({"io.load_ms_p50", Median(load_us) / 1e3, "ms", load_us.size()});
  m.push_back({"io.snapshot_build_ms_p50", Median(build_us) / 1e3, "ms", build_us.size()});
  m.push_back({"io.bytes_mapped", static_cast<double>(bytes_mapped), "bytes", 1});
  m.push_back({"io.reload_rtt_ms_p50", Median(run.idle_reload_ms), "ms",
               run.idle_reload_ms.size()});
}

/// router.*: the live router of a cluster; elsewhere the workload's
/// requests replayed through an in-process net::Router in front of the
/// same live server (answers oracle-checked like the load's).
void AddRouterLayer(Run& run, const std::vector<OutgoingRequest>& replay,
                    const PhaseResult& traced, const ServerScrapes& before,
                    const ServerScrapes& after) {
  if (run.workload.cluster) {
    AddRouterMetrics(before.front, after.front, Percentile(traced.latency_ms, 0.5),
                     &run.metrics);
    return;
  }
  net::ReplicaClientOptions endpoint;
  endpoint.port = run.server.port();
  auto registry = std::make_shared<obs::Registry>();
  net::Router router({endpoint}, net::RouterOptions{}, registry,
                     std::make_shared<obs::FlightRecorder>());
  Scrape router_before;
  ParseExposition(registry->RenderPrometheusText(), &router_before);
  for (size_t i = 0; i < std::min<size_t>(replay.size(), 300); ++i) {
    const OutgoingRequest& request = replay[i];
    net::RouterResult routed;
    Timed(&run.spans, "replay.router_exchange", i, [&] {
      router.Exchange("/v1/suggest", request.body,
                      request.binary ? net::wire::kContentType : "application/json",
                      kLatencyLimitMs, &routed);
    });
    uint64_t version = 0;
    const bool ok = routed.status == 200 &&
                    (request.binary ? run.checker.CheckFrame(request.query, routed.body, &version)
                                    : run.checker.CheckJson(request.query, routed.body.data(),
                                                            routed.body.size(), &version));
    if (!ok) {
      run.problems.push_back("a routed replay answer differs from the oracle");
      break;
    }
  }
  Scrape router_after;
  ParseExposition(registry->RenderPrometheusText(), &router_after);
  AddRouterMetrics(router_before, router_after,
                   Median(SpanDurationsUs(run.spans, "replay.router_exchange")) / 1e3,
                   &run.metrics);
}

/// Every per-layer metric of a traced run: the traced phase, the scrapes
/// around it, and in-process replays of 1500 requests drawn from the
/// workload's own request stream.
void AddPerLayerMetrics(Run& run, const PhaseResult& untraced, const PhaseResult& traced,
                        const ServerScrapes& before, const ServerScrapes& after) {
  run.spans = traced.spans;
  WorkloadSource replay_source(&run.rows, run.workload.mix, run.options.seed + 7);
  std::vector<OutgoingRequest> replay(run.options.smoke ? 200 : 1500);
  for (OutgoingRequest& request : replay) {
    replay_source.Next(run.workload.connections[0].transport, &request);
  }
  const serve::ModelSnapshot snapshot(run.bundle, 1);
  // Every explained answer that was neither a cache hit nor coalesced onto
  // another request is one explanation a server computed.
  AddExplainMetrics(run, replay, snapshot, traced,
                    static_cast<double>(traced.explained) -
                        StatszDelta(before, after, "cache.hits") -
                        StatszDelta(before, after, "cache.coalesced"));
  AddKernelMetrics(run, replay, snapshot, before, after);
  AddServeMetrics(run, before, after);
  AddNetMetrics(run, replay, traced, before, after);
  AddIoMetrics(run);
  AddRouterLayer(run, replay, traced, before, after);

  std::vector<Metric>& m = run.metrics;
  m.push_back({"loadgen.send_lag_p99_ms", Percentile(traced.lag_ms, 0.99), "ms",
               traced.lag_ms.size()});
  m.push_back({"loadgen.sent", static_cast<double>(traced.attempted), "count", 1});
  m.push_back({"loadgen.completed",
               static_cast<double>(traced.ok + traced.wrong + traced.rejected), "count", 1});
  m.push_back({"loadgen.cpu_s", traced.cpu_s, "s", 1});

  // Stage time per sampled request, summed over every stage the servers
  // time, against the client's mean.
  double sampled = 0.0;
  for (size_t i = 0; i < after.servers.size(); ++i) {
    sampled += SeriesDelta(before.servers[i], after.servers[i], "dssddi_traces_sampled_total");
  }
  double stage_ms = 0.0;
  for (int s = 0; s < obs::kNumStages; ++s) {
    stage_ms += StageDelta(before, after, obs::StageName(static_cast<obs::Stage>(s))).sum;
  }
  m.push_back({"e2e.unattributed_ms_mean",
               Mean(traced.latency_ms) - (sampled > 0 ? stage_ms / sampled : 0.0), "ms",
               static_cast<size_t>(sampled)});
  m.push_back({"e2e.over_limit", static_cast<double>(traced.over_limit), "count", traced.ok});
  m.push_back({"obs.trace_overhead_p50_ms",
               Percentile(traced.latency_ms, 0.5) - Percentile(untraced.latency_ms, 0.5), "ms",
               traced.latency_ms.size()});
}

/// The full record, at OUT/result-<workload>[-trace].json; returns its path.
std::string WriteResult(const Run& run, const PhaseResult& latency_phase, double cache_hits,
                        double coalesced, double end_rss_mb) {
  const double lag_p99 = Percentile(latency_phase.lag_ms, 0.99);
  net::JsonWriter result;
  result.BeginObject()
      .Key("workload").String(run.workload.name)
      .Key("seed").UInt(run.options.seed)
      .Key("seconds").Double(run.options.seconds)
      .Key("trace").Bool(run.options.trace)
      .Key("smoke").Bool(run.options.smoke)
      .Key("correct").Bool(run.problems.empty())
      .Key("attempted").UInt(run.attempted)
      .Key("failed").UInt(run.failed);
  result.Key("problems").BeginArray();
  for (const std::string& problem : run.problems) result.String(problem);
  result.EndArray();
  result.Key("checks").BeginObject()
      .Key("wrong_answers").UInt(run.wrong)
      .Key("cache_hits").Double(cache_hits)
      .Key("coalesced").Double(coalesced)
      .Key("model_version_after_reloads").UInt(run.last_version)
      .Key("peak_rss_mb_at_end").Double(end_rss_mb)
      .Key("generator_lag_p99_ms").Double(lag_p99)
      .Key("generator_lag_valid").Bool(lag_p99 <= 1.0)
      .Key("host_speed_p50").Double(Median(run.setup_speed))
      .Key("first_error").String(run.checker.first_error())
      .EndObject();
  result.Key("provenance").BeginObject()
      .Key("nproc").Int(static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Key("cpu_model").String(ReadCpuModel())
      .Key("build_type").String(DSSDDI_E2E_BUILD_TYPE)
      .Key("gemm_backend").String(tensor::kernels::ActiveBackendName())
      .Key("quantization").String(tensor::kernels::QuantModeName(run.bundle.EffectiveQuantMode()))
      .Key("seed").UInt(run.options.seed)
      .Key("bundle_checksum").String(FileChecksum(run.bundle_path))
      .Key("generator_cpu").Int(run.placement.generator_cpu)
      .Key("server_cpu").Int(run.placement.server_cpu)
      .Key("host_parallelism_1t_over_4t")
      .Double(MeasureHostParallelism(run.placement.allowed))
      .Key("reference_probe_rate").Double(kReferenceProbeRate)
      .EndObject();
  result.Key("metrics").BeginObject();
  for (const Metric& metric : run.metrics) {
    result.Key(metric.name).BeginObject()
        .Key("value").Double(metric.value)
        .Key("unit").String(metric.unit)
        .Key("samples").UInt(metric.samples)
        .EndObject();
  }
  result.EndObject();
  result.Key("setup_s_samples").BeginArray();
  for (const double s : run.setup_s) result.Double(s);
  result.EndArray();
  result.Key("reload_ms_samples").BeginArray();
  for (const double ms : run.idle_reload_ms) result.Double(ms);
  result.EndArray();
  result.Key("phases").BeginArray();
  for (const PhaseRecord& record : run.phases) WritePhase(result, record);
  result.EndArray();
  result.EndObject();
  const std::string path = run.options.out_dir + "/result-" + run.workload.name +
                           (run.options.trace ? "-trace" : "") + ".json";
  std::ofstream(path) << result.str() << "\n";
  if (lag_p99 > 1.0) {
    std::fprintf(stderr, "warning: generator lag p99 %.3f ms > 1 ms; this run is invalid\n",
                 lag_p99);
  }
  for (const std::string& problem : run.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  return path;
}

int RunWorkload(const Workload& workload, const Options& options, const Placement& placement) {
  Run run(workload, options, placement);
  run.bundle_path = options.out_dir + "/bundle-v4.dssb";
  if (const io::Status ready = EnsureBundle(run.bundle_path, &run.bundle); !ready.ok) {
    std::fprintf(stderr, "error: bundle: %s\n", ready.message.c_str());
    return 1;
  }
  run.rows = BuildQueryRows(run.bundle);
  run.reload_body = "{\"path\":\"" + net::JsonEscape(run.bundle_path) + "\"}";
  // Process start-up on a shared VM is noisy: one spawn reads 2.3-5 ms,
  // and a host slowdown holds every spawn made within it. So setup_s is
  // the median of 21 spawns made at three points of the run (here, after
  // the warm-up and after the measured phases), each by a server killed
  // at once; the first point's last server is the one under load.
  const bool one_setup = options.smoke || options.trace;  // setup_s unreported
  auto measure_spare_setups = [&run, one_setup] {
    if (one_setup) return true;
    ServerProcess spare;
    const bool ok = MeasureSetup(run, spare, 7);
    spare.Kill();
    return ok;
  };
  if (!MeasureSetup(run, run.server, one_setup ? 1 : 7) || !MeasureIdleReloads(run)) {
    return 1;
  }

  WorkloadSource source(&run.rows, workload.mix, options.seed);
  LoadGenerator generator(run.server.port(), &source,
                          [&run](const OutgoingRequest& request, const char* body, size_t size,
                                 uint64_t* version) {
                            return request.binary
                                       ? run.checker.CheckFrame(request.query,
                                                                std::string(body, size), version)
                                       : run.checker.CheckJson(request.query, body, size,
                                                               version);
                          });
  const bool open = workload.open_rate > 0;
  uint64_t phases_begun = 0;
  auto phase = [&](double seconds, bool open_loop, bool trace) {
    PhaseOptions p;
    p.seconds = seconds;
    p.open_rate = open_loop ? workload.open_rate : 0.0;
    p.connections = workload.connections;
    p.reload_every_s = workload.reload_every_s;
    p.reload_body = run.reload_body;
    p.seed = options.seed * 1000003ull + 1000 * ++phases_begun;  // + window
    p.trace = trace;
    return p;
  };
  // Measured phases run in windows of one second, or of one reload period
  // where reloads flush the cache, so that every window holds one flush
  // (at its start) and its refill.
  const double window_s = workload.reload_every_s > 0 ? workload.reload_every_s : 1.0;
  auto measured = [&](const char* name, double seconds, bool open_loop) -> const PhaseRecord& {
    const int windows = std::max(1, static_cast<int>(std::lround(seconds / window_s)));
    return RunPhase(run, generator, name, phase(window_s, open_loop, false), windows, true);
  };

  // Warm-up, untimed: a closed-loop burst first grows every pool the
  // servers grow under concurrency (router and frontend workers, replica
  // connections), so no measured phase starts in the pre-burst state a
  // fresh process keeps until its first concurrent spell.
  const double warmup_s = options.smoke ? 0.5 : 3.0;
  if (open) {
    RunPhase(run, generator, "warmup_closed", phase(warmup_s / 3.0, false, false), 1, false);
  }
  RunPhase(run, generator, "warmup", phase(open ? warmup_s * 2.0 / 3.0 : warmup_s, open, false),
           1, false);
  // attempted/failed count the measured phases. A warm-up request shed in
  // a host stall is not a measured outcome (its phase record keeps it); a
  // wrong answer there still fails the run through run.wrong.
  run.attempted = 0;
  run.failed = 0;
  if (!measure_spare_setups()) return 1;

  const double seconds = options.seconds;
  const PhaseResult* untraced = nullptr;
  if (options.trace) {
    untraced =
        &RunPhase(run, generator, "untraced", phase(0.5 * seconds, open, false), 1, false).result;
  }
  ServerScrapes before;
  ServerScrapes after;
  if (const io::Status got = ScrapeAll(run.server, workload.cluster, &before); !got.ok) {
    std::fprintf(stderr, "error: scrape: %s\n", got.message.c_str());
    return 1;
  }
  // Untraced: p50/p95 from the open loop (closed when there is none),
  // capacity from the closed loop. Traced: one phase like the untraced
  // one before it, spans on.
  const PhaseRecord& latency =
      options.trace
          ? RunPhase(run, generator, "traced", phase(0.5 * seconds, open, true), 1, false)
      : open ? measured("open_loop", 0.6 * seconds, true)
             : measured("closed_loop", seconds, false);
  // Memory high-water mark over set-up, warm-up and the workload's own
  // traffic. The capacity burst that follows an open loop fills caches in
  // proportion to its throughput and churns them, and what that adds to
  // the mark is chaotic (fleet_mixed's replicas read 16-34 MB at the end
  // of identical runs), so the end reading is only recorded.
  const double peak_rss_mb = run.server.PeakRssMb();
  const PhaseRecord& capacity =
      !options.trace && open ? measured("closed_loop", 0.4 * seconds, false) : latency;
  if (const io::Status got = ScrapeAll(run.server, workload.cluster, &after); !got.ok) {
    std::fprintf(stderr, "error: scrape: %s\n", got.message.c_str());
    return 1;
  }
  const double end_rss_mb = run.server.PeakRssMb();
  if (!measure_spare_setups()) return 1;

  const double cache_hits = StatszDelta(before, after, "cache.hits");
  const double coalesced = StatszDelta(before, after, "cache.coalesced");
  if ((workload.mix == Mix::kColdExplain || workload.mix == Mix::kBulkScore) &&
      (cache_hits != 0 || coalesced != 0)) {
    run.problems.push_back("cache or singleflight hit on a workload built to bypass them");
  }
  if (run.wrong > 0) {
    run.problems.push_back("answers differ from the oracle: " + run.checker.first_error());
  }
  if (options.trace) {
    AddPerLayerMetrics(run, *untraced, latency.result, before, after);
    WriteSpans(options.out_dir + "/trace-" + workload.name + ".json", workload, options.seed,
               run.spans);
  } else {
    AddEndToEndMetrics(run, latency, capacity, peak_rss_mb);
  }
  run.server.Stop();

  const std::string result_path =
      WriteResult(run, latency.result, cache_hits, coalesced, end_rss_mb);
  // The result line: last on stdout.
  net::JsonWriter line;
  line.BeginObject()
      .Key("correct").Bool(run.problems.empty())
      .Key("attempted").UInt(run.attempted)
      .Key("failed").UInt(run.failed)
      .Key("metrics").BeginObject();
  for (const Metric& metric : run.metrics) {
    line.Key(metric.name).BeginObject()
        .Key("value").Double(metric.value)
        .Key("unit").String(metric.unit)
        .EndObject();
  }
  line.EndObject().EndObject();
  std::printf("result: %s\n%s\n", result_path.c_str(), line.str().c_str());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

/// Loopback HTTP sink on its own thread: answers every request at once
/// except the `stall_at`-th, which it holds for `stall_ms` first.
class StallingSink {
 public:
  StallingSink(int stall_at, int stall_ms) : stall_at_(stall_at), stall_ms_(stall_ms) {
    listener_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(addr);
    ::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listener_, 4);
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &length);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~StallingSink() {
    ::shutdown(listener_, SHUT_RDWR);
    ::close(listener_);
    thread_.join();
  }
  StallingSink(const StallingSink&) = delete;
  StallingSink& operator=(const StallingSink&) = delete;

  int port() const { return port_; }

 private:
  void Serve() {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) return;
    std::string buffer;
    char chunk[4096];
    int served = 0;
    for (;;) {
      const size_t header_end = buffer.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const size_t length_at = buffer.find("Content-Length: ");
        const size_t body = length_at == std::string::npos
                                ? 0
                                : std::strtoull(buffer.c_str() + length_at + 16, nullptr, 10);
        if (buffer.size() >= header_end + 4 + body) {
          buffer.erase(0, header_end + 4 + body);
          if (++served == stall_at_) {
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
          }
          const char reply[] = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
          if (::send(fd, reply, sizeof(reply) - 1, MSG_NOSIGNAL) < 0) break;
          continue;
        }
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
  }

  int stall_at_;
  int stall_ms_;
  int listener_ = -1;
  int port_ = 0;
  std::thread thread_;
};

class ConstantSource : public RequestSource {
 public:
  void Next(Transport, OutgoingRequest* out) override { out->body = "{}"; }
};

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::printf("FAIL %s\n", what.c_str());
    }
  };

  // Percentiles against a sorted-array oracle.
  expect(Percentile({1, 2, 3, 4}, 0.5) == 2, "p50 of 1..4 is 2");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(Percentile(hundred, 0.99) == 99 && Percentile(hundred, 1.0) == 100 &&
             Percentile(hundred, 0.0) == 1,
         "p0/p99/p100 of 1..100");
  expect(SamplesBeyond(hundred, 0.9) == 10, "10 samples beyond p90 of 1..100");
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> values(1 + rng() % 300);
    for (double& v : values) v = static_cast<double>(rng() % 1000) / 7.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
      const size_t rank = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))));
      if (Percentile(values, q) != sorted[rank - 1]) {
        expect(false, "percentile " + std::to_string(q) + " of " +
                          std::to_string(values.size()) + " values");
        trial = 500;
        break;
      }
    }
  }

  // Reference speed: the same work measured at full, 0.8x and half speed
  // reads the same once adjusted, as a time and as a rate; the median
  // then ignores a window the probe did not explain (a stall).
  const std::vector<double> speed = {1.0, 0.8, 0.5, 1.0};
  expect(MedianAtReferenceSpeed({2.0, 2.5, 4.0, 9.0}, speed, 1) == 2.0,
         "times at the reference speed");
  expect(MedianAtReferenceSpeed({100.0, 80.0, 50.0, 10.0}, speed, -1) == 100.0,
         "rates at the reference speed");

  // Open-loop accounting: a 50 ms stall at the sink must land in the
  // latency of the requests scheduled behind it (timed from their
  // scheduled send), not vanish into a late send the generator forgives.
  StallingSink sink(/*stall_at=*/20, /*stall_ms=*/50);
  ConstantSource source;
  LoadGenerator generator(sink.port(), &source,
                          [](const OutgoingRequest&, const char*, size_t, uint64_t* version) {
                            *version = 1;
                            return true;
                          });
  PhaseOptions phase;
  phase.seconds = 0.4;
  phase.open_rate = 1000.0;
  phase.connections = {{Transport::kHttp, 1}};
  phase.seed = 7;
  const PhaseResult result = generator.Run(phase);
  const size_t delayed =
      static_cast<size_t>(std::count_if(result.latency_ms.begin(), result.latency_ms.end(),
                                        [](double ms) { return ms >= 20.0; }));
  expect(result.failed() == 0 && result.ok == result.attempted, "sink answered every request");
  expect(!result.latency_ms.empty() &&
             *std::max_element(result.latency_ms.begin(), result.latency_ms.end()) >= 50.0,
         "the stalled request took >= 50 ms");
  // ~1 request/ms arrives during the stall; those due in its first 30 ms
  // wait >= 20 ms.
  expect(delayed >= 15, "stall shows in " + std::to_string(delayed) +
                            " later requests' latency (want >= 15)");
  expect(Percentile(result.lag_ms, 0.5) < 1.0,
         "generator lateness excludes time spent waiting for the busy connection");
  std::printf("selftest: %s (%zu requests, %zu delayed by the stall)\n",
              failures == 0 ? "ok" : "FAILED", result.latency_ms.size(), delayed);
  return failures == 0 ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds T --trace 0|1 "
               "--bin-dir DIR --out-dir DIR [--smoke]\n"
               "       %s --selftest\n"
               "workloads:",
               argv0, argv0);
  for (const Workload& workload : Workloads()) std::fprintf(stderr, " %s", workload.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace dssddi::e2e

int main(int argc, char** argv) {
  using namespace dssddi::e2e;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      return SelfTest();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--bin-dir" && has_value) {
      options.bin_dir = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (options.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr || options.bin_dir.empty() || options.out_dir.empty() ||
      !(options.seconds > 0)) {
    return Usage(argv[0]);
  }
  if (options.smoke) options.seconds = 2.0;
  Placement placement;
  if (!Place(&placement)) {
    std::fprintf(stderr, "error: cannot pin to CPU %d\n", placement.generator_cpu);
    return 1;
  }
  // The deployed kernel configuration, for the servers (inherited
  // environment) and for the in-process oracle alike.
  ::setenv(dssddi::tensor::kernels::kGemmBackendEnvVar, kGemmBackend, 1);
  ::setenv(dssddi::tensor::kernels::kQuantizeEnvVar, kQuantization, 1);
  if (!dssddi::tensor::kernels::SetBackend(kGemmBackend) ||
      !dssddi::tensor::kernels::SetQuantMode(kQuantization)) {
    std::fprintf(stderr, "error: cannot select %s GEMM / %s quantization\n", kGemmBackend,
                 kQuantization);
    return 1;
  }
  const IdleSpinners spinners({placement.generator_cpu, placement.server_cpu});
  return RunWorkload(*workload, options, placement);
}
