// HTTP front-end benchmark: closed-loop loopback load against the full
// network stack (epoll server -> codec -> admission -> batched
// scoring). The headline comparison is JSON vs the binary frame codec
// on the same /v1/suggest route (content-type negotiated, identical
// feature rows): sustained qps and client-observed latency percentiles
// across a connection-count grid. Then admission-control shedding under
// a deliberately tight in-flight bound, and deadline-aware shedding
// under an infeasibly tight per-request budget.
//
//   ./bench/bench_net [--requests N] [--unique U] [--quick]
//
// Machine-readable results land in BENCH_net.json.
//
// Each "connection" is one closed-loop client thread reusing a single
// keep-alive connection: it sends, waits for the answer, sends again —
// like a clinic frontend. qps therefore saturates once the scoring core
// is busy, and added connections buy queueing, not throughput, on a
// single-core host.

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/dssddi_system.h"
#include "data/chronic_cohort.h"
#include "data/dataset.h"
#include "io/inference_bundle.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/pipelined_client.h"
#include "net/router.h"
#include "net/suggest_frontend.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace dssddi;
namespace wire = dssddi::net::wire;

struct LoadResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t ok = 0;
  uint64_t shed = 0;       // 429 load sheds
  uint64_t timed_out = 0;  // 504 deadline sheds / expiries
  uint64_t errors = 0;
};

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

/// Closed-loop load: `connections` keep-alive clients split
/// `total_requests` between them; each waits for its answer before
/// sending the next. 429s count as shed and 504s as timed_out (both
/// complete the loop iteration — fast rejection is the point of
/// admission control and deadline propagation alike).
LoadResult RunLoad(int port, const std::vector<std::string>& bodies,
                   int connections, int total_requests,
                   const net::ClientRequestOptions& request_options) {
  std::atomic<int> next{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> timed_out{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> diagnosed{false};  // first transport error per cell
  std::vector<std::vector<double>> latencies(connections);

  util::Stopwatch clock;
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client;
      if (const io::Status status = client.Connect("127.0.0.1", port);
          !status.ok) {
        if (!diagnosed.exchange(true)) {
          std::printf("  (connect failed: %s)\n", status.message.c_str());
        }
        errors.fetch_add(1);
        return;
      }
      latencies[c].reserve(total_requests / connections + 1);
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= total_requests) break;
        util::Stopwatch request_clock;
        net::ClientResponse response;
        if (!client.connected() &&
            !client.Connect("127.0.0.1", port).ok) {
          errors.fetch_add(1);
          break;
        }
        const io::Status status =
            client.Request("POST", "/v1/suggest", bodies[i % bodies.size()],
                           request_options, &response);
        if (!status.ok) {
          if (!diagnosed.exchange(true)) {
            std::printf("  (request failed: %s)\n", status.message.c_str());
          }
          errors.fetch_add(1);
          continue;
        }
        latencies[c].push_back(request_clock.ElapsedMillis());
        if (response.status == 200) {
          ok.fetch_add(1);
        } else if (response.status == 429) {
          shed.fetch_add(1);
        } else if (response.status == 504) {
          timed_out.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double elapsed = clock.ElapsedSeconds();

  std::vector<double> merged;
  for (auto& lane : latencies) {
    merged.insert(merged.end(), lane.begin(), lane.end());
  }
  LoadResult result;
  result.ok = ok.load();
  result.shed = shed.load();
  result.timed_out = timed_out.load();
  result.errors = errors.load();
  const uint64_t answered = result.ok + result.shed + result.timed_out;
  result.qps = elapsed > 0 ? static_cast<double>(answered) / elapsed : 0.0;
  result.p50_ms = Percentile(merged, 0.50);
  result.p90_ms = Percentile(merged, 0.90);
  result.p99_ms = Percentile(merged, 0.99);
  return result;
}

/// Multiplexed pipelined load on the raw frame protocol: one thread
/// per connection keeps up to `depth` requests in flight on one
/// socket — frames are stamped with per-connection request_ids, sent
/// in window-refill bursts, and completions are correlated back by id
/// in whatever order the server finishes them. depth=1 degenerates to
/// a serial closed loop on frame transport. This is a windowed driver,
/// not depth*connections blocked threads: the point of pipelining is
/// amortizing syscalls and wakeups, so the driver must not spend more
/// scheduler time than the protocol saves.
LoadResult RunPipelinedLoad(int port, const std::vector<std::string>& frames,
                            int connections, int depth, int total_requests,
                            const net::ClientRequestOptions& request_options) {
  (void)request_options;
  std::atomic<int> next{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> timed_out{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(connections));

  util::Stopwatch clock;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      using Clock = std::chrono::steady_clock;
      auto& lane = latencies[static_cast<size_t>(c)];
      lane.reserve(static_cast<size_t>(total_requests / connections + 1));

      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        errors.fetch_add(1);
        return;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      struct sockaddr_in addr {};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        errors.fetch_add(1);
        ::close(fd);
        return;
      }

      std::unordered_map<uint64_t, Clock::time_point> in_flight;
      uint64_t next_id = 1;
      std::string inbuf;
      std::string burst;
      bool exhausted = false;
      bool dead = false;
      while (!dead) {
        // Refill the window: claim tickets and stamp fresh ids.
        burst.clear();
        while (!exhausted && in_flight.size() < static_cast<size_t>(depth)) {
          const int i = next.fetch_add(1);
          if (i >= total_requests) {
            exhausted = true;
            break;
          }
          std::string frame = frames[i % frames.size()];
          wire::PatchRequestId(&frame, next_id);
          in_flight.emplace(next_id, Clock::now());
          ++next_id;
          burst += frame;
        }
        if (!burst.empty()) {
          size_t sent = 0;
          while (sent < burst.size()) {
            const ssize_t n = ::send(fd, burst.data() + sent,
                                     burst.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
              dead = true;
              break;
            }
            sent += static_cast<size_t>(n);
          }
        }
        if (in_flight.empty()) break;  // exhausted and all answered

        // Drain whatever completions have arrived (at least one).
        char chunk[16384];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          dead = true;
          break;
        }
        inbuf.append(chunk, static_cast<size_t>(n));
        for (;;) {
          wire::FrameView view;
          std::string error;
          const wire::ExtractResult result = wire::ExtractFrame(
              inbuf.data(), inbuf.size(), 1 << 20, &view, &error);
          if (result == wire::ExtractResult::kNeedMore) break;
          if (result == wire::ExtractResult::kError) {
            dead = true;
            break;
          }
          const auto it = in_flight.find(view.request_id);
          if (it != in_flight.end()) {
            lane.push_back(std::chrono::duration<double, std::milli>(
                               Clock::now() - it->second)
                               .count());
            in_flight.erase(it);
            if (view.type == wire::FrameType::kSuggestResponse) {
              ok.fetch_add(1);
            } else {
              wire::ErrorFrame reject;
              std::string decode_error;
              const std::string frame = inbuf.substr(0, view.frame_bytes);
              const uint32_t status =
                  wire::DecodeError(frame, &reject, &decode_error)
                      ? reject.status
                      : 500;
              if (status == 429) {
                shed.fetch_add(1);
              } else if (status == 504) {
                timed_out.fetch_add(1);
              } else {
                errors.fetch_add(1);
              }
            }
          }
          inbuf.erase(0, view.frame_bytes);
        }
      }
      // A dead transport fails whatever was still outstanding.
      errors.fetch_add(in_flight.size());
      ::close(fd);
    });
  }
  for (auto& worker : workers) worker.join();
  const double elapsed = clock.ElapsedSeconds();

  std::vector<double> merged;
  for (auto& lane : latencies) {
    merged.insert(merged.end(), lane.begin(), lane.end());
  }
  LoadResult result;
  result.ok = ok.load();
  result.shed = shed.load();
  result.timed_out = timed_out.load();
  result.errors = errors.load();
  const uint64_t answered = result.ok + result.shed + result.timed_out;
  result.qps = elapsed > 0 ? static_cast<double>(answered) / elapsed : 0.0;
  result.p50_ms = Percentile(merged, 0.50);
  result.p90_ms = Percentile(merged, 0.90);
  result.p99_ms = Percentile(merged, 0.99);
  return result;
}

/// Forks + execs examples/shard_cluster and parses its banner for the
/// shared data port. Returns the child pid, or -1 on failure.
pid_t SpawnShardCluster(const std::string& binary, const std::string& model,
                        int shards, int* data_port) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    const std::string shards_arg = std::to_string(shards);
    ::execl(binary.c_str(), binary.c_str(), "--model", model.c_str(), "--port",
            "0", "--admin-port", "0", "--shards", shards_arg.c_str(),
            "--threads", "1", "--duration", "300", nullptr);
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  // Scan the banner for "shard cluster on http://HOST:PORT". The model
  // is pre-trained, so the cluster is up within seconds.
  std::string buffered;
  char chunk[512];
  *data_port = 0;
  for (int spins = 0; spins < 300 && *data_port == 0; ++spins) {
    struct pollfd pfd {pipe_fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::read(pipe_fds[0], chunk, sizeof(chunk) - 1);
    if (n <= 0) break;
    buffered.append(chunk, static_cast<size_t>(n));
    const size_t at = buffered.find("shard cluster on http://");
    if (at == std::string::npos) continue;
    const size_t colon = buffered.find(':', at + 24);
    if (colon == std::string::npos ||
        buffered.find('\n', at) == std::string::npos) {
      continue;
    }
    *data_port = std::atoi(buffered.c_str() + colon + 1);
  }
  ::close(pipe_fds[0]);
  if (*data_port == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
  }
  return pid;
}

void PrintRow(const char* codec, int connections, const LoadResult& result) {
  std::printf("%7s %6d %10.0f %9.3f %9.3f %9.3f %7llu %6llu %6llu %6llu\n",
              codec, connections, result.qps, result.p50_ms, result.p90_ms,
              result.p99_ms, static_cast<unsigned long long>(result.ok),
              static_cast<unsigned long long>(result.shed),
              static_cast<unsigned long long>(result.timed_out),
              static_cast<unsigned long long>(result.errors));
}

void PrintHeaderRow() {
  std::printf("%7s %6s %10s %9s %9s %9s %7s %6s %6s %6s\n", "codec", "conns",
              "qps", "p50 ms", "p90 ms", "p99 ms", "ok", "shed", "504", "err");
}

}  // namespace

int main(int argc, char** argv) {
  int num_requests = 2000;
  int unique_patients = 64;
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--requests") && i + 1 < argc) {
      num_requests = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--unique") && i + 1 < argc) {
      unique_patients = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--quick")) {
      num_requests = 600;
    } else if (!std::strcmp(argv[i], "--chaos")) {
      chaos = true;
    } else {
      std::printf("usage: %s [--requests N] [--unique U] [--quick] [--chaos]\n",
                  argv[0]);
      return 1;
    }
  }

  bench::PrintHeader("HTTP front-end: JSON vs binary framing, shedding grids",
                     "network serving tier (beyond the paper's offline eval)");

  // One small trained system, frozen once; quality is irrelevant here.
  data::ChronicDatasetOptions data_options;
  data_options.cohort.num_males = 150;
  data_options.cohort.num_females = 100;
  const data::SuggestionDataset dataset = data::BuildChronicDataset(data_options);
  core::DssddiConfig config;
  config.ddi.epochs = 40;
  config.md.epochs = 40;
  core::DssddiSystem system(config);
  std::printf("training a small system to freeze (%d patients, %d drugs)...\n",
              dataset.num_patients(), dataset.num_drugs());
  system.Fit(dataset);
  io::InferenceBundle bundle = io::ExtractInferenceBundle(system, dataset);
  const int width = bundle.cluster_centroids.cols();

  // Pre-serialized bodies over `unique_patients` synthetic rows, one
  // JSON and one binary frame per row from the SAME floats, so the two
  // codecs ask the server for identical work (explanations on — the
  // product workload — so the cache matters equally for both).
  util::Rng rng(7);
  std::vector<std::string> json_bodies;
  std::vector<std::string> frame_bodies;
  json_bodies.reserve(unique_patients);
  frame_bodies.reserve(unique_patients);
  for (int p = 0; p < unique_patients; ++p) {
    std::vector<float> features(width);
    for (int j = 0; j < width; ++j) {
      features[j] = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    net::JsonWriter json;
    json.BeginObject().Key("patient_id").Int(p).Key("features").BeginArray();
    for (const float f : features) json.Float(f);
    json.EndArray().Key("k").Int(3).Key("explain").Bool(true).EndObject();
    json_bodies.push_back(json.str());
    net::wire::SuggestRequestFrame frame;
    frame.patient_id = p;
    frame.k = 3;
    frame.explain = true;
    frame.features = features;
    frame_bodies.push_back(net::wire::EncodeSuggestRequest(frame));
  }
  size_t json_bytes = 0, frame_bytes = 0;
  for (const auto& body : json_bodies) json_bytes += body.size();
  for (const auto& body : frame_bodies) frame_bytes += body.size();
  std::printf("request bytes/query: JSON %.0f, binary %.0f (%.1fx smaller)\n",
              static_cast<double>(json_bytes) / unique_patients,
              static_cast<double>(frame_bytes) / unique_patients,
              static_cast<double>(json_bytes) / frame_bytes);

  net::ClientRequestOptions json_options;  // defaults: application/json
  net::ClientRequestOptions frame_options;
  frame_options.content_type = net::wire::kContentType;

  // ------------------------------------------------------------------
  // Grid 1: open admission — JSON vs binary framing per connection
  // count. Same service, same cache, same scoring work; only the wire
  // codec differs.
  // ------------------------------------------------------------------
  serve::ServiceOptions service_options;
  service_options.num_threads = 0;  // hardware concurrency
  service_options.max_batch_size = 32;
  service_options.cache_capacity = 4096;
  serve::SuggestionService service(bundle, service_options);
  // Every qps cell runs the full default observability stack: flight
  // recorder on every completion, an exemplar written per latency
  // record, the SLO engine ticking in the background, and head-based
  // trace sampling at its default rate. The headline numbers are what a
  // production deployment would see — the traced cell further down
  // turns sampling to 1 to buy the per-stage breakdown instead of qps.
  net::SuggestFrontendOptions perf_frontend_options;
  net::SuggestFrontend frontend(&service, perf_frontend_options);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  if (const io::Status status = server.Start(); !status.ok) {
    std::printf("error: %s\n", status.message.c_str());
    return 1;
  }
  std::printf("server up on 127.0.0.1:%d (%d scoring threads, %s gemm"
              " backend); %d requests per cell, %d unique patients\n\n",
              server.port(), service.Stats().num_threads,
              service.Stats().gemm_backend.c_str(), num_requests,
              unique_patients);

  net::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("net");
  json.Key("gemm_backend").String(service.Stats().gemm_backend);
  json.Key("quantization").String(service.Stats().quantization);
  json.Key("requests").Int(num_requests);
  json.Key("unique_patients").Int(unique_patients);
  json.Key("num_threads").Int(service.Stats().num_threads);
  bench::WriteProvenance(json);
  json.Key("json_request_bytes").UInt(json_bytes / unique_patients);
  json.Key("binary_request_bytes").UInt(frame_bytes / unique_patients);
  const auto record = [&json](const char* grid, const char* codec,
                              int connections, const LoadResult& result) {
    json.BeginObject()
        .Key("grid").String(grid)
        .Key("codec").String(codec)
        .Key("connections").Int(connections)
        .Key("qps").Double(result.qps)
        .Key("p50_ms").Double(result.p50_ms)
        .Key("p90_ms").Double(result.p90_ms)
        .Key("p99_ms").Double(result.p99_ms)
        .Key("ok").UInt(result.ok)
        .Key("shed").UInt(result.shed)
        .Key("timed_out").UInt(result.timed_out)
        .Key("errors").UInt(result.errors)
        .EndObject();
  };
  json.Key("rows").BeginArray();

  PrintHeaderRow();
  double qps_ratio_product = 1.0;
  double p50_ratio_product = 1.0;
  int grid_cells = 0;
  uint64_t grid_errors = 0;
  LoadResult single_conn_json, single_conn_binary, serial_binary_8conn;
  for (const int connections : {1, 8, 32}) {
    // JSON first, binary second, same cell size; the warm cache carries
    // over, which favors neither codec (same keys, same hits).
    const LoadResult json_result =
        RunLoad(server.port(), json_bodies, connections, num_requests,
                json_options);
    PrintRow("json", connections, json_result);
    record("open_admission", "json", connections, json_result);
    const LoadResult frame_result =
        RunLoad(server.port(), frame_bodies, connections, num_requests,
                frame_options);
    PrintRow("binary", connections, frame_result);
    record("open_admission", "binary", connections, frame_result);
    if (connections == 1) {
      single_conn_json = json_result;
      single_conn_binary = frame_result;
    }
    if (connections == 8) serial_binary_8conn = frame_result;
    grid_errors += json_result.errors + frame_result.errors;
    if (json_result.qps > 0 && frame_result.qps > 0) {
      qps_ratio_product *= frame_result.qps / json_result.qps;
      if (json_result.p50_ms > 0 && frame_result.p50_ms > 0) {
        p50_ratio_product *= json_result.p50_ms / frame_result.p50_ms;
      }
      ++grid_cells;
    }
  }
  const double qps_speedup =
      grid_cells > 0 ? std::pow(qps_ratio_product, 1.0 / grid_cells) : 0.0;
  const double p50_speedup =
      grid_cells > 0 ? std::pow(p50_ratio_product, 1.0 / grid_cells) : 0.0;
  const serve::ServiceStats open_stats = service.Stats();
  std::printf("\nbinary vs JSON geomean over the grid: %.2fx qps, %.2fx p50\n",
              qps_speedup, p50_speedup);
  std::printf("service after grid: %llu completed, cache hit rate %.1f%%,"
              " mean batch %.1f, p50/p90/p99/max %.2f/%.2f/%.2f/%.2f ms\n",
              static_cast<unsigned long long>(open_stats.completed),
              100.0 * open_stats.cache_hit_rate, open_stats.mean_batch_size,
              open_stats.p50_latency_ms, open_stats.p90_latency_ms,
              open_stats.p99_latency_ms, open_stats.max_latency_ms);

  // ------------------------------------------------------------------
  // Grid 1b: pipelined multiplexed wire protocol against the SAME
  // server. Each cell keeps 8 connections but multiplexes `depth`
  // concurrent requests per connection (request_id correlation,
  // out-of-order completion, writev-coalesced responses). depth=1 is
  // the serial control on the pipelined transport; the headline is
  // depth=16 vs the one-request-per-connection binary cell above.
  // ------------------------------------------------------------------
  const auto record_pipelined = [&json](int connections, int depth,
                                        const LoadResult& result) {
    json.BeginObject()
        .Key("grid").String("pipelined")
        .Key("codec").String("binary")
        .Key("connections").Int(connections)
        .Key("depth").Int(depth)
        .Key("qps").Double(result.qps)
        .Key("p50_ms").Double(result.p50_ms)
        .Key("p90_ms").Double(result.p90_ms)
        .Key("p99_ms").Double(result.p99_ms)
        .Key("ok").UInt(result.ok)
        .Key("shed").UInt(result.shed)
        .Key("timed_out").UInt(result.timed_out)
        .Key("errors").UInt(result.errors)
        .EndObject();
  };
  std::printf("\npipelined multiplexed wire (8 connections, depth = requests"
              " in flight per connection):\n");
  PrintHeaderRow();
  LoadResult pipelined_depth16;
  net::ClientRequestOptions pipelined_options = frame_options;
  pipelined_options.deadline_ms = 30000;
  for (const int depth : {1, 16}) {
    const LoadResult result = RunPipelinedLoad(
        server.port(), frame_bodies, 8, depth, num_requests,
        pipelined_options);
    PrintRow(depth == 1 ? "pipe:1" : "pipe:16", 8, result);
    record_pipelined(8, depth, result);
    grid_errors += result.errors;
    if (depth == 16) pipelined_depth16 = result;
  }
  const double pipelined_speedup =
      serial_binary_8conn.qps > 0.0
          ? pipelined_depth16.qps / serial_binary_8conn.qps
          : 0.0;
  std::printf("\npipelined depth 16 vs serial binary at 8 conns: %.0f ->"
              " %.0f qps (%.2fx)\n",
              serial_binary_8conn.qps, pipelined_depth16.qps,
              pipelined_speedup);
  server.Stop();

  // ------------------------------------------------------------------
  // Grid 1c: SO_REUSEPORT multi-process sharding. Forks the real
  // examples/shard_cluster binary (model pre-exported to a temp file so
  // the shards boot in seconds) and drives the shared data port with
  // the binary codec at 8 connections per shard count. The kernel
  // round-robins connections across shard processes. The scaling gate
  // is advisory by default — 1-core CI cannot scale — and enforced via
  // BENCH_SHARDS_MIN_SCALING on multi-core hardware.
  // ------------------------------------------------------------------
  double shard_scaling = 0.0;
  uint64_t shard_errors = 0;
  bool shard_gate_ok = true;
  {
    const char* bin_env = std::getenv("DSSDDI_SHARD_BIN");
    std::string shard_bin =
        (bin_env != nullptr && *bin_env != '\0') ? bin_env
                                                 : "examples/shard_cluster";
    if (::access(shard_bin.c_str(), X_OK) != 0) {
      shard_bin = "./shard_cluster";
    }
    if (::access(shard_bin.c_str(), X_OK) != 0) {
      std::printf("\nshards grid: shard_cluster binary not found (set"
                  " DSSDDI_SHARD_BIN) — skipped\n");
    } else {
      const std::string shard_model =
          "/tmp/dssddi_bench_net_model_" +
          std::to_string(static_cast<int>(::getpid())) + ".dssb";
      if (const io::Status saved =
              io::SaveInferenceBundleV4(shard_model, bundle);
          !saved.ok) {
        std::printf("\nshards grid: could not export model: %s — skipped\n",
                    saved.message.c_str());
      } else {
        std::printf("\nmulti-process SO_REUSEPORT shards (binary codec, 8"
                    " conns per cell):\n");
        PrintHeaderRow();
        const int shard_requests = std::min(num_requests, 2000);
        double shard_qps[3] = {0.0, 0.0, 0.0};
        int cell = 0;
        for (const int shards : {1, 2, 4}) {
          int data_port = 0;
          const pid_t pid =
              SpawnShardCluster(shard_bin, shard_model, shards, &data_port);
          if (pid < 0) {
            std::printf("shards=%d: spawn failed — cell skipped\n", shards);
            ++cell;
            continue;
          }
          const LoadResult result = RunLoad(data_port, frame_bodies, 8,
                                            shard_requests, frame_options);
          char label[16];
          std::snprintf(label, sizeof(label), "shrd:%d", shards);
          PrintRow(label, 8, result);
          json.BeginObject()
              .Key("grid").String("shards")
              .Key("codec").String("binary")
              .Key("connections").Int(8)
              .Key("shards").Int(shards)
              .Key("qps").Double(result.qps)
              .Key("p50_ms").Double(result.p50_ms)
              .Key("p90_ms").Double(result.p90_ms)
              .Key("p99_ms").Double(result.p99_ms)
              .Key("ok").UInt(result.ok)
              .Key("shed").UInt(result.shed)
              .Key("timed_out").UInt(result.timed_out)
              .Key("errors").UInt(result.errors)
              .EndObject();
          shard_errors += result.errors;
          shard_qps[cell++] = result.qps;
          ::kill(pid, SIGTERM);
          ::waitpid(pid, nullptr, 0);
        }
        ::unlink(shard_model.c_str());
        if (shard_qps[0] > 0.0 && shard_qps[2] > 0.0) {
          shard_scaling = shard_qps[2] / shard_qps[0];
          const char* scaling_env = std::getenv("BENCH_SHARDS_MIN_SCALING");
          const double min_scaling =
              (scaling_env != nullptr && *scaling_env != '\0')
                  ? atof(scaling_env) : 0.0;
          std::printf("\nshard scaling 1 -> 4 processes: %.0f -> %.0f qps"
                      " (%.2fx)%s\n",
                      shard_qps[0], shard_qps[2], shard_scaling,
                      min_scaling > 0.0 ? "" : " — advisory (single-core CI"
                                               " cannot scale)");
          if (min_scaling > 0.0 && shard_scaling < min_scaling) {
            std::printf("shards grid: scaling %.2fx below enforced floor"
                        " %.2fx\n", shard_scaling, min_scaling);
            shard_gate_ok = false;
          }
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Grid 2: tight admission — the gate sheds instead of queueing.
  // ------------------------------------------------------------------
  serve::ServiceOptions tight_options = service_options;
  tight_options.cache_capacity = 0;  // every request pays real scoring
  tight_options.admission.max_in_flight = 4;
  tight_options.admission.max_queue_depth = 8;
  serve::SuggestionService tight_service(bundle, tight_options);
  net::SuggestFrontend tight_frontend(&tight_service, perf_frontend_options);
  net::HttpServer tight_server(server_options, tight_frontend.AsHandler());
  if (const io::Status status = tight_server.Start(); !status.ok) {
    std::printf("error: %s\n", status.message.c_str());
    return 1;
  }
  std::printf("\nwith admission bounds (max_in_flight=4, max_queue=8) and the"
              " cache off:\n");
  PrintHeaderRow();
  LoadResult tight_result;
  for (const int connections : {1, 8, 32}) {
    tight_result = RunLoad(tight_server.port(), json_bodies, connections,
                           num_requests, json_options);
    PrintRow("json", connections, tight_result);
    record("tight_admission", "json", connections, tight_result);
  }
  const serve::ServiceStats tight_stats = tight_service.Stats();
  std::printf("\nadmission after grid: %llu admitted, %llu shed — overload"
              " turns into fast 429s, p99 stays bounded\n",
              static_cast<unsigned long long>(tight_stats.admitted),
              static_cast<unsigned long long>(tight_stats.shed));
  tight_server.Stop();

  // ------------------------------------------------------------------
  // Traced cell: same workload with head-based sampling at 1 — every
  // request carries a full per-stage trace. This is the worst-case
  // tracing overhead configuration, run for attribution ("where does a
  // request's time go"), not for the qps headline; comparing its qps
  // against the matching open-admission cell above bounds the cost of
  // always-on tracing.
  // ------------------------------------------------------------------
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> stage_snaps;
  std::shared_ptr<obs::Registry> stage_registry;
  LoadResult traced_result;
  {
    serve::SuggestionService traced_service(bundle, service_options);
    stage_registry = traced_service.registry();
    net::SuggestFrontendOptions traced_frontend_options;
    traced_frontend_options.trace_sample_every = 1;
    net::SuggestFrontend traced_frontend(&traced_service,
                                         traced_frontend_options);
    net::HttpServer traced_server(server_options, traced_frontend.AsHandler());
    if (const io::Status status = traced_server.Start(); !status.ok) {
      std::printf("error: %s\n", status.message.c_str());
      return 1;
    }
    std::printf("\nwith every request traced (sampling=1, binary codec):\n");
    PrintHeaderRow();
    traced_result = RunLoad(traced_server.port(), frame_bodies, 8,
                            std::min(num_requests, 1000), frame_options);
    PrintRow("binary", 8, traced_result);
    record("traced", "binary", 8, traced_result);
    grid_errors += traced_result.errors;
    traced_server.Stop();
    // Scope exit destroys the service (draining its pool), so every
    // in-flight trace has finalized into the registry's stage
    // histograms before the snapshots below; the registry outlives it.
  }
  std::printf("\n%14s %9s %9s %9s %9s\n", "stage", "count", "p50 ms", "p99 ms",
              "mean ms");
  for (int s = 0; s < obs::kNumStages; ++s) {
    const char* name = obs::StageName(static_cast<obs::Stage>(s));
    const obs::HistogramSnapshot snap =
        stage_registry
            ->GetHistogram("dssddi_stage_latency_ms", "", {{"stage", name}})
            ->Snapshot();
    if (snap.count == 0) continue;
    std::printf("%14s %9llu %9.3f %9.3f %9.3f\n", name,
                static_cast<unsigned long long>(snap.count),
                snap.Quantile(0.50), snap.Quantile(0.99),
                snap.sum / static_cast<double>(snap.count));
    stage_snaps.emplace_back(name, snap);
  }

  // ------------------------------------------------------------------
  // Chaos grid (--chaos): two replicas behind the router, one of them
  // stalling 10% of its socket ops for 50-200 ms. The same closed-loop
  // load runs twice — hedging off, hedging on — and the headline is the
  // p99 ratio: a hedge fired at the observed p90 should cut the stall
  // out of the tail (gate: hedged p99 <= 0.7x unhedged). The load is a
  // single serial connection on purpose: each replica runs one event
  // loop, so under concurrency a stalled op also queues the *other*
  // in-flight requests on that replica and the tail measures queueing
  // (which hedging cannot fix) instead of the stall itself.
  // ------------------------------------------------------------------
  double chaos_p99_ratio = 0.0;
  uint64_t chaos_errors = 0;
  if (chaos) {
    struct ChaosReplica {
      std::unique_ptr<serve::SuggestionService> service;
      std::shared_ptr<net::fault::FaultInjector> injector;
      std::unique_ptr<net::SuggestFrontend> frontend;
      std::unique_ptr<net::HttpServer> server;
    };
    const auto start_replica = [&](const char* spec) {
      auto replica = std::make_unique<ChaosReplica>();
      replica->service =
          std::make_unique<serve::SuggestionService>(bundle, service_options);
      replica->injector = std::make_shared<net::fault::FaultInjector>();
      if (spec != nullptr && *spec != '\0') {
        const io::Status installed = replica->injector->Install(spec);
        if (!installed.ok) {
          std::printf("error: fault spec: %s\n", installed.message.c_str());
          std::exit(1);
        }
      }
      net::SuggestFrontendOptions frontend_options = perf_frontend_options;
      frontend_options.fault_injector = replica->injector;
      replica->frontend = std::make_unique<net::SuggestFrontend>(
          replica->service.get(), frontend_options);
      net::HttpServerOptions replica_options = server_options;
      replica_options.fault = replica->injector;
      replica->server = std::make_unique<net::HttpServer>(
          replica_options, replica->frontend->AsHandler());
      replica->frontend->AttachServer(replica->server.get());
      if (const io::Status status = replica->server->Start(); !status.ok) {
        std::printf("error: %s\n", status.message.c_str());
        std::exit(1);
      }
      return replica;
    };

    const int chaos_requests = std::min(num_requests, 300);
    std::printf("\nchaos grid: 2 replicas, 10%% ops stalled 50-200 ms on one"
                " of them; hedging off vs on (%d requests, 1 conn):\n",
                chaos_requests);
    PrintHeaderRow();
    LoadResult chaos_results[2];
    for (const bool hedging : {false, true}) {
      auto slow = start_replica("seed=5;stall=0.10:50-200");
      auto healthy = start_replica(nullptr);
      std::vector<net::ReplicaClientOptions> endpoints(2);
      endpoints[0].port = slow->server->port();
      endpoints[1].port = healthy->server->port();
      net::RouterOptions router_options;
      router_options.hedging = hedging;
      router_options.hedge_min_delay_ms = 10;
      auto registry = std::make_shared<obs::Registry>();
      net::Router router(endpoints, router_options, registry, nullptr);
      net::RouterFrontendOptions router_frontend_options;
      router_frontend_options.default_deadline_ms = 5000;
      net::RouterFrontend router_frontend(&router, router_frontend_options);
      net::HttpServer router_server(server_options,
                                    router_frontend.AsHandler());
      router_frontend.AttachServer(&router_server);
      if (const io::Status status = router_server.Start(); !status.ok) {
        std::printf("error: %s\n", status.message.c_str());
        return 1;
      }
      const LoadResult result = RunLoad(router_server.port(), json_bodies, 1,
                                        chaos_requests, json_options);
      chaos_results[hedging ? 1 : 0] = result;
      PrintRow(hedging ? "hedged" : "direct", 1, result);
      record("chaos", hedging ? "hedged" : "unhedged", 1, result);
      chaos_errors += result.errors;
      router_server.Stop();
      healthy->server->Stop();
      slow->server->Stop();
    }
    if (chaos_results[0].p99_ms > 0.0) {
      chaos_p99_ratio = chaos_results[1].p99_ms / chaos_results[0].p99_ms;
    }
    std::printf("\nchaos p99: %.1f ms unhedged -> %.1f ms hedged (%.2fx)"
                " — %s\n",
                chaos_results[0].p99_ms, chaos_results[1].p99_ms,
                chaos_p99_ratio,
                chaos_p99_ratio > 0.0 && chaos_p99_ratio <= 0.7
                    ? "hedging pays for itself"
                    : "RATIO ABOVE 0.7");
  }

  // ------------------------------------------------------------------
  // Grid 3: deadline propagation — every request advertises a 2ms
  // budget while the deadline service's only scoring worker is held
  // parked: a parking request's completion (completions run on the
  // worker) keeps it until the queue has not grown for 5ms, so every
  // queued request is past its budget, then parks the next round and
  // lets go. The pipeline should answer 504 (shed at admission once the
  // p50 is known, or expired at the cut before scoring) instead of
  // scoring doomed work.
  // ------------------------------------------------------------------
  std::atomic<bool> parking{true};
  std::atomic<uint64_t> parking_rounds{0};
  std::function<void()> park;
  serve::ServiceOptions deadline_service_options = service_options;
  deadline_service_options.num_threads = 1;
  deadline_service_options.cache_capacity = 0;
  serve::SuggestionService deadline_service(std::move(bundle),
                                            deadline_service_options);
  park = [&] {
    serve::Request parking_request;
    parking_request.features.assign(
        static_cast<size_t>(deadline_service.feature_width()), 0.0f);
    parking_request.k = 1;
    parking_request.explain = false;
    parking_rounds.fetch_add(1, std::memory_order_relaxed);
    deadline_service.SubmitAsync(
        std::move(parking_request),
        [&](core::Suggestion, std::shared_ptr<const serve::ModelSnapshot>,
            std::exception_ptr) {
          constexpr auto kStill = std::chrono::milliseconds(5);
          size_t depth = deadline_service.QueueDepth();
          auto still_since = std::chrono::steady_clock::now();
          while (parking.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            const size_t now_depth = deadline_service.QueueDepth();
            const auto now = std::chrono::steady_clock::now();
            if (now_depth != depth) {
              depth = now_depth;
              still_since = now;
            } else if (depth > 0 && now - still_since >= kStill) {
              break;
            }
          }
          if (parking.load()) park();
        });
  };
  net::SuggestFrontend deadline_frontend(&deadline_service,
                                         perf_frontend_options);
  net::HttpServer deadline_server(server_options,
                                  deadline_frontend.AsHandler());
  if (const io::Status status = deadline_server.Start(); !status.ok) {
    std::printf("error: %s\n", status.message.c_str());
    return 1;
  }
  park();
  net::ClientRequestOptions doomed_options = json_options;
  doomed_options.deadline_ms = 30000;    // client waits for its 504
  doomed_options.advertise_deadline_ms = 2;  // server budget: 2ms
  std::printf("\nwith a 2ms advertised budget behind a parked worker"
              " (cache off):\n");
  PrintHeaderRow();
  const int deadline_requests = std::min(num_requests, 600);
  const LoadResult doomed = RunLoad(deadline_server.port(), json_bodies, 8,
                                    deadline_requests, doomed_options);
  parking.store(false);
  PrintRow("json", 8, doomed);
  record("tight_deadline", "json", 8, doomed);
  const serve::ServiceStats deadline_stats = deadline_service.Stats();
  std::printf("\ndeadline after grid: %llu expired pre-scoring, %llu"
              " deadline-shed at admission, %llu doomed requests scored,"
              " %llu batches scored (%llu parking rounds)\n",
              static_cast<unsigned long long>(deadline_stats.expired),
              static_cast<unsigned long long>(deadline_stats.deadline_shed),
              static_cast<unsigned long long>(doomed.ok),
              static_cast<unsigned long long>(deadline_stats.batches),
              static_cast<unsigned long long>(parking_rounds.load()));
  deadline_server.Stop();

  bool ok = grid_errors == 0 && tight_result.errors == 0 &&
            doomed.errors == 0 && qps_speedup > 1.0 && shard_errors == 0 &&
            shard_gate_ok;
  // Pipelining must at least double the one-request-per-connection
  // binary throughput at depth 16 on the 8-connection cell. Short cells
  // are warm-up noise, so the gate arms at the full request count.
  const bool pipelined_gated = num_requests >= 2000;
  if (pipelined_speedup < 2.0) {
    std::printf("pipelined gate: %.2fx below 2.0x floor%s\n",
                pipelined_speedup,
                pipelined_gated ? "" : " (advisory at this cell size)");
    if (pipelined_gated) ok = false;
  }
  if (chaos) {
    ok = ok && chaos_errors == 0 && chaos_p99_ratio > 0.0 &&
         chaos_p99_ratio <= 0.7;
  }

  // Regression gate against the committed baseline: the run just
  // finished had the flight recorder, per-record exemplars, the SLO
  // engine and default trace sampling all on, so holding the committed
  // single-connection qps is the proof that observability rides free.
  // BENCH_NET_BASELINE overrides the baseline path; the min ratio
  // (default 0.9, headroom for machine noise) via BENCH_NET_MIN_RATIO.
  double baseline_json_qps = 0.0, baseline_binary_qps = 0.0;
  double baseline_json_ratio = 0.0, baseline_binary_ratio = 0.0;
  const char* baseline_override = std::getenv("BENCH_NET_BASELINE");
  const std::string baseline_path =
      (baseline_override != nullptr && *baseline_override != '\0')
          ? baseline_override : "BENCH_net.json";
  {
    std::string baseline_text;
    net::JsonValue baseline;
    std::string parse_error;
    if (io::ReadFileToString(baseline_path, &baseline_text).ok &&
        net::ParseJson(baseline_text, &baseline, &parse_error)) {
      if (const net::JsonValue* rows = baseline.Find("rows")) {
        for (const net::JsonValue& row : rows->Items()) {
          const net::JsonValue* grid = row.Find("grid");
          const net::JsonValue* codec = row.Find("codec");
          const net::JsonValue* connections = row.Find("connections");
          const net::JsonValue* qps = row.Find("qps");
          if (grid == nullptr || codec == nullptr || connections == nullptr ||
              qps == nullptr || grid->AsString() != "open_admission" ||
              connections->AsInt() != 1) {
            continue;
          }
          (codec->AsString() == "binary" ? baseline_binary_qps
                                         : baseline_json_qps) = qps->AsDouble();
        }
      }
    }
    if (baseline_json_qps > 0.0 && baseline_binary_qps > 0.0) {
      const char* ratio_env = std::getenv("BENCH_NET_MIN_RATIO");
      const double min_ratio =
          (ratio_env != nullptr && *ratio_env != '\0') ? atof(ratio_env) : 0.9;
      baseline_json_ratio = single_conn_json.qps / baseline_json_qps;
      baseline_binary_ratio = single_conn_binary.qps / baseline_binary_qps;
      // The committed baseline comes from full-length runs; short cells
      // are dominated by warm-up, so the gate is advisory below the
      // default request count.
      const bool gated = num_requests >= 2000;
      const bool holds = baseline_json_ratio >= min_ratio &&
                         baseline_binary_ratio >= min_ratio;
      std::printf("baseline (%s, 1 conn): json %.0f -> %.0f qps (%.2fx),"
                  " binary %.0f -> %.0f qps (%.2fx) — %s (min ratio %.2f%s)\n",
                  baseline_path.c_str(), baseline_json_qps,
                  single_conn_json.qps, baseline_json_ratio,
                  baseline_binary_qps, single_conn_binary.qps,
                  baseline_binary_ratio,
                  holds ? "holds" : "REGRESSED", min_ratio,
                  gated ? "" : ", advisory at this cell size");
      if (!holds && gated) ok = false;
    } else {
      std::printf("baseline: no committed BENCH_net.json found at %s —"
                  " qps gate skipped\n", baseline_path.c_str());
    }
  }
  std::printf("%s\n",
              ok ? "PASS: zero errors, binary framing beats JSON on qps, and"
                   " the baseline holds with observability on"
                 : "FAIL: errors observed, no binary win, or qps regressed"
                   " against the committed baseline");
  json.EndArray();
  json.Key("stage_breakdown").BeginArray();
  for (const auto& [stage, snap] : stage_snaps) {
    json.BeginObject()
        .Key("stage").String(stage)
        .Key("count").UInt(snap.count)
        .Key("p50_ms").Double(snap.Quantile(0.50))
        .Key("p99_ms").Double(snap.Quantile(0.99))
        .Key("mean_ms").Double(snap.sum / static_cast<double>(snap.count))
        .Key("max_ms").Double(snap.max)
        .EndObject();
  }
  json.EndArray();
  json.Key("traced_qps").Double(traced_result.qps);
  json.Key("pipelined_vs_serial_qps_speedup").Double(pipelined_speedup);
  if (shard_scaling > 0.0) {
    json.Key("shard_scaling_1_to_4").Double(shard_scaling);
  }
  json.Key("binary_vs_json_qps_speedup").Double(qps_speedup);
  json.Key("binary_vs_json_p50_speedup").Double(p50_speedup);
  json.Key("deadline_expired").UInt(deadline_stats.expired);
  json.Key("deadline_shed").UInt(deadline_stats.deadline_shed);
  if (chaos) json.Key("chaos_hedged_p99_ratio").Double(chaos_p99_ratio);
  if (baseline_json_qps > 0.0 && baseline_binary_qps > 0.0) {
    json.Key("baseline_json_qps").Double(baseline_json_qps);
    json.Key("baseline_binary_qps").Double(baseline_binary_qps);
    json.Key("baseline_qps_ratio_json").Double(baseline_json_ratio);
    json.Key("baseline_qps_ratio_binary").Double(baseline_binary_ratio);
  }
  json.Key("pass").Bool(ok);
  json.EndObject();
  bench::WriteBenchJson("net", json.str());
  return ok ? 0 : 1;
}
