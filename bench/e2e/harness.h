#ifndef DSSDDI_BENCH_E2E_HARNESS_H_
#define DSSDDI_BENCH_E2E_HARNESS_H_

// Everything around the load generator: the deployed bundle, the query
// patients with their offline oracle answers, the answer checker, the
// server processes under test, and scraping their /statsz + /metricsz.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dssddi_system.h"
#include "io/inference_bundle.h"
#include "net/json.h"
#include "obs/metrics.h"

namespace dssddi::e2e {

/// Monotonic nanoseconds (steady_clock); every timestamp bench_e2e
/// records is on this clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Model and inputs
// ---------------------------------------------------------------------

/// Loads the v4 bundle at `path`, first training and converting one with
/// examples/example_bundle.h (a 300 + 200 patient chronic cohort, 120 DDI
/// and MD epochs) when the file is missing or does not load. The returned
/// bundle is the one read back from the file, pinned to int8.
io::Status EnsureBundle(const std::string& path, io::InferenceBundle* bundle);

/// FNV-1a 64 of a whole file, as 16 hex digits ("" if unreadable).
std::string FileChecksum(const std::string& path);

/// One held-out patient and what the offline system answers for it.
struct QueryRow {
  std::vector<float> features;
  std::string json_features;  // "[...]" with %.9g floats (round-trip exact)
  core::Suggestion explained;  // k = kExplainK, explanation filled
  core::Suggestion scored;     // k = kScoreK, scores only
};

inline constexpr int kExplainK = 3;
inline constexpr int kScoreK = 10;

/// Held-out rows (validation + test split) of a 2500-patient chronic
/// cohort drawn from the population the bundle was trained on, each with
/// its oracle answers computed in-process by `bundle` on the active backend
/// and quantization: InferenceBundle::Suggest for the explained answer,
/// PredictScores + TopKDrugs for the score-only one. The workload seed
/// picks which rows are asked, and in what order.
std::vector<QueryRow> BuildQueryRows(const io::InferenceBundle& bundle);

// ---------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------

/// What one request asked, as the checker needs it.
struct QueryMeta {
  uint32_t row = 0;
  int k = kExplainK;
  bool explain = true;
  int64_t patient_id = -1;
};

/// Compares served answers with the oracle: top-k drugs and scores bit
/// for bit on both codecs, and from JSON also the explanation's subgraph,
/// trussness, diameter and suggestion satisfaction (Eq. 19).
///
/// A JSON body differs between requests for the same row only in
/// patient_id, model_version and trace_id. Those are checked / read
/// directly, and the full parse + compare runs once per distinct
/// remainder (memoised by its hash), which keeps checking every answer
/// cheap enough to do inline on the generator thread.
class AnswerChecker {
 public:
  explicit AnswerChecker(const std::vector<QueryRow>* rows) : rows_(rows) {}

  bool CheckJson(const QueryMeta& query, const char* body, size_t size,
                 uint64_t* model_version);
  /// `frame` is one response frame (raw pipelined or HTTP body).
  bool CheckFrame(const QueryMeta& query, const std::string& frame,
                  uint64_t* model_version);

  /// First mismatch seen, for the run log ("" when none).
  const std::string& first_error() const { return first_error_; }

 private:
  bool FullJsonCheck(const QueryMeta& query, const char* body, size_t size,
                     std::string* why) const;
  void NoteError(const std::string& why);

  const std::vector<QueryRow>* rows_;
  std::unordered_map<uint64_t, bool> verdicts_;
  std::string first_error_;
};

// ---------------------------------------------------------------------
// Server processes
// ---------------------------------------------------------------------

/// One server binary run as a child process on one CPU: stdout is piped
/// back so its banner gives the bound port(s); the child dies with bench_e2e
/// (PR_SET_PDEATHSIG) and carries a --duration safety stop. Stop() (also
/// run by the destructor) sends SIGTERM, waits, then SIGKILLs; Kill()
/// skips the graceful part, for servers nobody reads the shutdown of.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` pinned to CPU `cpu` and waits (up to `timeout_ms`) for
  /// its banner. `port` is the front port (router port for
  /// replica_cluster); `replica_ports` lists replica ports when the banner
  /// names them.
  io::Status Start(const std::vector<std::string>& argv, int cpu, int timeout_ms);
  void Stop();
  void Kill();

  int port() const { return port_; }
  const std::vector<int>& replica_ports() const { return replica_ports_; }
  /// VmHWM of the child from /proc, in MB (0 if unreadable).
  double PeakRssMb() const;
  /// User + system CPU of the child (all threads) so far, in seconds.
  double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  std::vector<int> replica_ports_;
};

// ---------------------------------------------------------------------
// Scraping
// ---------------------------------------------------------------------

/// Blocking loopback exchange on a fresh connection.
io::Status HttpExchange(int port, const std::string& method,
                        const std::string& target, const std::string& body,
                        int* status, std::string* response_body);

/// One /statsz + /metricsz snapshot of a server.
struct Scrape {
  net::JsonValue statsz;
  /// Every exposition sample, keyed by "name{labels}" exactly as
  /// rendered; histogram bucket rows keep their "le" label.
  std::map<std::string, double> series;
  /// Histogram bucket counts in exposition order, keyed by
  /// "name{labels-without-le}".
  std::map<std::string, std::vector<double>> buckets;
};

/// Fills `out->series` / `out->buckets` from Prometheus exposition text.
void ParseExposition(const std::string& text, Scrape* out);
/// GET /metricsz (and /statsz when `with_statsz`) from a server.
io::Status TakeScrape(int port, bool with_statsz, Scrape* out);

/// Exposition sample value; 0 when absent.
double SeriesValue(const Scrape& scrape, const std::string& key);
/// /statsz number at a dotted path ("cache.hits"); 0 when absent.
double StatszValue(const Scrape& scrape, const std::string& path);
/// after − before of one histogram ("name", "k=\"v\"" labels), as a
/// snapshot whose Quantile() reads the interval's distribution.
obs::HistogramSnapshot HistogramDelta(const Scrape& before, const Scrape& after,
                                      const std::string& name,
                                      const std::string& labels);

}  // namespace dssddi::e2e

#endif  // DSSDDI_BENCH_E2E_HARNESS_H_
