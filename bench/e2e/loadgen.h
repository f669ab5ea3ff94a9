#ifndef DSSDDI_BENCH_E2E_LOADGEN_H_
#define DSSDDI_BENCH_E2E_LOADGEN_H_

// Single-threaded loopback load generator: one thread drives every
// connection through one ppoll loop, open-loop (seeded Poisson arrivals,
// latency timed from each request's scheduled send time) or closed-loop
// in rounds (every connection sends its depth of requests at once; the
// next round starts once every answer of this one is back).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace dssddi::e2e {

enum class Transport {
  kHttp,   // HTTP/1.1 keep-alive, one request outstanding
  kFrame,  // raw wire-v2 frames, up to `depth` outstanding (pipelined)
};

/// Every request's latency limit: sent as X-Deadline-Ms on HTTP (frames
/// carry it as their deadline_ms), and it splits ok answers into in-limit
/// and over-limit. One second, the wait of a doctor at a screen: at 50 ms
/// a host stall of that length made the server shed a whole pipelined
/// round, so runs of unchanged code failed requests.
inline constexpr int kLatencyLimitMs = 1000;

struct ConnectionSpec {
  Transport transport = Transport::kHttp;
  int depth = 1;  // requests outstanding at once; 1 for HTTP
};

/// One request's payload. On an HTTP connection the generator wraps it
/// in a POST /v1/suggest carrying X-Deadline-Ms; on a frame connection
/// it is sent as is, with the generator's request_id stamped in.
struct OutgoingRequest {
  std::string body;  // JSON text, or a wire request frame when `binary`
  QueryMeta query;
  bool binary = false;
};

/// The workload's traffic, asked for one request at a time in dispatch
/// order (which, open-loop, is schedule order).
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual void Next(Transport transport, OutgoingRequest* out) = 0;
};

/// Judges one 200 answer; fills the answer's model version.
using AnswerCheck = std::function<bool(const OutgoingRequest& request, const char* body,
                                       size_t size, uint64_t* model_version)>;

/// A client-side span: {name, start_ns, end_ns, request_id, parent}, parent
/// being the index of the enclosing span in the same vector (-1: root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request_id = 0;
  int64_t parent = -1;
};

struct PhaseOptions {
  double seconds = 1.0;
  /// Poisson arrivals per second; 0 runs the phase closed-loop.
  double open_rate = 0.0;
  std::vector<ConnectionSpec> connections;
  /// POST /admin/reload with `reload_body` at the start of the phase and
  /// then every this many seconds, on a separate admin connection; 0 =
  /// never.
  double reload_every_s = 0.0;
  std::string reload_body;
  uint64_t seed = 1;
  /// Record client-side spans for every request.
  bool trace = false;
};

struct PhaseResult {
  double elapsed_s = 0.0;  // to the last answer, drain included
  uint64_t attempted = 0;  // scheduled (open loop) or dispatched (closed)
  uint64_t ok = 0;         // 200 and equal to the oracle
  uint64_t wrong = 0;      // 200 but not equal to the oracle
  uint64_t rejected = 0;   // non-200 status
  uint64_t lost = 0;       // transport errors, timeouts, never sent
  uint64_t over_limit = 0; // ok answers later than the latency limit
  uint64_t explained = 0;  // answers of any status to explain=true requests
  /// Latency of every ok answer, from its scheduled send time.
  std::vector<double> latency_ms;
  /// How late the generator sent each request after it was both due and
  /// had a free connection (closed loop: after the round's last answer).
  std::vector<double> lag_ms;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  std::vector<double> reload_ms;
  std::vector<uint64_t> reload_versions;
  uint64_t reload_failures = 0;
  uint64_t max_model_version = 0;
  /// CPU time of the generator thread over the phase.
  double cpu_s = 0.0;
  std::vector<Span> spans;

  uint64_t failed() const { return wrong + rejected + lost; }
  uint64_t in_limit() const { return ok - over_limit; }
};

/// Connections outlive a phase: the next phase reuses them by position,
/// so a run of short back-to-back phases (windows) opens each connection
/// once.
class LoadGenerator {
 public:
  LoadGenerator(int port, RequestSource* source, AnswerCheck check)
      : port_(port), source_(source), check_(std::move(check)) {}
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  PhaseResult Run(const PhaseOptions& options);

 private:
  int port_;
  RequestSource* source_;
  AnswerCheck check_;
  uint64_t next_request_id_ = 1;
  std::vector<int> fds_;  // traffic connections, by position; -1 = none
  int admin_fd_ = -1;
};

}  // namespace dssddi::e2e

#endif  // DSSDDI_BENCH_E2E_LOADGEN_H_
