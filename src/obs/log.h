#ifndef DSSDDI_OBS_LOG_H_
#define DSSDDI_OBS_LOG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace dssddi::obs {

/// Flight recorder: a lock-free, fixed-capacity ring of structured wide
/// events — one per request completion and one per error path in net/
/// and serve/ — kept in memory for after-the-fact forensics and served
/// as newline-delimited JSON at GET /logz.
///
/// The design constraints mirror the PR-6 sampling discipline: Record()
/// runs on request completion paths, so it must never allocate, never
/// take a lock and never block. Events are plain fixed-width fields
/// (severity, route, status, trace id, shed/expiry reason, total and
/// per-stage durations) stored in per-slot atomics; writers take a
/// fetch_add ticket, claim its slot by CAS (a writer lapped onto a slot
/// that is busy or newer drops its event) and stamp a seqlock around the
/// field writes, so readers (the /logz render) detect and skip entries
/// mid-update instead of synchronizing with writers. Routes and detail
/// strings are restricted to string literals (stable addresses, no
/// copies) which is what keeps the record path allocation-free.

/// Event severity, ordered so a minimum-severity filter is one compare.
enum class LogSeverity : int {
  kInfo = 0,     // normal request completion
  kWarning = 1,  // client-attributable rejection (4xx, shed, expiry)
  kError = 2,    // server fault (5xx, scoring failure, parse error)
};

const char* LogSeverityName(LogSeverity severity);
/// Parses "info" / "warning" / "error" (case-sensitive); false on junk.
bool ParseLogSeverity(const std::string& text, LogSeverity* out);

/// Machine-readable cause attached to non-2xx events; kNone for plain
/// completions. One enum (not free-form strings) keeps Record zero-alloc
/// and makes /logz filterable without substring matching.
enum class LogReason : int {
  kNone = 0,
  kShedLoad,       // admission depth bounds -> 429
  kShedDeadline,   // infeasible budget -> 504
  kExpired,        // deadline passed after admission -> 504
  kBadRequest,     // malformed body / headers -> 400
  kParseError,     // HTTP-layer parse failure (connection closed)
  kOverloadClosed, // HTTP-layer connection cap hit
  kScoringError,   // batch scoring threw -> 500
  kReloadError,    // /admin/reload failed
  kSloTransition,  // SLO engine entered/exited degraded mode
  kReload,         // model snapshot swapped successfully
  kReplicaState,   // router circuit breaker changed state
  kStaleServe,     // router answered from the stale cache (all replicas open)
};

const char* LogReasonName(LogReason reason);

/// One wide event. Plain data out of the ring (no atomics); `route` and
/// `detail` point at string literals supplied by the recording site.
struct LogEvent {
  LogSeverity severity = LogSeverity::kInfo;
  LogReason reason = LogReason::kNone;
  const char* route = "";
  const char* detail = "";
  int status = 0;
  uint64_t trace_id = 0;
  double unix_seconds = 0.0;  // wall-clock stamp at record time
  double total_ms = 0.0;      // request duration; 0 when not applicable
  /// Stage durations copied from the request's trace when it was
  /// sampled; all zero otherwise.
  std::array<uint64_t, kNumStages> stage_ns{};
};

struct FlightRecorderOptions {
  /// Events retained across all threads; rounded up to a power of two.
  size_t capacity = 1024;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(const FlightRecorderOptions& options = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// Records one event. Lock-free, allocation-free, safe from any
  /// thread. `route` and `detail` must be string literals (or otherwise
  /// outlive the recorder). A null `trace` contributes zero stage
  /// durations — the common unsampled case.
  void Record(LogSeverity severity, LogReason reason, const char* route,
              int status, uint64_t trace_id, double total_ms,
              const Trace* trace = nullptr, const char* detail = "");

  /// Newline-delimited JSON of retained events, oldest first.
  /// `min_severity` drops events below it; `trace_filter` (nonzero)
  /// keeps one trace id; `route_filter` (non-empty) keeps one route.
  std::string RenderLogzJson(LogSeverity min_severity = LogSeverity::kInfo,
                             uint64_t trace_filter = 0,
                             const std::string& route_filter = "") const;

  /// Record calls since construction, including events since
  /// overwritten and events a lapped writer dropped unstored.
  uint64_t recorded() const {
    return next_ticket_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

  /// Consistent copies of currently retained events, oldest first
  /// (testing / render). Skips slots a writer holds mid-update.
  std::vector<LogEvent> SnapshotForTest() const;

 private:
  /// Seqlock-per-slot mirror of LogEvent. The claim ticket doubles as
  /// the sequence epoch: the slot holds ticket t while seq == 2t+2, and
  /// seq == 2t+1 while t's writer is stamping. All fields atomic so
  /// concurrent read/write is defined without a mutex.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<int> severity{0};
    std::atomic<int> reason{0};
    std::atomic<const char*> route{""};
    std::atomic<const char*> detail{""};
    std::atomic<int> status{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<double> unix_seconds{0.0};
    std::atomic<double> total_ms{0.0};
    std::array<std::atomic<uint64_t>, kNumStages> stage_ns{};
  };

  bool ReadSlot(size_t index, LogEvent* out, uint64_t* ticket) const;

  size_t capacity_;  // power of two
  std::atomic<uint64_t> next_ticket_{0};
  Slot* slots_;  // array of capacity_ slots, heap-allocated once
};

/// Appends one event as a single-line JSON object to `out` (one /logz
/// line).
void AppendLogEventJson(std::string* out, const LogEvent& event);

}  // namespace dssddi::obs

#endif  // DSSDDI_OBS_LOG_H_
