#include "obs/log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace dssddi::obs {

namespace {

double UnixSecondsNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* LogSeverityName(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kInfo: return "info";
    case LogSeverity::kWarning: return "warning";
    case LogSeverity::kError: return "error";
  }
  return "unknown";
}

bool ParseLogSeverity(const std::string& text, LogSeverity* out) {
  if (text == "info") { *out = LogSeverity::kInfo; return true; }
  if (text == "warning") { *out = LogSeverity::kWarning; return true; }
  if (text == "error") { *out = LogSeverity::kError; return true; }
  return false;
}

const char* LogReasonName(LogReason reason) {
  switch (reason) {
    case LogReason::kNone: return "none";
    case LogReason::kShedLoad: return "shed_load";
    case LogReason::kShedDeadline: return "shed_deadline";
    case LogReason::kExpired: return "expired";
    case LogReason::kBadRequest: return "bad_request";
    case LogReason::kParseError: return "parse_error";
    case LogReason::kOverloadClosed: return "overload_closed";
    case LogReason::kScoringError: return "scoring_error";
    case LogReason::kReloadError: return "reload_error";
    case LogReason::kSloTransition: return "slo_transition";
    case LogReason::kReload: return "reload";
    case LogReason::kReplicaState: return "replica_state";
    case LogReason::kStaleServe: return "stale_serve";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : capacity_(RoundUpPow2(options.capacity == 0 ? 1 : options.capacity)),
      options_(options),
      slots_(new Slot[capacity_]) {}

FlightRecorder::~FlightRecorder() { delete[] slots_; }

void FlightRecorder::Record(LogSeverity severity, LogReason reason,
                            const char* route, int status, uint64_t trace_id,
                            double total_ms, const Trace* trace,
                            const char* detail) {
  // Claim a slot by ticket. Distinct tickets map to distinct slots until
  // the ring wraps. The slot's seq holds 2 * (ticket + 1) once the event
  // is complete and that minus one (odd) while its writer is stamping.
  // A writer may claim the slot only by CAS from an even seq stamped by
  // an older ticket: a lapped writer that finds the slot mid-update or
  // already newer drops its event instead of mixing fields into it (a
  // failed CAS retries while the slot is still idle and older). The
  // acquire pairs with the previous owner's final release store, so
  // that owner's field stores are ordered before this writer's.
  const uint64_t ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (capacity_ - 1)];
  const uint64_t stamp = 2 * (ticket + 1);
  uint64_t current = slot.seq.load(std::memory_order_relaxed);
  bool claimed = false;
  while (!claimed && (current & 1u) == 0 && current < stamp) {
    claimed = slot.seq.compare_exchange_weak(current, stamp - 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed);
  }
  if (claimed) {
    // Orders the odd stamp before every field store below: a reader that
    // sees any new field value then also sees seq moved (its acquire
    // fence pairs with this one).
    std::atomic_thread_fence(std::memory_order_release);
    slot.severity.store(static_cast<int>(severity), std::memory_order_relaxed);
    slot.reason.store(static_cast<int>(reason), std::memory_order_relaxed);
    slot.route.store(route, std::memory_order_relaxed);
    slot.detail.store(detail, std::memory_order_relaxed);
    slot.status.store(status, std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.unix_seconds.store(UnixSecondsNow(), std::memory_order_relaxed);
    slot.total_ms.store(total_ms, std::memory_order_relaxed);
    for (int s = 0; s < kNumStages; ++s) {
      const uint64_t ns =
          trace != nullptr ? trace->StageNs(static_cast<Stage>(s)) : 0;
      slot.stage_ns[static_cast<size_t>(s)].store(ns, std::memory_order_relaxed);
    }
    slot.seq.store(stamp, std::memory_order_release);
  }

  if (options_.stderr_errors && severity == LogSeverity::kError) {
    // Fixed-buffer single-line JSON to stderr: allocation-free so the
    // sink is safe even under memory pressure (its whole reason to
    // exist). Stage detail is omitted — the ring has it.
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"severity\":\"error\",\"reason\":\"%s\",\"route\":\"%s\","
                  "\"status\":%d,\"trace_id\":%llu,\"total_ms\":%.3f,"
                  "\"detail\":\"%s\"}\n",
                  LogReasonName(reason), route, status,
                  static_cast<unsigned long long>(trace_id), total_ms, detail);
    std::fputs(buf, stderr);
  }
}

bool FlightRecorder::ReadSlot(size_t index, LogEvent* out,
                              uint64_t* ticket) const {
  const Slot& slot = slots_[index];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0) return false;       // never written
    if ((before & 1u) != 0) continue;    // writer mid-stamp
    LogEvent event;
    event.severity =
        static_cast<LogSeverity>(slot.severity.load(std::memory_order_relaxed));
    event.reason =
        static_cast<LogReason>(slot.reason.load(std::memory_order_relaxed));
    event.route = slot.route.load(std::memory_order_relaxed);
    event.detail = slot.detail.load(std::memory_order_relaxed);
    event.status = slot.status.load(std::memory_order_relaxed);
    event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    event.unix_seconds = slot.unix_seconds.load(std::memory_order_relaxed);
    event.total_ms = slot.total_ms.load(std::memory_order_relaxed);
    for (int s = 0; s < kNumStages; ++s) {
      event.stage_ns[static_cast<size_t>(s)] =
          slot.stage_ns[static_cast<size_t>(s)].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    *out = event;
    *ticket = before / 2 - 1;  // seq == 2 * (ticket + 1)
    return true;
  }
  return false;
}

std::vector<LogEvent> FlightRecorder::SnapshotForTest() const {
  // Collect (ticket, event) pairs and order oldest-first by ticket.
  std::vector<std::pair<uint64_t, LogEvent>> entries;
  entries.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    LogEvent event;
    uint64_t ticket = 0;
    if (ReadSlot(i, &event, &ticket)) entries.emplace_back(ticket, event);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<LogEvent> events;
  events.reserve(entries.size());
  for (auto& [ticket, event] : entries) events.push_back(event);
  return events;
}

void AppendLogEventJson(std::string* out, const LogEvent& event) {
  char buf[96];
  *out += "{\"severity\":\"";
  *out += LogSeverityName(event.severity);
  *out += "\",\"reason\":\"";
  *out += LogReasonName(event.reason);
  *out += "\",\"route\":\"";
  *out += event.route;
  *out += "\",\"status\":";
  *out += std::to_string(event.status);
  *out += ",\"trace_id\":";
  *out += std::to_string(event.trace_id);
  std::snprintf(buf, sizeof(buf), ",\"unix_seconds\":%.6f,\"total_ms\":%.6f",
                event.unix_seconds, event.total_ms);
  *out += buf;
  if (event.detail[0] != '\0') {
    *out += ",\"detail\":\"";
    *out += event.detail;
    *out += '"';
  }
  bool any_stage = false;
  for (int s = 0; s < kNumStages; ++s) {
    if (event.stage_ns[static_cast<size_t>(s)] != 0) { any_stage = true; break; }
  }
  if (any_stage) {
    *out += ",\"stages_ms\":{";
    bool first = true;
    for (int s = 0; s < kNumStages; ++s) {
      const uint64_t ns = event.stage_ns[static_cast<size_t>(s)];
      if (ns == 0) continue;
      if (!first) *out += ',';
      first = false;
      std::snprintf(buf, sizeof(buf), "\"%s\":%.6f",
                    StageName(static_cast<Stage>(s)),
                    static_cast<double>(ns) / 1e6);
      *out += buf;
    }
    *out += '}';
  }
  *out += '}';
}

std::string FlightRecorder::RenderLogzJson(LogSeverity min_severity,
                                           uint64_t trace_filter,
                                           const std::string& route_filter) const {
  std::string out;
  for (const LogEvent& event : SnapshotForTest()) {
    if (static_cast<int>(event.severity) < static_cast<int>(min_severity)) {
      continue;
    }
    if (trace_filter != 0 && event.trace_id != trace_filter) continue;
    if (!route_filter.empty() && route_filter != event.route) continue;
    AppendLogEventJson(&out, event);
    out += '\n';
  }
  return out;
}

}  // namespace dssddi::obs
