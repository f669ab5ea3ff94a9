#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace dssddi::obs {

namespace {

constexpr const char* kStageNames[kNumStages] = {
    "http_parse", "admission", "queue_wait", "batch_form",
    "expiry_sweep", "gemm", "epilogue", "explain", "serialize",
};

// Min-heap on total_ns: the root is the least-slow retained trace, i.e.
// the one a new slower trace should evict.
bool SlowerHeapOrder(const TraceRecord& a, const TraceRecord& b) {
  return a.total_ns > b.total_ns;
}

double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string JsonEscapeMinimal(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendRecordJson(std::string* out, const TraceRecord& record) {
  char buf[64];
  *out += "{\"trace_id\":";
  *out += std::to_string(record.trace_id);
  *out += ",\"route\":\"";
  *out += JsonEscapeMinimal(record.route);
  *out += "\",\"status\":";
  *out += std::to_string(record.status);
  std::snprintf(buf, sizeof(buf), ",\"total_ms\":%.6f",
                NsToMs(record.total_ns));
  *out += buf;
  *out += ",\"stages_ms\":{";
  bool first = true;
  for (int s = 0; s < kNumStages; ++s) {
    const uint64_t ns = record.stage_ns[static_cast<size_t>(s)];
    if (ns == 0) continue;
    if (!first) *out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%.6f",
                  StageName(static_cast<Stage>(s)), NsToMs(ns));
    *out += buf;
  }
  *out += "}}";
}

TraceRecord MakeRecord(const Trace& trace, uint64_t total_ns) {
  TraceRecord record;
  record.trace_id = trace.trace_id;
  record.route = trace.route;
  record.status = trace.status.load(std::memory_order_relaxed);
  record.total_ns = total_ns;
  for (int s = 0; s < kNumStages; ++s) {
    record.stage_ns[static_cast<size_t>(s)] =
        trace.StageNs(static_cast<Stage>(s));
  }
  return record;
}

}  // namespace

const char* StageName(Stage stage) {
  const int index = static_cast<int>(stage);
  if (index < 0 || index >= kNumStages) return "unknown";
  return kStageNames[index];
}

TraceCollector::TraceCollector(std::shared_ptr<Registry> registry,
                               size_t ring_capacity)
    : registry_(std::move(registry)),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {
  for (int s = 0; s < kNumStages; ++s) {
    stage_histograms_[static_cast<size_t>(s)] = registry_->GetHistogram(
        "dssddi_stage_latency_ms",
        "Per-stage latency of sampled requests in milliseconds",
        {{"stage", StageName(static_cast<Stage>(s))}});
  }
  traces_sampled_ = registry_->GetCounter(
      "dssddi_traces_sampled_total", "Requests selected by head-based sampling");
  traces_errored_ = registry_->GetCounter(
      "dssddi_traces_errored_total",
      "Sampled requests that finished with status >= 400");
  slowest_.reserve(ring_capacity_);
}

TraceSampler* TraceCollector::SamplerForRoute(const std::string& route) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < sampler_routes_.size(); ++i) {
    if (sampler_routes_[i] == route) return samplers_[i].get();
  }
  sampler_routes_.push_back(route);
  samplers_.push_back(std::make_unique<TraceSampler>());
  return samplers_.back().get();
}

std::shared_ptr<Trace> TraceCollector::MaybeStartTrace(TraceSampler* sampler,
                                                       const char* route,
                                                       uint64_t trace_id) {
  if (sampler == nullptr || !sampler->Sample()) return nullptr;
  auto self = shared_from_this();
  auto* trace = new Trace;
  trace->trace_id = trace_id;
  trace->route = route;
  traces_sampled_->Increment();
  // The deleter is the finalizer: it runs exactly once, when the last
  // layer holding the trace (usually the serialize-and-send lambda)
  // releases it, and it pins the collector so finalization is safe even
  // after the owning service is gone.
  return std::shared_ptr<Trace>(trace, [self](Trace* t) {
    self->Finalize(t);
    delete t;
  });
}

void TraceCollector::Finalize(Trace* trace) {
  const auto elapsed = Trace::Clock::now() - trace->start;
  const uint64_t total_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  trace->total_ns.store(total_ns, std::memory_order_relaxed);

  for (int s = 0; s < kNumStages; ++s) {
    const uint64_t ns = trace->StageNs(static_cast<Stage>(s));
    if (ns != 0) {
      stage_histograms_[static_cast<size_t>(s)]->Record(NsToMs(ns));
    }
  }

  TraceRecord record = MakeRecord(*trace, total_ns);
  const bool errored = record.status >= 400;
  if (errored) traces_errored_->Increment();

  std::lock_guard<std::mutex> lock(mutex_);
  if (slowest_.size() < ring_capacity_) {
    slowest_.push_back(record);
    std::push_heap(slowest_.begin(), slowest_.end(), SlowerHeapOrder);
  } else if (total_ns > slowest_.front().total_ns) {
    std::pop_heap(slowest_.begin(), slowest_.end(), SlowerHeapOrder);
    slowest_.back() = record;
    std::push_heap(slowest_.begin(), slowest_.end(), SlowerHeapOrder);
  }
  if (errored) {
    errors_.push_back(std::move(record));
    while (errors_.size() > ring_capacity_) errors_.pop_front();
  }
}

std::string TraceCollector::RenderTracezJson() const {
  std::vector<TraceRecord> slow;
  std::deque<TraceRecord> errs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slow = slowest_;
    errs = errors_;
  }
  std::sort(slow.begin(), slow.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.total_ns > b.total_ns;
            });
  std::string out = "{\"ring_capacity\":" + std::to_string(ring_capacity_) +
                    ",\"slowest\":[";
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i != 0) out += ',';
    AppendRecordJson(&out, slow[i]);
  }
  out += "],\"errors\":[";
  // Most recent error first.
  for (size_t i = 0; i < errs.size(); ++i) {
    if (i != 0) out += ',';
    AppendRecordJson(&out, errs[errs.size() - 1 - i]);
  }
  out += "]}";
  return out;
}

std::vector<TraceRecord> TraceCollector::SlowestForTest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slowest_;
}

}  // namespace dssddi::obs
