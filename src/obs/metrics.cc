#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace dssddi::obs {

namespace {

// Round-robin thread → shard assignment. A plain counter (not the thread
// id hash) keeps shard occupancy balanced however the runtime allocates
// thread ids.
size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kWriteShards - 1);
  return shard;
}
static_assert((kWriteShards & (kWriteShards - 1)) == 0,
              "kWriteShards must be a power of two");

// Relaxed CAS-max / CAS-add for the double fields (no fetch_add for
// atomic<double> in C++17).
void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

// Shortest round-trip double formatting ("%.17g" is exact but noisy;
// Prometheus convention is human-readable, so try increasing precision
// until the value round-trips).
std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// `value` with Prometheus label-value escaping applied (backslash,
/// double quote, newline).
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Append-style exposition writer behind Registry's two renders. It
/// speaks classic 0.0.4 and OpenMetrics 1.0, where counter families drop
/// the `_total` suffix in HELP/TYPE lines and histogram buckets may
/// carry exemplars.
class PrometheusTextWriter {
 public:
  explicit PrometheusTextWriter(ExpositionFormat format) : format_(format) {}

  /// HELP + TYPE for one family (`type` is "counter", "gauge" or
  /// "histogram"), with the dialect's name rules applied: OpenMetrics
  /// names a counter family WITHOUT the `_total` suffix its sample lines
  /// carry; the 0.0.4 dialect uses the full name everywhere.
  void FamilyHeader(const std::string& name, const char* type,
                    const std::string& help) {
    std::string family = name;
    if (format_ == ExpositionFormat::kOpenMetrics100 &&
        std::strcmp(type, "counter") == 0 && family.size() > 6 &&
        family.compare(family.size() - 6, 6, "_total") == 0) {
      family.resize(family.size() - 6);
    }
    out_ += "# HELP " + family + ' ' + help + '\n';
    out_ += "# TYPE " + family + ' ' + type + '\n';
  }

  void Value(const std::string& name, const Labels& labels, double value) {
    SeriesHeader(name, labels);
    out_ += FormatDouble(value);
    out_ += '\n';
  }

  void Value(const std::string& name, const Labels& labels, uint64_t value) {
    SeriesHeader(name, labels);
    out_ += std::to_string(value);
    out_ += '\n';
  }

  /// Cumulative `_bucket`/`_sum`/`_count` series for one histogram. In
  /// OpenMetrics format, a non-null `exemplar_source` contributes
  /// `# {trace_id="..."} value timestamp` exemplars on bucket lines.
  void HistogramSeries(const std::string& name, const Labels& labels,
                       const HistogramSnapshot& snapshot,
                       const Histogram* exemplar_source) {
    uint64_t cumulative = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      cumulative += snapshot.buckets[static_cast<size_t>(b)];
      SeriesHeader(name + "_bucket", labels, "le",
                   FormatDouble(BucketUpperBound(b)));
      out_ += std::to_string(cumulative);
      if (format_ == ExpositionFormat::kOpenMetrics100 &&
          exemplar_source != nullptr) {
        const Exemplar exemplar = exemplar_source->ExemplarAt(b);
        if (exemplar.valid) {
          out_ += " # {trace_id=\"";
          out_ += std::to_string(exemplar.trace_id);
          out_ += "\"} ";
          out_ += FormatDouble(exemplar.value);
          out_ += ' ';
          out_ += FormatDouble(exemplar.timestamp);
        }
      }
      out_ += '\n';
    }
    SeriesHeader(name + "_sum", labels);
    out_ += FormatDouble(snapshot.sum);
    out_ += '\n';
    SeriesHeader(name + "_count", labels);
    out_ += std::to_string(snapshot.count);
    out_ += '\n';
  }

  const std::string& str() const { return out_; }

 private:
  void SeriesHeader(const std::string& name, const Labels& labels,
                    const std::string& extra_label_name = "",
                    const std::string& extra_label_value = "") {
    out_ += name;
    if (!labels.empty() || !extra_label_name.empty()) {
      out_ += '{';
      bool first = true;
      for (const auto& [key, value] : labels) {
        if (!first) out_ += ',';
        first = false;
        out_ += key;
        out_ += "=\"";
        out_ += EscapeLabelValue(value);
        out_ += '"';
      }
      if (!extra_label_name.empty()) {
        if (!first) out_ += ',';
        out_ += extra_label_name;
        out_ += "=\"";
        out_ += EscapeLabelValue(extra_label_value);
        out_ += '"';
      }
      out_ += '}';
    }
    out_ += ' ';
  }

  ExpositionFormat format_;
  std::string out_;
};

}  // namespace

// ---------------------------------------------------------------------
// Buckets
// ---------------------------------------------------------------------

double BucketUpperBound(int index) {
  if (index <= 0) return std::ldexp(1.0, kBucketMinExp);
  if (index >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  // Bucket (index) for index in [1, last-1] is the (sub)-th linear slice
  // of octave (kBucketMinExp + oct): bounds step by 2^oct / 4.
  const int oct = (index - 1) / kBucketsPerOctave;
  const int sub = (index - 1) % kBucketsPerOctave;
  const double lo = std::ldexp(1.0, kBucketMinExp + oct);
  return lo + (sub + 1) * (lo / kBucketsPerOctave);
}

int BucketIndex(double value) {
  if (!(value > std::ldexp(1.0, kBucketMinExp))) return 0;  // NaN/neg/zero too
  if (value > std::ldexp(1.0, kBucketMaxExp)) return kNumBuckets - 1;
  int exp;
  const double frac = std::frexp(value, &exp);  // value = frac * 2^exp
  // frexp gives frac in [0.5, 1): value sits in octave exp-1 unless it is
  // exactly a power of two, in which case it is the inclusive top of the
  // previous octave's last bucket.
  int oct = (exp - 1) - kBucketMinExp;
  int sub = static_cast<int>((frac * 2.0 - 1.0) * kBucketsPerOctave);
  if (sub >= kBucketsPerOctave) sub = kBucketsPerOctave - 1;
  int index = 1 + oct * kBucketsPerOctave + sub;
  // Bounds are inclusive upper: fix up float-boundary cases in either
  // direction (at most one step each way by construction).
  while (index > 0 && value <= BucketUpperBound(index - 1)) --index;
  while (index < kNumBuckets - 1 && value > BucketUpperBound(index)) ++index;
  return index;
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

void Counter::Add(uint64_t n) {
  shards_[ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

void Histogram::Record(double value) {
  Shard& shard = shards_[ThisThreadShard()];
  shard.buckets[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) {
    AtomicAddDouble(shard.sum, value);
    AtomicMaxDouble(shard.max, value);
  }
}

void Histogram::Record(double value, uint64_t exemplar_trace_id,
                       double unix_seconds) {
  const int bucket = BucketIndex(value);
  Shard& shard = shards_[ThisThreadShard()];
  shard.buckets[static_cast<size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) {
    AtomicAddDouble(shard.sum, value);
    AtomicMaxDouble(shard.max, value);
  }
  if (exemplar_trace_id == 0) return;
  // Last-write-wins exemplar under a try-lock: a writer that loses the
  // race simply drops its exemplar (another observation from the same
  // bucket just won; either is a valid exemplar). The seq odd/even dance
  // lets readers detect a mid-update slot without blocking the writer.
  ExemplarSlot& slot = exemplars_[static_cast<size_t>(bucket)];
  if (slot.busy.exchange(true, std::memory_order_acquire)) return;
  slot.seq.fetch_add(1, std::memory_order_release);  // now odd
  slot.trace_id.store(exemplar_trace_id, std::memory_order_relaxed);
  slot.value.store(value, std::memory_order_relaxed);
  slot.timestamp.store(unix_seconds, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);  // even again
  slot.busy.store(false, std::memory_order_release);
}

Exemplar Histogram::ExemplarAt(int bucket) const {
  Exemplar out;
  if (bucket < 0 || bucket >= kNumBuckets) return out;
  const ExemplarSlot& slot = exemplars_[static_cast<size_t>(bucket)];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint32_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1u) != 0) {
      if (before == 0) return out;  // never written
      continue;                     // writer mid-update, retry
    }
    const uint64_t trace_id = slot.trace_id.load(std::memory_order_relaxed);
    const double value = slot.value.load(std::memory_order_relaxed);
    const double timestamp = slot.timestamp.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    out.trace_id = trace_id;
    out.value = value;
    out.timestamp = timestamp;
    out.valid = true;
    return out;
  }
  return out;  // persistent contention: report no exemplar this render
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const auto& shard : shards_) {
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kNumBuckets; ++b) {
      snap.buckets[static_cast<size_t>(b)] +=
          shard.buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets[static_cast<size_t>(b)] += other.buckets[static_cast<size_t>(b)];
  }
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the q-th sample, 1-based, nearest-rank with ceil: matches the
  // scalar "sorted[ceil(q*n)-1]" oracle at the bucket granularity.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t in_bucket = buckets[static_cast<size_t>(b)];
    if (in_bucket == 0) continue;
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    // The rank-th sample is in bucket b. The overflow bucket has no
    // finite upper bound: report the tracked max. Otherwise interpolate
    // linearly between the bucket's bounds by within-bucket rank.
    if (b == kNumBuckets - 1) return max;
    const double hi = BucketUpperBound(b);
    const double lo = b == 0 ? 0.0 : BucketUpperBound(b - 1);
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
    double est = lo + frac * (hi - lo);
    // Never report beyond the largest value actually observed.
    if (max > 0.0 && est > max) est = max;
    return est;
  }
  return max;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Registry::Metric* Registry::GetOrCreate(Kind kind, const std::string& name,
                                        const std::string& help,
                                        Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family* family = nullptr;
  for (auto& f : families_) {
    if (f->name == name) {
      family = f.get();
      break;
    }
  }
  if (family == nullptr) {
    families_.push_back(std::make_unique<Family>());
    family = families_.back().get();
    family->name = name;
    family->help = help;
    family->kind = kind;
  }
  for (auto& m : family->metrics) {
    if (m->labels == labels) return m.get();
  }
  auto metric = std::make_unique<Metric>();
  metric->kind = kind;
  metric->labels = std::move(labels);
  switch (kind) {
    case Kind::kCounter: metric->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: metric->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      metric->histogram = std::make_unique<Histogram>();
      break;
  }
  family->metrics.push_back(std::move(metric));
  return family->metrics.back().get();
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help,
                              Labels labels) {
  return GetOrCreate(Kind::kCounter, name, help, std::move(labels))
      ->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          Labels labels) {
  return GetOrCreate(Kind::kGauge, name, help, std::move(labels))->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help, Labels labels) {
  return GetOrCreate(Kind::kHistogram, name, help, std::move(labels))
      ->histogram.get();
}

std::string Registry::RenderText(ExpositionFormat format) const {
  PrometheusTextWriter writer(format);
  const bool openmetrics = format == ExpositionFormat::kOpenMetrics100;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& family : families_) {
    const char* type = "gauge";
    switch (family->kind) {
      case Kind::kCounter: type = "counter"; break;
      case Kind::kGauge: type = "gauge"; break;
      case Kind::kHistogram: type = "histogram"; break;
    }
    writer.FamilyHeader(family->name, type, family->help);
    for (const auto& metric : family->metrics) {
      switch (metric->kind) {
        case Kind::kCounter:
          writer.Value(family->name, metric->labels, metric->counter->Value());
          break;
        case Kind::kGauge:
          writer.Value(family->name, metric->labels, metric->gauge->Value());
          break;
        case Kind::kHistogram:
          writer.HistogramSeries(family->name, metric->labels,
                                 metric->histogram->Snapshot(),
                                 openmetrics ? metric->histogram.get()
                                             : nullptr);
          break;
      }
    }
  }
  return writer.str();
}

std::string Registry::RenderPrometheusText() const {
  return RenderText(ExpositionFormat::kPrometheus004);
}

std::string Registry::RenderOpenMetricsText() const {
  return RenderText(ExpositionFormat::kOpenMetrics100);
}

std::vector<std::string> Registry::FamilyNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& family : families_) names.push_back(family->name);
  return names;
}

}  // namespace dssddi::obs
