#ifndef DSSDDI_OBS_METRICS_H_
#define DSSDDI_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dssddi::obs {

/// Dependency-free metrics core for the serving stack. Three metric
/// kinds — monotone Counter, set-to-latest Gauge, log-linear-bucketed
/// Histogram — registered by (name, labels) in a Registry that renders
/// Prometheus exposition text for the /metricsz route.
///
/// The hot path is write-heavy and shared by every request, so Counter
/// and Histogram shard their state per thread (a thread-local shard
/// index spreads writers over cache-line-padded atomic blocks) and every
/// write is a handful of relaxed atomic ops: no locks, no allocation,
/// no clock reads. Reads (Value / Snapshot) sum across shards — they are
/// O(shards x buckets) and meant for exposition and periodic refresh,
/// not per-request work.

// ---------------------------------------------------------------------
// Bucket layout, shared by every histogram.
// ---------------------------------------------------------------------

/// Log-linear bucketing: each power-of-two octave of the value range is
/// split into 4 linear sub-buckets, so quantile readout has a bounded
/// relative error (a bucket spans at most +25% of its lower bound, and
/// interpolation inside the bucket does much better) while the whole
/// layout stays small enough to shard per thread. The range covers
/// (0, 2^kBucketMinExp] underflow through (2^kBucketMaxExp, +inf)
/// overflow — in milliseconds that is "under a microsecond" to "over
/// half a minute", bracketing everything the serving stack measures.
/// All histograms share these bounds, which is what makes snapshots
/// mergeable bucket-by-bucket and /metricsz buckets comparable across
/// routes and stages.
inline constexpr int kBucketMinExp = -10;  // 2^-10 ~= 0.00098
inline constexpr int kBucketMaxExp = 15;   // 2^15  = 32768
inline constexpr int kBucketsPerOctave = 4;
inline constexpr int kNumBuckets =
    (kBucketMaxExp - kBucketMinExp) * kBucketsPerOctave + 2;

/// Upper bound (inclusive) of bucket `index`; the last bucket's bound is
/// +infinity. Bounds are strictly increasing.
double BucketUpperBound(int index);

/// Bucket index for `value`. Values <= the smallest bound (including
/// zero, negatives and NaN) land in bucket 0; values above the largest
/// finite bound land in the overflow bucket. The arithmetic fast path is
/// verified against a linear bound scan in tests.
int BucketIndex(double value);

// ---------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------

/// Number of write shards for counters and histograms. A power of two so
/// the thread-shard assignment is a mask, sized to keep same-cache-line
/// collisions rare at the thread counts this stack runs (loops + pool).
inline constexpr size_t kWriteShards = 8;

/// Monotonically increasing event count. `Add` is a single relaxed
/// fetch_add on the calling thread's shard; `Value` sums the shards
/// (so it is monotone but momentarily behind concurrent writers).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1);
  void Increment() { Add(1); }
  uint64_t Value() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kWriteShards> shards_;
};

/// Last-written value (queue depth, in-flight count, model version).
/// A single atomic — gauges are low-rate by nature.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// One bucket's exemplar: the most recent observation that landed in the
/// bucket while carrying a trace id, so a tail bucket in /metricsz points
/// at the /tracez//logz entry that caused it (OpenMetrics 1.0 exemplars).
/// `timestamp` is unix seconds; `valid` is false until the first write.
struct Exemplar {
  uint64_t trace_id = 0;
  double value = 0.0;
  double timestamp = 0.0;
  bool valid = false;
};

/// Point-in-time histogram state: per-bucket counts (NOT cumulative),
/// total count, value sum, and the largest value observed. Plain data —
/// snapshots merge associatively and commutatively, so per-shard,
/// per-thread or per-process snapshots can be combined in any order and
/// agree bit-for-bit. Fixed-size arrays keep Snapshot/Merge/Quantile
/// allocation-free.
struct HistogramSnapshot {
  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;  // 0 when count == 0

  void Merge(const HistogramSnapshot& other);

  /// Quantile estimate by rank walk + linear interpolation inside the
  /// containing bucket. q is clamped to [0, 1]; returns 0 when empty.
  /// The overflow bucket reports the observed max (there is no upper
  /// bound to interpolate toward).
  double Quantile(double q) const;
};

/// Mergeable log-linear histogram with per-thread-sharded lock-free
/// recording. Record(value) costs one bucket-index computation plus
/// four relaxed atomic ops on the caller's shard; the exemplar overload
/// adds one try-lock exchange and a handful of relaxed stores (and
/// drops the exemplar, never blocks, when another writer holds the
/// bucket's slot — last-write-wins tolerates losing a race).
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);
  /// Record plus an exemplar for the containing bucket: the observed
  /// value, the request's trace id, and a unix-seconds timestamp.
  /// trace_id == 0 (no trace identity) records the value only. Never
  /// allocates, never blocks.
  void Record(double value, uint64_t exemplar_trace_id, double unix_seconds);
  HistogramSnapshot Snapshot() const;
  uint64_t Count() const;
  /// Consistent copy of one bucket's exemplar slot (valid=false when the
  /// bucket never saw an exemplar or a writer was mid-update).
  Exemplar ExemplarAt(int bucket) const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
  };
  /// Seqlock-guarded exemplar slot: writers take the try-lock (skip on
  /// contention), bump seq to odd, store fields relaxed, bump seq to
  /// even. Readers accept only even, unchanged, nonzero seqs. All-atomic
  /// so concurrent access is defined (and TSan-clean) without a mutex.
  struct ExemplarSlot {
    std::atomic<uint32_t> seq{0};
    std::atomic<bool> busy{false};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<double> value{0.0};
    std::atomic<double> timestamp{0.0};
  };
  std::array<Shard, kWriteShards> shards_;
  std::array<ExemplarSlot, kNumBuckets> exemplars_;
};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Prometheus-style label set, in render order. Values may contain any
/// bytes; rendering escapes backslash, quote and newline.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Exposition dialect. 0.0.4 is the classic Prometheus text format the
/// existing /metricsz serves; OpenMetrics 1.0 strips `_total` from
/// counter family names in HELP/TYPE lines, emits histogram bucket
/// exemplars, and requires the final payload to end in `# EOF`.
enum class ExpositionFormat { kPrometheus004, kOpenMetrics100 };

/// Named metric registry: get-or-create by (name, labels), stable
/// pointers for the process lifetime of the registry, and Prometheus
/// text rendering. Registration takes a mutex (it happens once per
/// metric, at setup); the returned Counter*/Gauge*/Histogram* are the
/// lock-free hot-path handles. One registry per SuggestionService, not
/// process-global, so independent services (tests, benches, future
/// shards) never bleed samples into each other's /metricsz.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. `help` is kept from the first registration of a
  /// name; two metrics may share a name only with different labels (one
  /// Prometheus family, several series).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          Labels labels = {});

  /// Prometheus exposition text for every registered metric: families in
  /// first-registration order, `# HELP` / `# TYPE` once per family,
  /// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
  /// `_count`.
  std::string RenderPrometheusText() const;

  /// OpenMetrics 1.0 text for every registered metric. Differences from
  /// the 0.0.4 render: counter families drop the `_total` suffix in
  /// HELP/TYPE (samples keep it, per the spec), histogram buckets carry
  /// `# {trace_id="..."} value timestamp` exemplars when a bucket has
  /// one, and the body does NOT end in `# EOF` — the route handler
  /// appends the terminator once, after concatenating sections.
  std::string RenderOpenMetricsText() const;

  /// Registered family names in registration order (for the naming lint
  /// and self-description endpoints).
  std::vector<std::string> FamilyNames() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    Kind kind;
    std::vector<std::unique_ptr<Metric>> metrics;
  };

  Metric* GetOrCreate(Kind kind, const std::string& name,
                      const std::string& help, Labels labels);
  std::string RenderText(ExpositionFormat format) const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;  // registration order
};

}  // namespace dssddi::obs

#endif  // DSSDDI_OBS_METRICS_H_
