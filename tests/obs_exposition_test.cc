// Tests for the exposition surfaces: /metricsz must parse with a real
// (in-test) Prometheus text parser — valid names, label escaping that
// round-trips, cumulative buckets that are monotone and agree with
// _count — /tracez must retain the true top-N slowest traces, trace ids
// must round-trip bit-identically through the JSON body, the X-Trace-Id
// header, and both binary frame codecs, a traced request must show up in
// /tracez with real per-stage timings, and /statsz and /metricsz must
// report the same counts (both render one registry).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dssddi_system.h"
#include "gtest/gtest.h"
#include "io/inference_bundle.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/suggest_frontend.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"
#include "test_support.h"
#include "worker_gate.h"

namespace dssddi {
namespace {

namespace wire = net::wire;

// ---------------------------------------------------------------------
// In-test Prometheus text-format parser. Strict on purpose: a scrape
// endpoint that only "mostly" follows the format works right up until a
// real scraper hits the corner it got wrong.
// ---------------------------------------------------------------------

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

struct PromExposition {
  std::vector<PromSample> samples;
  std::map<std::string, std::string> types;  // family -> counter/gauge/...
  std::map<std::string, std::string> help;   // family -> help text

  const PromSample* Find(const std::string& name,
                         const std::map<std::string, std::string>& labels)
      const {
    for (const PromSample& s : samples) {
      if (s.name == name && s.labels == labels) return &s;
    }
    return nullptr;
  }
};

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Parses one exposition document; ADD_FAILUREs on any format violation
/// and returns what it could read.
PromExposition ParsePrometheus(const std::string& text) {
  PromExposition out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      ADD_FAILURE() << "exposition must end with a newline";
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_help = line[2] == 'H';
        const size_t name_begin = 7;
        const size_t name_end = line.find(' ', name_begin);
        if (name_end == std::string::npos) {
          ADD_FAILURE() << "comment without payload: " << line;
          continue;
        }
        const std::string name = line.substr(name_begin, name_end - name_begin);
        EXPECT_TRUE(ValidMetricName(name)) << line;
        if (is_help) {
          EXPECT_EQ(out.help.count(name), 0u)
              << "duplicate # HELP for " << name;
          out.help[name] = line.substr(name_end + 1);
        } else {
          EXPECT_EQ(out.types.count(name), 0u)
              << "duplicate # TYPE for " << name;
          out.types[name] = line.substr(name_end + 1);
        }
      } else {
        ADD_FAILURE() << "unrecognized comment line: " << line;
      }
      continue;
    }

    PromSample sample;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    sample.name = line.substr(0, i);
    if (!ValidMetricName(sample.name)) {
      ADD_FAILURE() << "bad metric name in: " << line;
      continue;
    }
    bool malformed = false;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const size_t eq = line.find('=', i);
        if (eq == std::string::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          ADD_FAILURE() << "malformed label in: " << line;
          malformed = true;
          break;
        }
        const std::string key = line.substr(i, eq - i);
        EXPECT_TRUE(ValidMetricName(key)) << "bad label name in: " << line;
        // Unescape the label value; this is the round-trip check for the
        // writer's escaping.
        std::string value;
        size_t j = eq + 2;
        bool closed = false;
        while (j < line.size()) {
          const char c = line[j];
          if (c == '"') {
            closed = true;
            ++j;
            break;
          }
          if (c == '\\') {
            if (j + 1 >= line.size()) break;
            const char esc = line[j + 1];
            if (esc == '\\') value += '\\';
            else if (esc == '"') value += '"';
            else if (esc == 'n') value += '\n';
            else ADD_FAILURE() << "bad escape \\" << esc << " in: " << line;
            j += 2;
            continue;
          }
          value += c;
          ++j;
        }
        if (!closed) {
          ADD_FAILURE() << "unterminated label value: " << line;
          malformed = true;
          break;
        }
        sample.labels[key] = value;
        i = j;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (malformed) continue;
      if (i >= line.size()) {
        ADD_FAILURE() << "unterminated label set: " << line;
        continue;
      }
      ++i;  // '}'
    }
    if (i >= line.size() || line[i] != ' ') {
      ADD_FAILURE() << "sample without value: " << line;
      continue;
    }
    const std::string value_text = line.substr(i + 1);
    if (value_text == "+Inf") {
      sample.value = std::numeric_limits<double>::infinity();
    } else if (value_text == "-Inf") {
      sample.value = -std::numeric_limits<double>::infinity();
    } else if (value_text == "NaN") {
      sample.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_text.c_str(), &end);
      EXPECT_EQ(*end, '\0') << "trailing junk after value: " << line;
    }
    out.samples.push_back(std::move(sample));
  }

  // Every sample's family must have been announced with HELP and TYPE.
  for (const PromSample& s : out.samples) {
    std::string family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t n = std::strlen(suffix);
      if (family.size() > n &&
          family.compare(family.size() - n, n, suffix) == 0) {
        const std::string base = family.substr(0, family.size() - n);
        if (out.types.count(base) != 0 &&
            out.types.at(base) == "histogram") {
          family = base;
          break;
        }
      }
    }
    EXPECT_EQ(out.types.count(family), 1u) << "no # TYPE for " << s.name;
    EXPECT_EQ(out.help.count(family), 1u) << "no # HELP for " << s.name;
  }
  return out;
}

/// For every histogram family: per label-set (minus `le`) the cumulative
/// buckets must be monotone nondecreasing, end at le="+Inf", and agree
/// with the family's _count sample.
void CheckHistogramsConsistent(const PromExposition& exposition) {
  for (const auto& [family, type] : exposition.types) {
    if (type != "histogram") continue;
    // Group bucket samples by their non-le labels.
    std::map<std::string, std::vector<std::pair<double, double>>> series;
    for (const PromSample& s : exposition.samples) {
      if (s.name != family + "_bucket") continue;
      auto labels = s.labels;
      ASSERT_EQ(labels.count("le"), 1u) << family << " bucket without le";
      const std::string le = labels.at("le");
      labels.erase("le");
      std::string key;
      for (const auto& [k, v] : labels) key += k + "=" + v + ";";
      const double bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(le.c_str(), nullptr);
      series[key].emplace_back(bound, s.value);
    }
    EXPECT_FALSE(series.empty()) << family << " has no bucket series";
    for (auto& [key, buckets] : series) {
      ASSERT_FALSE(buckets.empty());
      for (size_t i = 1; i < buckets.size(); ++i) {
        EXPECT_GT(buckets[i].first, buckets[i - 1].first)
            << family << "{" << key << "} bounds not increasing";
        EXPECT_GE(buckets[i].second, buckets[i - 1].second)
            << family << "{" << key << "} cumulative counts not monotone";
      }
      EXPECT_TRUE(std::isinf(buckets.back().first))
          << family << "{" << key << "} must end at le=\"+Inf\"";
      // Find the matching _count sample (same labels, no le).
      bool found = false;
      for (const PromSample& s : exposition.samples) {
        if (s.name != family + "_count") continue;
        std::string count_key;
        for (const auto& [k, v] : s.labels) count_key += k + "=" + v + ";";
        if (count_key != key) continue;
        found = true;
        EXPECT_EQ(buckets.back().second, s.value)
            << family << "{" << key << "} +Inf bucket disagrees with _count";
      }
      EXPECT_TRUE(found) << family << "{" << key << "} has no _count";
    }
  }
}

// ---------------------------------------------------------------------
// In-test OpenMetrics 1.0 parser. Strict like the 0.0.4 one above, plus
// the OpenMetrics-specific rules: counter families are announced WITHOUT
// the `_total` suffix their samples carry, bucket lines may carry
// ` # {trace_id="..."} value timestamp` exemplars (and only bucket
// lines), and the payload ends with exactly one `# EOF` line.
// ---------------------------------------------------------------------

struct OmExemplar {
  bool valid = false;
  uint64_t trace_id = 0;
  double value = 0.0;
  double timestamp = 0.0;
};

struct OmSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
  OmExemplar exemplar;
};

struct OmExposition {
  std::vector<OmSample> samples;
  std::map<std::string, std::string> types;
  std::map<std::string, std::string> help;
};

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

double ParseStrictDouble(const std::string& text, const std::string& line) {
  if (text == "+Inf") return std::numeric_limits<double>::infinity();
  if (text == "-Inf") return -std::numeric_limits<double>::infinity();
  if (text == "NaN") return std::numeric_limits<double>::quiet_NaN();
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  EXPECT_TRUE(end != text.c_str() && *end == '\0')
      << "bad number '" << text << "' in: " << line;
  return value;
}

OmExposition ParseOpenMetrics(const std::string& text) {
  OmExposition out;
  bool saw_eof = false;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      ADD_FAILURE() << "exposition must end with a newline";
      break;
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (saw_eof) {
      ADD_FAILURE() << "content after # EOF: " << line;
      break;
    }
    if (line.empty()) continue;
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_help = line[2] == 'H';
        const size_t name_end = line.find(' ', 7);
        if (name_end == std::string::npos) {
          ADD_FAILURE() << "comment without payload: " << line;
          continue;
        }
        const std::string name = line.substr(7, name_end - 7);
        EXPECT_TRUE(ValidMetricName(name)) << line;
        auto& table = is_help ? out.help : out.types;
        EXPECT_EQ(table.count(name), 0u)
            << "duplicate " << (is_help ? "HELP" : "TYPE") << " for " << name;
        table[name] = line.substr(name_end + 1);
        if (!is_help) {
          // OpenMetrics counter families must not be announced with the
          // sample suffix — `X_total` samples belong to family `X`.
          EXPECT_FALSE(table[name] == "counter" && EndsWith(name, "_total"))
              << "counter family announced with _total: " << line;
        }
      } else {
        ADD_FAILURE() << "unrecognized comment line: " << line;
      }
      continue;
    }

    OmSample sample;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    sample.name = line.substr(0, i);
    if (!ValidMetricName(sample.name)) {
      ADD_FAILURE() << "bad metric name in: " << line;
      continue;
    }
    bool malformed = false;
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      if (close == std::string::npos) {
        ADD_FAILURE() << "unterminated label set: " << line;
        continue;
      }
      // Label syntax is shared with 0.0.4; lean on the strict parser
      // above for escaping and reuse only the split here.
      std::string labels_text = line.substr(i + 1, close - i - 1);
      size_t j = 0;
      while (j < labels_text.size() && !malformed) {
        const size_t eq = labels_text.find('=', j);
        if (eq == std::string::npos || eq + 1 >= labels_text.size() ||
            labels_text[eq + 1] != '"') {
          ADD_FAILURE() << "malformed label in: " << line;
          malformed = true;
          break;
        }
        const std::string key = labels_text.substr(j, eq - j);
        EXPECT_TRUE(ValidMetricName(key)) << "bad label name in: " << line;
        std::string value;
        size_t k = eq + 2;
        bool closed = false;
        while (k < labels_text.size()) {
          const char c = labels_text[k];
          if (c == '"') { closed = true; ++k; break; }
          if (c == '\\' && k + 1 < labels_text.size()) {
            const char esc = labels_text[k + 1];
            if (esc == '\\') value += '\\';
            else if (esc == '"') value += '"';
            else if (esc == 'n') value += '\n';
            else ADD_FAILURE() << "bad escape in: " << line;
            k += 2;
            continue;
          }
          value += c;
          ++k;
        }
        if (!closed) {
          ADD_FAILURE() << "unterminated label value: " << line;
          malformed = true;
          break;
        }
        sample.labels[key] = value;
        j = k;
        if (j < labels_text.size() && labels_text[j] == ',') ++j;
      }
      if (malformed) continue;
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      ADD_FAILURE() << "sample without value: " << line;
      continue;
    }
    std::string rest = line.substr(i + 1);

    // Optional exemplar: "<value> # {trace_id=\"...\"} <value> <timestamp>".
    const size_t hash = rest.find(" # ");
    if (hash != std::string::npos) {
      const std::string exemplar_text = rest.substr(hash + 3);
      rest.resize(hash);
      EXPECT_TRUE(EndsWith(sample.name, "_bucket"))
          << "exemplar on a non-bucket line: " << line;
      const char* prefix = "{trace_id=\"";
      const size_t id_begin = std::strlen(prefix);
      if (exemplar_text.rfind(prefix, 0) != 0) {
        ADD_FAILURE() << "bad exemplar label set: " << line;
        continue;
      }
      const size_t id_end = exemplar_text.find('"', id_begin);
      if (id_end == std::string::npos || id_end == id_begin ||
          exemplar_text.compare(id_end, 2, "\"}") != 0 ||
          id_end + 2 >= exemplar_text.size() ||
          exemplar_text[id_end + 2] != ' ') {
        ADD_FAILURE() << "malformed exemplar: " << line;
        continue;
      }
      const std::string id_text =
          exemplar_text.substr(id_begin, id_end - id_begin);
      for (char c : id_text) {
        EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c))) << line;
      }
      sample.exemplar.trace_id = std::strtoull(id_text.c_str(), nullptr, 10);
      const std::string tail = exemplar_text.substr(id_end + 3);
      const size_t space = tail.find(' ');
      if (space == std::string::npos) {
        ADD_FAILURE() << "exemplar without timestamp: " << line;
        continue;
      }
      sample.exemplar.value = ParseStrictDouble(tail.substr(0, space), line);
      sample.exemplar.timestamp =
          ParseStrictDouble(tail.substr(space + 1), line);
      EXPECT_GT(sample.exemplar.timestamp, 0.0) << line;
      sample.exemplar.valid = true;
    }
    sample.value = ParseStrictDouble(rest, line);
    out.samples.push_back(std::move(sample));
  }
  EXPECT_TRUE(saw_eof) << "exposition did not end with # EOF";

  // Family bookkeeping: every sample maps to an announced family, and
  // counter samples carry the `_total` suffix their family dropped.
  for (const OmSample& s : out.samples) {
    std::string family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      if (EndsWith(family, suffix)) {
        const std::string base =
            family.substr(0, family.size() - std::strlen(suffix));
        if (out.types.count(base) != 0 && out.types.at(base) == "histogram") {
          family = base;
          break;
        }
      }
    }
    if (EndsWith(family, "_total")) {
      const std::string base = family.substr(0, family.size() - 6);
      if (out.types.count(base) != 0 && out.types.at(base) == "counter") {
        family = base;
      }
    }
    EXPECT_EQ(out.types.count(family), 1u) << "no # TYPE for " << s.name;
    EXPECT_EQ(out.help.count(family), 1u) << "no # HELP for " << s.name;
    if (out.types.count(family) != 0 && out.types.at(family) == "counter") {
      EXPECT_TRUE(EndsWith(s.name, "_total"))
          << "counter sample without _total: " << s.name;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Unit-level exposition checks (no server needed)
// ---------------------------------------------------------------------

TEST(MetricszFormatTest, LabelEscapingRoundTripsThroughTheParser) {
  obs::Registry registry;
  const std::string nasty = "a\\b\"c\nd,e{}=f";
  registry.GetCounter("dssddi_escape_test_total", "escaping probe",
                      {{"route", nasty}})
      ->Add(7);
  const PromExposition exposition =
      ParsePrometheus(registry.RenderPrometheusText());
  const PromSample* sample =
      exposition.Find("dssddi_escape_test_total", {{"route", nasty}});
  ASSERT_NE(sample, nullptr)
      << "escaped label value did not survive the round trip";
  EXPECT_EQ(sample->value, 7.0);
}

TEST(MetricszFormatTest, RegistryRenderIsParseableAndConsistent) {
  obs::Registry registry;
  registry.GetCounter("dssddi_reqs_total", "requests", {{"route", "/a"}})
      ->Add(3);
  registry.GetCounter("dssddi_reqs_total", "requests", {{"route", "/b"}})
      ->Add(4);
  registry.GetGauge("dssddi_depth", "queue depth")->Set(2.5);
  obs::Histogram* h =
      registry.GetHistogram("dssddi_lat_ms", "latency", {{"route", "/a"}});
  for (int i = 0; i < 100; ++i) h->Record(0.5 + i % 16);

  const PromExposition exposition =
      ParsePrometheus(registry.RenderPrometheusText());
  CheckHistogramsConsistent(exposition);
  EXPECT_EQ(exposition.types.at("dssddi_reqs_total"), "counter");
  EXPECT_EQ(exposition.types.at("dssddi_depth"), "gauge");
  EXPECT_EQ(exposition.types.at("dssddi_lat_ms"), "histogram");
  const PromSample* a = exposition.Find("dssddi_reqs_total", {{"route", "/a"}});
  const PromSample* b = exposition.Find("dssddi_reqs_total", {{"route", "/b"}});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->value, 3.0);
  EXPECT_EQ(b->value, 4.0);
  const PromSample* count =
      exposition.Find("dssddi_lat_ms_count", {{"route", "/a"}});
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value, 100.0);
}

// ---------------------------------------------------------------------
// /tracez retention
// ---------------------------------------------------------------------

TEST(TracezTest, RingRetainsTheTrueTopNUnderScrambledArrival) {
  auto registry = std::make_shared<obs::Registry>();
  constexpr size_t kRing = 4;
  auto collector = std::make_shared<obs::TraceCollector>(registry, kRing);
  obs::TraceSampler* sampler = collector->SamplerForRoute("/v1/suggest");
  sampler->set_every(1);

  // 16 traces whose durations are controlled by backdating start (the
  // finalizer measures now - start, so a trace backdated by i*5ms totals
  // i*5ms plus nanoseconds of slack — the 5ms spacing dwarfs it).
  // Scrambled arrival order so retention exercises eviction, not just
  // fill.
  const int order[16] = {7, 15, 2, 10, 4, 16, 1, 9, 12, 3, 14, 6, 11, 8, 5, 13};
  for (const int i : order) {
    std::shared_ptr<obs::Trace> trace = collector->MaybeStartTrace(
        sampler, "/v1/suggest", static_cast<uint64_t>(i));
    ASSERT_NE(trace, nullptr);
    trace->start =
        obs::Trace::Clock::now() - std::chrono::milliseconds(5 * i);
    if (i % 2 == 0) trace->SetStatus(500);
    trace.reset();  // finalize
  }

  // True top-4 by duration: ids 16, 15, 14, 13.
  std::vector<obs::TraceRecord> slowest = collector->SlowestForTest();
  ASSERT_EQ(slowest.size(), kRing);
  std::vector<uint64_t> ids;
  for (const obs::TraceRecord& r : slowest) ids.push_back(r.trace_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{13, 14, 15, 16}));

  // The JSON view is sorted slowest-first; the error ring holds the most
  // recent kRing errored (status >= 400) traces, newest first. Even ids
  // errored, in arrival order 2, 10, 4, 16, 12, 14, 6, 8 — the FIFO
  // keeps the last four and renders them newest-first: 8, 6, 14, 12.
  net::JsonValue document;
  std::string error;
  ASSERT_TRUE(net::ParseJson(collector->RenderTracezJson(), &document, &error))
      << error;
  EXPECT_EQ(document.Find("ring_capacity")->AsInt(),
            static_cast<int64_t>(kRing));
  const net::JsonValue* slow = document.Find("slowest");
  ASSERT_NE(slow, nullptr);
  ASSERT_EQ(slow->Items().size(), kRing);
  EXPECT_EQ(slow->Items()[0].Find("trace_id")->AsInt(), 16);
  EXPECT_EQ(slow->Items()[1].Find("trace_id")->AsInt(), 15);
  EXPECT_EQ(slow->Items()[2].Find("trace_id")->AsInt(), 14);
  EXPECT_EQ(slow->Items()[3].Find("trace_id")->AsInt(), 13);
  for (size_t i = 1; i < kRing; ++i) {
    EXPECT_GE(slow->Items()[i - 1].Find("total_ms")->AsDouble(),
              slow->Items()[i].Find("total_ms")->AsDouble());
  }

  const net::JsonValue* errors = document.Find("errors");
  ASSERT_NE(errors, nullptr);
  ASSERT_EQ(errors->Items().size(), kRing);
  EXPECT_EQ(errors->Items()[0].Find("trace_id")->AsInt(), 8);
  EXPECT_EQ(errors->Items()[1].Find("trace_id")->AsInt(), 6);
  EXPECT_EQ(errors->Items()[2].Find("trace_id")->AsInt(), 14);
  EXPECT_EQ(errors->Items()[3].Find("trace_id")->AsInt(), 12);
  for (const net::JsonValue& item : errors->Items()) {
    EXPECT_EQ(item.Find("status")->AsInt(), 500);
  }

  // Sampled/errored counters saw every finalization.
  EXPECT_EQ(registry->GetCounter("dssddi_traces_sampled_total", "")->Value(),
            16u);
  EXPECT_EQ(registry->GetCounter("dssddi_traces_errored_total", "")->Value(),
            8u);
}

/// One raw HTTP/1.1 exchange over a fresh socket (HttpClient cannot send
/// arbitrary headers like X-Trace-Id); returns everything the server
/// sent before closing.
std::string RawHttpExchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

// ---------------------------------------------------------------------
// End-to-end over loopback
// ---------------------------------------------------------------------

class ObsEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SuggestionDataset(testing::TinyDataset());
    core::DssddiConfig config;
    config.ddi.epochs = 60;
    config.md.epochs = 80;
    config.md.hidden_dim = 16;
    system_ = new core::DssddiSystem(config);
    system_->Fit(*dataset_);
    bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(*system_, *dataset_));
    // Trace timings don't depend on the numeric path, but pinning float
    // keeps the responses comparable across DSSDDI_QUANTIZE settings.
    bundle_->quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  }
  static void TearDownTestSuite() {
    delete bundle_;
    delete system_;
    bundle_ = nullptr;
    system_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::string SuggestBody(int patient, int k) {
    const auto& features = dataset_->patient_features;
    net::JsonWriter json;
    json.BeginObject().Key("patient_id").Int(patient);
    json.Key("features").BeginArray();
    for (int j = 0; j < features.cols(); ++j) {
      json.Float(features.At(patient, j));
    }
    json.EndArray();
    json.Key("k").Int(k).EndObject();
    return json.str();
  }

  static std::vector<float> PatientFeatures(int patient) {
    const auto& features = dataset_->patient_features;
    std::vector<float> out(static_cast<size_t>(features.cols()));
    for (int j = 0; j < features.cols(); ++j) out[j] = features.At(patient, j);
    return out;
  }

  static data::SuggestionDataset* dataset_;
  static core::DssddiSystem* system_;
  static io::InferenceBundle* bundle_;
};

data::SuggestionDataset* ObsEndToEndTest::dataset_ = nullptr;
core::DssddiSystem* ObsEndToEndTest::system_ = nullptr;
io::InferenceBundle* ObsEndToEndTest::bundle_ = nullptr;

TEST_F(ObsEndToEndTest, MetricszServesParseableHistogramsPerRouteAndStage) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontendOptions options;
  options.trace_sample_every = 1;  // every request feeds stage histograms
  net::SuggestFrontend frontend(&service, options);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  ASSERT_TRUE(server.Start().ok);

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  constexpr int kRequests = 6;
  const std::vector<int>& patients = dataset_->split.test;
  for (int i = 0; i < kRequests; ++i) {
    net::ClientResponse response;
    const int patient = patients[i % patients.size()];
    ASSERT_TRUE(
        client.Request("POST", "/v1/suggest", SuggestBody(patient, 3),
                       &response)
            .ok);
    ASSERT_EQ(response.status, 200);
  }

  // Trace finalization happens when the last trace reference drops,
  // which can trail the client seeing the response, and it records the
  // stages one histogram at a time, so a render can land between two of
  // them; poll until every hot stage histogram has seen every request.
  const char* const hot_stages[] = {"queue_wait", "gemm", "epilogue", "serialize"};
  PromExposition exposition;
  for (int attempt = 0; attempt < 100; ++attempt) {
    net::ClientResponse response;
    ASSERT_TRUE(client.Request("GET", "/metricsz", "", &response).ok);
    ASSERT_EQ(response.status, 200);
    const std::string* content_type = response.FindHeader("Content-Type");
    ASSERT_NE(content_type, nullptr);
    EXPECT_EQ(*content_type, "text/plain; version=0.0.4");
    exposition = ParsePrometheus(response.body);
    const bool all_seen =
        std::all_of(std::begin(hot_stages), std::end(hot_stages), [&](const char* hot) {
          const PromSample* count =
              exposition.Find("dssddi_stage_latency_ms_count", {{"stage", hot}});
          return count != nullptr && count->value >= kRequests;
        });
    if (all_seen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  CheckHistogramsConsistent(exposition);

  // Per-route histograms: the suggest route saw every request.
  const PromSample* route_count = exposition.Find(
      "dssddi_request_latency_ms_count", {{"route", "/v1/suggest"}});
  ASSERT_NE(route_count, nullptr);
  EXPECT_GE(route_count->value, static_cast<double>(kRequests));
  const PromSample* route_requests = exposition.Find(
      "dssddi_http_requests_total", {{"route", "/v1/suggest"}});
  ASSERT_NE(route_requests, nullptr);
  EXPECT_GE(route_requests->value, static_cast<double>(kRequests));

  // Per-stage histograms exist for every pipeline stage (the request
  // path must have populated the hot ones; the rest expose with zero
  // counts but full bucket series).
  for (int s = 0; s < obs::kNumStages; ++s) {
    const PromSample* stage_count = exposition.Find(
        "dssddi_stage_latency_ms_count",
        {{"stage", obs::StageName(static_cast<obs::Stage>(s))}});
    ASSERT_NE(stage_count, nullptr)
        << obs::StageName(static_cast<obs::Stage>(s));
  }
  for (const char* hot : hot_stages) {
    const PromSample* stage_count = exposition.Find(
        "dssddi_stage_latency_ms_count", {{"stage", hot}});
    ASSERT_NE(stage_count, nullptr);
    EXPECT_GE(stage_count->value, static_cast<double>(kRequests)) << hot;
  }

  // The service counters live in the same registry, so the same document.
  ASSERT_EQ(exposition.types.count("dssddi_service_requests_total"), 1u);
  const PromSample* service_requests =
      exposition.Find("dssddi_service_requests_total", {});
  ASSERT_NE(service_requests, nullptr);
  EXPECT_GE(service_requests->value, static_cast<double>(kRequests));
  ASSERT_NE(exposition.Find("dssddi_model_version", {}), nullptr);
  EXPECT_EQ(exposition.Find("dssddi_model_version", {})->value, 1.0);

  server.Stop();
}

TEST_F(ObsEndToEndTest, StatszAndMetricszRenderTheSameCounts) {
  // Every serving count lives in the service's registry, and /statsz and
  // /metricsz are two renders of it. Drive each count through a real
  // server (a cache miss, a hit and a coalesced ride, with the explanation
  // memo lookups of the scored ones; a 429 load shed and a 504 deadline
  // shed; a post-admission expiry, a 400 and one reload), then check that
  // the two views agree sample for sample in both exposition dialects.
  // Per-process name: concurrent runs of this binary must not reload
  // each other's half-written file.
  const std::string reload_path = ::testing::TempDir() +
                                  "dssddi_obs_agreement_" +
                                  std::to_string(::getpid()) + ".dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(reload_path, *bundle_).ok);

  serve::ServiceOptions service_options;
  service_options.num_threads = 1;  // one worker, parked to build queues
  service_options.max_batch_size = 16;
  service_options.admission.max_queue_depth = 32;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  const std::vector<int>& patients = dataset_->split.test;
  ASSERT_GE(patients.size(), 3u);

  const auto post = [&](net::HttpClient& via, const std::string& body,
                        const net::ClientRequestOptions& options) {
    net::ClientResponse response;
    EXPECT_TRUE(
        via.Request("POST", "/v1/suggest", body, options, &response).ok);
    return response.status;
  };
  // Runs `send` from `senders` connections while the only worker is
  // parked, releasing the worker once `ready` holds (or every sender was
  // already answered, so a wrong answer fails instead of hanging).
  const auto behind_parked_worker =
      [&](const std::function<bool()>& ready,
          const std::function<void(net::HttpClient&)>& send, int senders) {
        testing::WorkerGate gate;
        testing::ParkWorker(service, gate);
        std::atomic<int> answered{0};
        std::vector<std::thread> threads;
        for (int i = 0; i < senders; ++i) {
          threads.emplace_back([&] {
            net::HttpClient own;
            EXPECT_TRUE(own.Connect("127.0.0.1", server.port()).ok);
            send(own);
            answered.fetch_add(1);
          });
        }
        while (!ready() && answered.load() < senders) {
          std::this_thread::yield();
        }
        gate.Release();
        for (std::thread& thread : threads) thread.join();
      };

  // A miss, then a hit on the same question.
  const std::string cached_body = SuggestBody(patients[0], 3);
  EXPECT_EQ(post(client, cached_body, {}), 200);
  EXPECT_EQ(post(client, cached_body, {}), 200);

  // Two identical questions behind a parked worker: one leads, the
  // other rides it.
  const std::string shared_body = SuggestBody(patients[1], 3);
  behind_parked_worker(
      [&] { return service.Stats().coalesced == 1; },
      [&](net::HttpClient& own) { EXPECT_EQ(post(own, shared_body, {}), 200); },
      2);

  // Admitted with a 50 ms budget, then held in the queue past it: the
  // cut's expiry sweep answers 504 without scoring it.
  net::ClientRequestOptions tight;
  tight.deadline_ms = 5000;          // the client waits for the 504
  tight.advertise_deadline_ms = 50;  // ...but hands the server 50 ms
  auto queued_since = std::chrono::steady_clock::now();
  behind_parked_worker(
      [&] {
        if (service.QueueDepth() == 0) {
          queued_since = std::chrono::steady_clock::now();
          return false;
        }
        return std::chrono::steady_clock::now() - queued_since >
               std::chrono::milliseconds(60);
      },
      [&](net::HttpClient& own) {
        EXPECT_EQ(post(own, SuggestBody(patients[2], 3), tight), 504);
      },
      1);

  // Library requests queue behind a parked worker past the queue bound,
  // so an HTTP arrival is load-shed (429). Held 30 ms, they then teach
  // the admission gate a p50 that a 5 ms budget cannot cover (504).
  {
    testing::WorkerGate gate;
    testing::ParkWorker(service, gate);
    constexpr int kQueued = 64;
    std::vector<std::future<core::Suggestion>> futures;
    for (int i = 0; i < kQueued; ++i) {
      serve::Request request;
      request.features = PatientFeatures(patients[0]);
      request.explain = false;  // no patient id either: bypasses the cache
      futures.push_back(service.Submit(std::move(request)));
    }
    EXPECT_EQ(post(client, cached_body, {}), 429);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gate.Release();
    for (auto& future : futures) future.get();
  }
  net::ClientRequestOptions infeasible;
  infeasible.deadline_ms = 5000;
  infeasible.advertise_deadline_ms = 5;
  EXPECT_EQ(post(client, cached_body, infeasible), 504);

  // A malformed body and one reload.
  net::ClientResponse bad;
  ASSERT_TRUE(client.Request("POST", "/v1/suggest", "{not json", &bad).ok);
  EXPECT_EQ(bad.status, 400);
  net::ClientResponse reloaded;
  ASSERT_TRUE(client
                  .Request("POST", "/admin/reload",
                           "{\"path\":\"" + reload_path + "\"}", &reloaded)
                  .ok);
  EXPECT_EQ(reloaded.status, 200) << reloaded.body;

  net::ClientResponse statsz;
  ASSERT_TRUE(client.Request("GET", "/statsz", "", &statsz).ok);
  ASSERT_EQ(statsz.status, 200);
  net::JsonValue stats;
  std::string error;
  ASSERT_TRUE(net::ParseJson(statsz.body, &stats, &error)) << error;
  const auto stat = [&](const char* section, const char* key) {
    const net::JsonValue* object = stats.Find(section);
    EXPECT_NE(object, nullptr) << section;
    const net::JsonValue* value =
        object == nullptr ? nullptr : object->Find(key);
    EXPECT_NE(value, nullptr) << section << "." << key;
    return value == nullptr ? -1.0 : value->AsDouble();
  };
  // Each driven event was counted exactly once.
  EXPECT_EQ(stat("cache", "hits"), 1.0);
  EXPECT_EQ(stat("cache", "coalesced"), 1.0);
  EXPECT_EQ(stat("admission", "shed"), 1.0);
  EXPECT_EQ(stat("admission", "deadline_shed"), 1.0);
  EXPECT_EQ(stat("service", "expired"), 1.0);
  EXPECT_EQ(stat("http", "bad_requests"), 1.0);
  EXPECT_EQ(stat("model", "reloads"), 1.0);
  EXPECT_EQ(stat("service", "in_flight"), 0.0);
  EXPECT_EQ(stat("service", "queue_depth"), 0.0);
  // Two explained answers were scored (the first miss and the coalesced
  // leader); each consulted the explanation memo once. Whether the second
  // hit depends on whether the two patients share their top-3 drugs.
  EXPECT_EQ(stat("explain_memo", "hits") + stat("explain_memo", "misses"),
            2.0);
  EXPECT_GE(stat("explain_memo", "misses"), 1.0);

  struct Pairing {
    const char* section;
    const char* key;
    const char* sample;
    std::map<std::string, std::string> labels;
  };
  const std::vector<Pairing> pairings = {
      {"service", "requests", "dssddi_service_requests_total", {}},
      {"service", "completed", "dssddi_service_completed_total", {}},
      {"service", "expired", "dssddi_service_expired_total", {}},
      {"service", "batches", "dssddi_service_batches_total", {}},
      {"service", "in_flight", "dssddi_in_flight", {}},
      {"service", "queue_depth", "dssddi_queue_depth", {}},
      {"admission", "admitted", "dssddi_admission_total",
       {{"decision", "admitted"}}},
      {"admission", "shed", "dssddi_admission_total",
       {{"decision", "shed_load"}}},
      {"admission", "deadline_shed", "dssddi_admission_total",
       {{"decision", "shed_deadline"}}},
      {"admission", "degraded_shed", "dssddi_admission_total",
       {{"decision", "shed_degraded"}}},
      {"cache", "hits", "dssddi_cache_total", {{"outcome", "hit"}}},
      {"cache", "misses", "dssddi_cache_total", {{"outcome", "miss"}}},
      {"cache", "coalesced", "dssddi_service_coalesced_total", {}},
      {"explain_memo", "hits", "dssddi_explain_memo_total",
       {{"outcome", "hit"}}},
      {"explain_memo", "misses", "dssddi_explain_memo_total",
       {{"outcome", "miss"}}},
      {"model", "version", "dssddi_model_version", {}},
      {"model", "reloads", "dssddi_model_reloads_total", {}},
      {"http", "bad_requests", "dssddi_http_bad_requests_total", {}},
  };

  for (const bool openmetrics : {false, true}) {
    SCOPED_TRACE(openmetrics ? "openmetrics" : "prometheus 0.0.4");
    net::ClientResponse scrape;
    ASSERT_TRUE(client
                    .Request("GET",
                             openmetrics ? "/metricsz?format=openmetrics"
                                         : "/metricsz",
                             "", &scrape)
                    .ok);
    ASSERT_EQ(scrape.status, 200);
    // Both parsers fail on a repeated # TYPE; counting the lines as well
    // pins "exactly one per family" without relying on that.
    PromExposition exposition;
    if (openmetrics) {
      const OmExposition om = ParseOpenMetrics(scrape.body);
      exposition.types = om.types;
      exposition.help = om.help;
      for (const OmSample& s : om.samples) {
        exposition.samples.push_back({s.name, s.labels, s.value});
      }
    } else {
      exposition = ParsePrometheus(scrape.body);
    }
    size_t type_lines = 0;
    for (size_t pos = scrape.body.find("# TYPE "); pos != std::string::npos;
         pos = scrape.body.find("# TYPE ", pos + 1)) {
      ++type_lines;
    }
    EXPECT_EQ(type_lines, exposition.types.size());

    for (const Pairing& pairing : pairings) {
      const PromSample* sample =
          exposition.Find(pairing.sample, pairing.labels);
      ASSERT_NE(sample, nullptr) << pairing.sample;
      EXPECT_EQ(sample->value, stat(pairing.section, pairing.key))
          << pairing.section << "." << pairing.key << " vs "
          << pairing.sample;
    }
    const PromSample* version = exposition.Find("dssddi_model_version", {});
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->value, 2.0);
    const PromSample* batches =
        exposition.Find("dssddi_service_batches_total", {});
    const PromSample* rows =
        exposition.Find("dssddi_service_batch_rows_total", {});
    ASSERT_NE(batches, nullptr);
    ASSERT_NE(rows, nullptr);
    ASSERT_GT(batches->value, 0.0);
    EXPECT_NEAR(rows->value / batches->value,
                stat("service", "mean_batch_size"), 1e-6);
    for (const char* route : {"/v1/suggest", "/healthz", "/admin/reload"}) {
      const PromSample* requests =
          exposition.Find("dssddi_http_requests_total", {{"route", route}});
      ASSERT_NE(requests, nullptr) << route;
      const net::JsonValue* routes = stats.Find("routes");
      ASSERT_NE(routes, nullptr);
      ASSERT_NE(routes->Find(route), nullptr) << route;
      EXPECT_EQ(requests->value,
                routes->Find(route)->Find("requests")->AsDouble())
          << route;
    }
  }

  server.Stop();
  std::remove(reload_path.c_str());
}

TEST_F(ObsEndToEndTest, TraceIdRoundTripsBitIdenticallyThroughEveryCodec) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  const std::vector<int>& patients = dataset_->split.test;
  const int patient = patients[0];

  // JSON route, with the largest id a u64 can hold: it must survive the
  // X-Trace-Id header parse and come back both in the response body and
  // the echo header as exact decimal text (a double would mangle it —
  // the assertions are pure string compares, no float parse anywhere).
  {
    const std::string big_id = "18446744073709551615";
    const std::string body = SuggestBody(patient, 3);
    const std::string request =
        "POST /v1/suggest HTTP/1.1\r\n"
        "Host: t\r\n"
        "Content-Type: application/json\r\n"
        "X-Trace-Id: " + big_id + "\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n\r\n" + body;
    const std::string reply = RawHttpExchange(server.port(), request);
    EXPECT_EQ(reply.compare(0, 15, "HTTP/1.1 200 OK"), 0) << reply;
    EXPECT_NE(reply.find("X-Trace-Id: " + big_id + "\r\n"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"trace_id\":" + big_id), std::string::npos)
        << reply;
  }
  {
    net::ClientResponse response;
    ASSERT_TRUE(
        client.Request("POST", "/v1/suggest", SuggestBody(patient, 3),
                       &response)
            .ok);
    ASSERT_EQ(response.status, 200);
    const std::string* echoed = response.FindHeader("X-Trace-Id");
    ASSERT_NE(echoed, nullptr);
    // Server-assigned id; body field and header agree textually.
    EXPECT_NE(response.body.find("\"trace_id\":" + *echoed),
              std::string::npos)
        << response.body;
  }

  // Binary request frame: the exact bit pattern must come back in the
  // response frame and the echo header.
  {
    wire::SuggestRequestFrame frame;
    frame.patient_id = patient;
    frame.k = 3;
    frame.trace_id = 0xfedcba9876543210ull;
    frame.features = PatientFeatures(patient);
    net::ClientRequestOptions request_options;
    request_options.content_type = wire::kContentType;
    net::ClientResponse response;
    ASSERT_TRUE(client
                    .Request("POST", "/v1/suggest",
                             wire::EncodeSuggestRequest(frame),
                             request_options, &response)
                    .ok);
    ASSERT_EQ(response.status, 200);
    wire::SuggestResponseFrame decoded;
    std::string error;
    ASSERT_TRUE(wire::DecodeSuggestResponse(response.body, &decoded, &error))
        << error;
    EXPECT_EQ(decoded.trace_id, frame.trace_id);
    const std::string* echoed = response.FindHeader("X-Trace-Id");
    ASSERT_NE(echoed, nullptr);
    EXPECT_EQ(*echoed, std::to_string(frame.trace_id));
  }

  // Binary error frame: a service-level rejection (wrong feature width)
  // still carries the failed request's trace id.
  {
    wire::SuggestRequestFrame frame;
    frame.patient_id = patient;
    frame.k = 3;
    frame.trace_id = 0xffffffffffffffffull;  // u64 max
    frame.features = {1.0f, 2.0f};           // wrong width
    net::ClientRequestOptions request_options;
    request_options.content_type = wire::kContentType;
    net::ClientResponse response;
    ASSERT_TRUE(client
                    .Request("POST", "/v1/suggest",
                             wire::EncodeSuggestRequest(frame),
                             request_options, &response)
                    .ok);
    ASSERT_EQ(response.status, 400);
    wire::ErrorFrame decoded;
    std::string error;
    ASSERT_TRUE(wire::DecodeError(response.body, &decoded, &error)) << error;
    EXPECT_EQ(decoded.status, 400u);
    EXPECT_EQ(decoded.trace_id, frame.trace_id);
    EXPECT_FALSE(decoded.message.empty());
  }

  server.Stop();
}

TEST_F(ObsEndToEndTest, TracezShowsPerStageTimingsForATracedRequest) {
  serve::ServiceOptions service_options;
  service_options.trace_ring_capacity = 8;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontendOptions options;
  options.trace_sample_every = 1;
  options.server_timing = true;
  net::SuggestFrontend frontend(&service, options);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);

  const int patient = dataset_->split.test[0];
  wire::SuggestRequestFrame frame;
  frame.patient_id = patient;
  frame.k = 3;
  frame.trace_id = 424242;
  frame.features = PatientFeatures(patient);
  net::ClientRequestOptions request_options;
  request_options.content_type = wire::kContentType;
  net::ClientResponse response;
  ASSERT_TRUE(client
                  .Request("POST", "/v1/suggest",
                           wire::EncodeSuggestRequest(frame), request_options,
                           &response)
                  .ok);
  ASSERT_EQ(response.status, 200);
  // A traced response advertises its stage breakdown inline.
  const std::string* timing = response.FindHeader("Server-Timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_NE(timing->find("gemm;dur="), std::string::npos) << *timing;

  // Finalization trails the response; poll /tracez for the record.
  const net::JsonValue* record = nullptr;
  net::JsonValue document;
  for (int attempt = 0; attempt < 100 && record == nullptr; ++attempt) {
    net::ClientResponse tracez;
    ASSERT_TRUE(client.Request("GET", "/tracez", "", &tracez).ok);
    ASSERT_EQ(tracez.status, 200);
    std::string error;
    ASSERT_TRUE(net::ParseJson(tracez.body, &document, &error)) << error;
    const net::JsonValue* slowest = document.Find("slowest");
    ASSERT_NE(slowest, nullptr);
    for (const net::JsonValue& item : slowest->Items()) {
      if (item.Find("trace_id")->AsInt() == 424242) {
        record = &item;
        break;
      }
    }
    if (record == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_NE(record, nullptr) << "traced request never reached /tracez";
  EXPECT_EQ(record->Find("route")->AsString(), "/v1/suggest");
  EXPECT_EQ(record->Find("status")->AsInt(), 200);
  EXPECT_GT(record->Find("total_ms")->AsDouble(), 0.0);
  const net::JsonValue* stages = record->Find("stages_ms");
  ASSERT_NE(stages, nullptr);
  // The stages every successful scoring request passes through must all
  // have been stamped with a positive duration.
  double stage_total = 0.0;
  for (const char* stage :
       {"http_parse", "admission", "queue_wait", "gemm", "epilogue",
        "serialize"}) {
    const net::JsonValue* value = stages->Find(stage);
    ASSERT_NE(value, nullptr) << stage << " missing from " << response.body;
    EXPECT_GT(value->AsDouble(), 0.0) << stage;
    stage_total += value->AsDouble();
  }
  // Stage time can exceed wall time only through batch-wide attribution
  // of stages this single-request test doesn't share; sanity-bound it.
  EXPECT_LT(stage_total,
            record->Find("total_ms")->AsDouble() * 4.0 + 1.0);

  server.Stop();
}

// ---------------------------------------------------------------------
// OpenMetrics, exemplars, /logz, /sloz, and the SLO->admission loop
// ---------------------------------------------------------------------

/// Splits NDJSON into parsed lines, failing on any non-object line.
std::vector<net::JsonValue> ParseNdjson(const std::string& body) {
  std::vector<net::JsonValue> lines;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t eol = body.find('\n', pos);
    EXPECT_NE(eol, std::string::npos) << "NDJSON must end with a newline";
    if (eol == std::string::npos) break;
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    net::JsonValue value;
    std::string error;
    EXPECT_TRUE(net::ParseJson(line, &value, &error)) << error << ": " << line;
    lines.push_back(std::move(value));
  }
  return lines;
}

TEST_F(ObsEndToEndTest, OpenMetricsExposesExemplarsThatRoundTripToLogz) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontendOptions options;
  options.trace_sample_every = 1;
  net::SuggestFrontend frontend(&service, options);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  const int patient = dataset_->split.test[0];

  // A couple of server-assigned-id requests, then one with a known id:
  // exemplars are last-write-wins per bucket, so the known id owns its
  // latency bucket when the scrape happens.
  for (int i = 0; i < 2; ++i) {
    net::ClientResponse response;
    ASSERT_TRUE(
        client.Request("POST", "/v1/suggest", SuggestBody(patient, 3),
                       &response)
            .ok);
    ASSERT_EQ(response.status, 200);
  }
  wire::SuggestRequestFrame frame;
  frame.patient_id = patient;
  frame.k = 3;
  frame.trace_id = 777777;
  frame.features = PatientFeatures(patient);
  net::ClientRequestOptions request_options;
  request_options.content_type = wire::kContentType;
  net::ClientResponse response;
  ASSERT_TRUE(client
                  .Request("POST", "/v1/suggest",
                           wire::EncodeSuggestRequest(frame), request_options,
                           &response)
                  .ok);
  ASSERT_EQ(response.status, 200);

  net::ClientResponse scrape;
  ASSERT_TRUE(
      client.Request("GET", "/metricsz?format=openmetrics", "", &scrape).ok);
  ASSERT_EQ(scrape.status, 200);
  const std::string* content_type = scrape.FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type,
            "application/openmetrics-text; version=1.0.0; charset=utf-8");

  const OmExposition om = ParseOpenMetrics(scrape.body);
  // Counter families announced without _total; samples keep it.
  EXPECT_EQ(om.types.at("dssddi_service_requests"), "counter");
  EXPECT_EQ(om.types.count("dssddi_service_requests_total"), 0u);
  EXPECT_EQ(om.types.at("dssddi_http_requests"), "counter");
  EXPECT_EQ(om.types.at("dssddi_request_latency_ms"), "histogram");
  // Histogram consistency holds in this dialect too (the shared suffix
  // grammar means the 0.0.4 checker applies directly).
  PromExposition bridged;
  bridged.types = om.types;
  bridged.help = om.help;
  for (const OmSample& s : om.samples) {
    bridged.samples.push_back({s.name, s.labels, s.value});
  }
  CheckHistogramsConsistent(bridged);

  // Exemplars: the suggest latency series carries at least one, the
  // known trace id is among them, and every exemplar id resolves through
  // /logz?trace= to the wide event the same completion recorded.
  std::vector<OmExemplar> exemplars;
  bool found_known_id = false;
  for (const OmSample& s : om.samples) {
    if (s.name != "dssddi_request_latency_ms_bucket" ||
        s.labels.count("route") == 0 ||
        s.labels.at("route") != "/v1/suggest" || !s.exemplar.valid) {
      continue;
    }
    exemplars.push_back(s.exemplar);
    if (s.exemplar.trace_id == 777777) found_known_id = true;
  }
  ASSERT_FALSE(exemplars.empty());
  EXPECT_TRUE(found_known_id);
  for (const OmExemplar& exemplar : exemplars) {
    net::ClientResponse logz;
    ASSERT_TRUE(client
                    .Request("GET",
                             "/logz?trace=" +
                                 std::to_string(exemplar.trace_id),
                             "", &logz)
                    .ok);
    ASSERT_EQ(logz.status, 200);
    const std::string* logz_type = logz.FindHeader("Content-Type");
    ASSERT_NE(logz_type, nullptr);
    EXPECT_EQ(*logz_type, "application/x-ndjson");
    std::vector<net::JsonValue> events = ParseNdjson(logz.body);
    ASSERT_FALSE(events.empty())
        << "exemplar trace " << exemplar.trace_id << " missing from /logz";
    for (const net::JsonValue& event : events) {
      EXPECT_EQ(static_cast<uint64_t>(event.Find("trace_id")->AsInt()),
                exemplar.trace_id);
      EXPECT_EQ(event.Find("route")->AsString(), "/v1/suggest");
    }
  }

  // The 0.0.4 dialect is unchanged by the exemplar machinery: no
  // exemplar syntax, no EOF terminator, full counter names announced.
  net::ClientResponse legacy;
  ASSERT_TRUE(client.Request("GET", "/metricsz", "", &legacy).ok);
  ASSERT_EQ(legacy.status, 200);
  EXPECT_EQ(legacy.body.find(" # {"), std::string::npos);
  EXPECT_EQ(legacy.body.find("# EOF"), std::string::npos);
  const PromExposition legacy_exposition = ParsePrometheus(legacy.body);
  EXPECT_EQ(legacy_exposition.types.at("dssddi_service_requests_total"),
            "counter");

  server.Stop();
}

TEST_F(ObsEndToEndTest, BuildInfoGaugeCarriesRuntimeIdentity) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);

  net::ClientResponse scrape;
  ASSERT_TRUE(client.Request("GET", "/metricsz", "", &scrape).ok);
  ASSERT_EQ(scrape.status, 200);
  const PromExposition exposition = ParsePrometheus(scrape.body);
  const PromSample* info = nullptr;
  for (const PromSample& s : exposition.samples) {
    if (s.name == "dssddi_build_info") info = &s;
  }
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->value, 1.0);
  for (const char* key :
       {"version", "gemm_backend", "quantize", "int8_kernel", "git_sha"}) {
    ASSERT_EQ(info->labels.count(key), 1u) << key;
    EXPECT_FALSE(info->labels.at(key).empty()) << key;
  }
  EXPECT_EQ(info->labels.at("gemm_backend"),
            tensor::kernels::ActiveBackendName());
  EXPECT_EQ(info->labels.at("int8_kernel"), tensor::kernels::QGemmKernelName());

  server.Stop();
}

TEST_F(ObsEndToEndTest, ServerTimingIsStrictlyFormattedAndSampledOnly) {
  serve::SuggestionService service(*bundle_, {});
  const int patient = dataset_->split.test[0];

  {
    net::SuggestFrontendOptions options;
    options.trace_sample_every = 1;
    options.server_timing = true;
    net::SuggestFrontend frontend(&service, options);
    net::HttpServerOptions server_options;
    server_options.port = 0;
    net::HttpServer server(server_options, frontend.AsHandler());
    ASSERT_TRUE(server.Start().ok);
    net::HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
    net::ClientResponse response;
    ASSERT_TRUE(
        client.Request("POST", "/v1/suggest", SuggestBody(patient, 3),
                       &response)
            .ok);
    ASSERT_EQ(response.status, 200);
    const std::string* timing = response.FindHeader("Server-Timing");
    ASSERT_NE(timing, nullptr);

    // Strict grammar: comma-space-joined entries, each a known stage
    // name followed by ";dur=" and a nonnegative millisecond float, no
    // stage repeated (the header is one trace's breakdown).
    std::set<std::string> known_stages;
    for (int s = 0; s < obs::kNumStages; ++s) {
      known_stages.insert(obs::StageName(static_cast<obs::Stage>(s)));
    }
    std::set<std::string> seen;
    size_t pos = 0;
    const std::string& value = *timing;
    ASSERT_FALSE(value.empty());
    while (pos < value.size()) {
      size_t end = value.find(", ", pos);
      if (end == std::string::npos) end = value.size();
      const std::string entry = value.substr(pos, end - pos);
      pos = end == value.size() ? end : end + 2;
      const size_t sep = entry.find(";dur=");
      ASSERT_NE(sep, std::string::npos) << entry;
      const std::string stage = entry.substr(0, sep);
      EXPECT_EQ(known_stages.count(stage), 1u) << stage;
      EXPECT_TRUE(seen.insert(stage).second)
          << stage << " repeated in: " << value;
      const std::string dur = entry.substr(sep + 5);
      char* parse_end = nullptr;
      const double ms = std::strtod(dur.c_str(), &parse_end);
      EXPECT_TRUE(parse_end != dur.c_str() && *parse_end == '\0') << entry;
      EXPECT_GE(ms, 0.0) << entry;
    }
    // The stages a fresh (uncached) explained scoring request always
    // spends measurable time in.
    for (const char* stage : {"gemm", "explain", "serialize"}) {
      EXPECT_EQ(seen.count(stage), 1u) << stage;
    }
    server.Stop();
  }

  // Sampling off: no trace, so no Server-Timing header even with the
  // option enabled — unsampled responses must stay byte-identical to
  // the pre-observability wire format.
  {
    net::SuggestFrontendOptions options;
    options.trace_sample_every = 0;
    options.server_timing = true;
    net::SuggestFrontend frontend(&service, options);
    net::HttpServerOptions server_options;
    server_options.port = 0;
    net::HttpServer server(server_options, frontend.AsHandler());
    ASSERT_TRUE(server.Start().ok);
    net::HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
    net::ClientResponse response;
    ASSERT_TRUE(
        client.Request("POST", "/v1/suggest", SuggestBody(patient, 3),
                       &response)
            .ok);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.FindHeader("Server-Timing"), nullptr);
    server.Stop();
  }
}

TEST_F(ObsEndToEndTest, LogzServesFilteredWideEventsAndRejectsJunk) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  const int patient = dataset_->split.test[0];

  // One completion, one rejection: /logz must show both event shapes.
  net::ClientResponse ok_response;
  ASSERT_TRUE(
      client.Request("POST", "/v1/suggest", SuggestBody(patient, 3),
                     &ok_response)
          .ok);
  ASSERT_EQ(ok_response.status, 200);
  const std::string* trace_id = ok_response.FindHeader("X-Trace-Id");
  ASSERT_NE(trace_id, nullptr);
  net::ClientResponse bad_response;
  ASSERT_TRUE(
      client.Request("POST", "/v1/suggest", "this is not json",
                     &bad_response)
          .ok);
  ASSERT_EQ(bad_response.status, 400);

  net::ClientResponse all;
  ASSERT_TRUE(client.Request("GET", "/logz", "", &all).ok);
  ASSERT_EQ(all.status, 200);
  std::vector<net::JsonValue> events = ParseNdjson(all.body);
  ASSERT_GE(events.size(), 2u);
  bool saw_completion = false;
  bool saw_rejection = false;
  for (const net::JsonValue& event : events) {
    if (event.Find("severity")->AsString() == "info" &&
        event.Find("status")->AsInt() == 200 &&
        std::to_string(event.Find("trace_id")->AsInt()) == *trace_id) {
      saw_completion = true;
      EXPECT_GT(event.Find("total_ms")->AsDouble(), 0.0);
      // The sampled completion carries its stage breakdown, the
      // explanation by its own name.
      const net::JsonValue* stages = event.Find("stages_ms");
      ASSERT_NE(stages, nullptr) << all.body;
      ASSERT_NE(stages->Find("explain"), nullptr) << all.body;
      EXPECT_GT(stages->Find("explain")->AsDouble(), 0.0);
    }
    if (event.Find("reason")->AsString() == "bad_request") {
      saw_rejection = true;
      EXPECT_EQ(event.Find("severity")->AsString(), "warning");
      EXPECT_EQ(event.Find("status")->AsInt(), 400);
      EXPECT_EQ(event.Find("detail")->AsString(),
                "request body is not valid JSON");
    }
  }
  EXPECT_TRUE(saw_completion);
  EXPECT_TRUE(saw_rejection);

  // Severity filter: warnings-and-up excludes the info completion.
  net::ClientResponse warnings;
  ASSERT_TRUE(client.Request("GET", "/logz?severity=warning", "", &warnings)
                  .ok);
  ASSERT_EQ(warnings.status, 200);
  for (const net::JsonValue& event : ParseNdjson(warnings.body)) {
    EXPECT_NE(event.Find("severity")->AsString(), "info");
  }

  // Trace filter: exactly the completion's events.
  net::ClientResponse one;
  ASSERT_TRUE(
      client.Request("GET", "/logz?trace=" + *trace_id, "", &one).ok);
  ASSERT_EQ(one.status, 200);
  std::vector<net::JsonValue> one_events = ParseNdjson(one.body);
  ASSERT_FALSE(one_events.empty());
  for (const net::JsonValue& event : one_events) {
    EXPECT_EQ(std::to_string(event.Find("trace_id")->AsInt()), *trace_id);
  }

  // Route filter: a query value with a slash needs no escaping.
  net::ClientResponse routed;
  ASSERT_TRUE(
      client.Request("GET", "/logz?route=/v1/suggest", "", &routed).ok);
  ASSERT_EQ(routed.status, 200);
  std::vector<net::JsonValue> routed_events = ParseNdjson(routed.body);
  ASSERT_FALSE(routed_events.empty());
  for (const net::JsonValue& event : routed_events) {
    EXPECT_EQ(event.Find("route")->AsString(), "/v1/suggest");
  }

  // Junk parameters are 400s, not silent full dumps.
  net::ClientResponse junk_severity;
  ASSERT_TRUE(client.Request("GET", "/logz?severity=loud", "", &junk_severity)
                  .ok);
  EXPECT_EQ(junk_severity.status, 400);
  net::ClientResponse junk_trace;
  ASSERT_TRUE(
      client.Request("GET", "/logz?trace=banana", "", &junk_trace).ok);
  EXPECT_EQ(junk_trace.status, 400);

  // Unknown /metricsz formats are rejected the same way; the accepted
  // names answer 200.
  net::ClientResponse bad_format;
  ASSERT_TRUE(
      client.Request("GET", "/metricsz?format=xml", "", &bad_format).ok);
  EXPECT_EQ(bad_format.status, 400);
  net::ClientResponse prom_format;
  ASSERT_TRUE(client.Request("GET", "/metricsz?format=prometheus", "",
                             &prom_format)
                  .ok);
  EXPECT_EQ(prom_format.status, 200);

  server.Stop();
}

TEST_F(ObsEndToEndTest, SloOverloadDegradesAdmissionThenRecovers) {
  // An objective no real request can meet (good = under ~a microsecond)
  // stands in for injected overload: every completion is "bad", the fast
  // window burns at ~100x budget, and the engine must close the loop —
  // batch traffic shed at the gate, /sloz degraded — then reopen once
  // the window clears. Short windows and a fast tick keep the whole
  // cycle inside a few seconds.
  serve::ServiceOptions service_options;
  obs::SloObjective objective;
  objective.name = "suggest-latency-instant";
  objective.kind = obs::SloObjective::Kind::kLatency;
  objective.threshold_ms = 0.0001;
  objective.target = 0.99;
  service_options.slo.objectives = {objective};
  service_options.slo.fast_window = std::chrono::seconds(2);
  service_options.slo.slow_window = std::chrono::seconds(4);
  service_options.slo.tick_period = std::chrono::milliseconds(20);
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  const int patient = dataset_->split.test[0];
  const std::string body = SuggestBody(patient, 3);
  const std::string batch_request =
      "POST /v1/suggest HTTP/1.1\r\n"
      "Host: t\r\n"
      "Content-Type: application/json\r\n"
      "X-Priority: batch\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "Connection: close\r\n\r\n" + body;

  // Healthy gate: batch traffic passes.
  EXPECT_EQ(RawHttpExchange(server.port(), batch_request).compare(
                0, 12, "HTTP/1.1 200"),
            0);

  // Inject the "overload": a burst of interactive completions, all bad
  // under the objective.
  for (int i = 0; i < 6; ++i) {
    net::ClientResponse response;
    ASSERT_TRUE(
        client.Request("POST", "/v1/suggest", body, &response).ok);
    ASSERT_EQ(response.status, 200);
  }

  // /sloz must report the burn crossing the enter threshold and the
  // engine going degraded.
  bool degraded = false;
  net::JsonValue sloz;
  std::string last_body;
  // Generous budget: the loop exits on the first degraded tick, so the
  // bound only matters when ctest -j starves the 20 ms tick thread.
  for (int attempt = 0; attempt < 600 && !degraded; ++attempt) {
    net::ClientResponse response;
    ASSERT_TRUE(client.Request("GET", "/sloz", "", &response).ok);
    ASSERT_EQ(response.status, 200);
    last_body = response.body;
    std::string error;
    ASSERT_TRUE(net::ParseJson(response.body, &sloz, &error)) << error;
    degraded = sloz.Find("degraded")->AsBool();
    if (!degraded) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(degraded) << "SLO engine never entered degraded mode: "
                        << last_body;
  const net::JsonValue* objectives = sloz.Find("objectives");
  ASSERT_NE(objectives, nullptr);
  ASSERT_EQ(objectives->Items().size(), 1u);
  EXPECT_GE(objectives->Items()[0].Find("fast_burn")->AsDouble(),
            sloz.Find("fast_burn_enter")->AsDouble());
  EXPECT_GE(objectives->Items()[0].Find("fast_window_bad")->AsInt(), 6);

  // Degraded gate: batch arrivals shed (429) while interactive traffic
  // still lands — the low-priority class absorbs the degradation.
  const std::string degraded_reply =
      RawHttpExchange(server.port(), batch_request);
  EXPECT_EQ(degraded_reply.compare(0, 12, "HTTP/1.1 429"), 0)
      << degraded_reply;
  net::ClientResponse interactive;
  ASSERT_TRUE(client.Request("POST", "/v1/suggest", body, &interactive).ok);
  EXPECT_EQ(interactive.status, 200);

  // The shed is attributed on every surface: /statsz and /metricsz.
  net::ClientResponse statsz;
  ASSERT_TRUE(client.Request("GET", "/statsz", "", &statsz).ok);
  ASSERT_EQ(statsz.status, 200);
  net::JsonValue stats;
  std::string error;
  ASSERT_TRUE(net::ParseJson(statsz.body, &stats, &error)) << error;
  const net::JsonValue* admission = stats.Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_GE(admission->Find("degraded_shed")->AsInt(), 1);
  EXPECT_TRUE(admission->Find("slo_degraded")->AsBool());
  net::ClientResponse metricsz;
  ASSERT_TRUE(client.Request("GET", "/metricsz", "", &metricsz).ok);
  const PromExposition exposition = ParsePrometheus(metricsz.body);
  const PromSample* shed_degraded = exposition.Find(
      "dssddi_admission_total", {{"decision", "shed_degraded"}});
  ASSERT_NE(shed_degraded, nullptr);
  EXPECT_GE(shed_degraded->value, 1.0);
  const PromSample* gauge = exposition.Find("dssddi_slo_degraded", {});
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 1.0);

  // No more interactive traffic: the bad events age out of the fast
  // window and the engine must exit on its own. The gate's copy of the
  // degraded bit is set by a callback after /sloz already reads the exit,
  // so wait for both.
  bool recovered = false;
  for (int attempt = 0; attempt < 900 && !recovered; ++attempt) {
    net::ClientResponse response;
    ASSERT_TRUE(client.Request("GET", "/sloz", "", &response).ok);
    ASSERT_EQ(response.status, 200);
    ASSERT_TRUE(net::ParseJson(response.body, &sloz, &error)) << error;
    recovered =
        !sloz.Find("degraded")->AsBool() && !service.Stats().slo_degraded;
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(recovered) << "SLO engine never exited degraded mode";
  EXPECT_GE(sloz.Find("transitions")->AsInt(), 2);

  // The gate reopened for the batch class. This request is itself a bad
  // completion under the objective, so the engine may re-enter degraded
  // right after it: the recovered state was checked before it, not after.
  EXPECT_EQ(RawHttpExchange(server.port(), batch_request).compare(
                0, 12, "HTTP/1.1 200"),
            0);

  server.Stop();
}

}  // namespace
}  // namespace dssddi
