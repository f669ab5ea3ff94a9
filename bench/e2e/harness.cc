#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>
#include <thread>

#include "core/suggestion_model.h"
#include "data/dataset.h"
#include "example_bundle.h"
#include "io/bundle_v4.h"
#include "net/http_client.h"
#include "net/wire.h"
#include "tensor/kernels/qgemm.h"

namespace dssddi::e2e {
namespace {

std::string FormatFloatArray(const std::vector<float>& values) {
  std::string out = "[";
  char buffer[32];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    // %.9g round-trips binary32, so the server parses the exact floats
    // the oracle scored.
    std::snprintf(buffer, sizeof(buffer), "%.9g", static_cast<double>(values[i]));
    out += buffer;
  }
  out += ']';
  return out;
}

bool SameFloat(double parsed, float expected) {
  const float value = static_cast<float>(parsed);
  return std::memcmp(&value, &expected, sizeof(float)) == 0;
}

bool IntArrayEquals(const net::JsonValue* array, const std::vector<int>& expected) {
  if (array == nullptr || !array->is_array() ||
      array->Items().size() != expected.size()) {
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (array->Items()[i].AsInt(-1) != expected[i]) return false;
  }
  return true;
}

/// Locates the number after `"key":` in a JSON text; false when absent.
bool FindNumberField(std::string_view text, std::string_view key, size_t* begin,
                     size_t* end) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern += "\":";
  const size_t at = text.find(pattern);
  if (at == std::string_view::npos) return false;
  size_t pos = at + pattern.size();
  *begin = pos;
  while (pos < text.size() &&
         ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '-')) {
    ++pos;
  }
  *end = pos;
  return pos > *begin;
}

uint64_t MixHash(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  return hash;
}

}  // namespace

// ---------------------------------------------------------------------
// Model and inputs
// ---------------------------------------------------------------------

io::Status EnsureBundle(const std::string& path, io::InferenceBundle* bundle) {
  if (!io::LoadInferenceBundle(path, bundle).ok || bundle->format_version != 4) {
    // The serving demos' own recipe, so the benchmark serves their model.
    const io::InferenceBundle trained = examples::LoadOrTrainBundle(path + ".trained");
    // Write-then-rename so an interrupted run never leaves a torn file
    // that a later run would mistake for the bundle.
    const std::string partial = path + ".partial";
    if (const io::Status saved = io::SaveInferenceBundleV4(partial, trained);
        !saved.ok) {
      return saved;
    }
    if (std::rename(partial.c_str(), path.c_str()) != 0) {
      return io::Status::Error("cannot rename " + partial + ": " +
                               std::strerror(errno));
    }
    *bundle = io::InferenceBundle();
    if (const io::Status loaded = io::LoadInferenceBundle(path, bundle);
        !loaded.ok) {
      return loaded;
    }
  }
  bundle->quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  bundle->EnsureQuantized();
  return io::Status::Ok();
}

std::string FileChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(io::Fnv1a64(bytes)));
  return hex;
}

std::vector<QueryRow> BuildQueryRows(const io::InferenceBundle& bundle) {
  // 2500 patients -> 1250 held-out rows: enough distinct feature rows
  // (and so suggested drug sets) that a run's mean explanation cost does
  // not hinge on a handful of patients. The cohort seed stays the default,
  // the one the bundle was trained on: it also draws the cohort's
  // prescriber archetypes, and with them which drug sets get suggested, so
  // cohorts of other seeds differ in mean explanation cost (two seeds
  // measured 0.39 and 0.55 ms of server CPU per explained answer).
  data::ChronicDatasetOptions options;
  options.cohort.num_males = 1500;
  options.cohort.num_females = 1000;
  const data::SuggestionDataset dataset = data::BuildChronicDataset(options);
  std::vector<int> held_out = dataset.split.validation;
  held_out.insert(held_out.end(), dataset.split.test.begin(),
                  dataset.split.test.end());

  std::vector<QueryRow> rows;
  rows.reserve(held_out.size());
  const int width = dataset.patient_features.cols();
  for (const int patient : held_out) {
    QueryRow row;
    const float* features = dataset.patient_features.RowPtr(patient);
    row.features.assign(features, features + width);
    row.json_features = FormatFloatArray(row.features);
    tensor::Matrix x(1, width);
    std::copy(features, features + width, x.RowPtr(0));
    row.explained = bundle.Suggest(x, kExplainK);
    const tensor::Matrix scores = bundle.PredictScores(x);
    row.scored.drugs = core::TopKDrugs(scores, 0, kScoreK);
    for (const int drug : row.scored.drugs) {
      row.scored.scores.push_back(scores.At(0, drug));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------

void AnswerChecker::NoteError(const std::string& why) {
  if (first_error_.empty()) first_error_ = why;
}

bool AnswerChecker::CheckJson(const QueryMeta& query, const char* body,
                              size_t size, uint64_t* model_version) {
  const std::string_view text(body, size);
  std::array<std::pair<size_t, size_t>, 3> spans;  // [begin, end) of each number
  const char* keys[3] = {"patient_id", "model_version", "trace_id"};
  for (int i = 0; i < 3; ++i) {
    if (!FindNumberField(text, keys[i], &spans[i].first, &spans[i].second)) {
      NoteError(std::string("answer lacks ") + keys[i] + ": " +
                std::string(text.substr(0, 200)));
      return false;
    }
  }
  const int64_t patient_id = std::strtoll(body + spans[0].first, nullptr, 10);
  *model_version = std::strtoull(body + spans[1].first, nullptr, 10);
  if (patient_id != query.patient_id) {
    NoteError("answer for patient " + std::to_string(patient_id) + " to a query for " +
              std::to_string(query.patient_id));
    return false;
  }
  // Hash the body minus the three per-request numbers.
  std::sort(spans.begin(), spans.end());
  uint64_t hash = 0xcbf29ce484222325ull;
  size_t pos = 0;
  for (const auto& [begin, end] : spans) {
    hash = MixHash(hash, io::Fnv1a64(body + pos, begin - pos));
    pos = end;
  }
  hash = MixHash(hash, io::Fnv1a64(body + pos, size - pos));
  hash = MixHash(hash, query.row);
  hash = MixHash(hash, static_cast<uint64_t>(query.k) * 2 + (query.explain ? 1 : 0));
  const auto memo = verdicts_.find(hash);
  if (memo != verdicts_.end()) return memo->second;
  std::string why;
  const bool ok = FullJsonCheck(query, body, size, &why);
  if (!ok) NoteError(why);
  verdicts_.emplace(hash, ok);
  return ok;
}

bool AnswerChecker::FullJsonCheck(const QueryMeta& query, const char* body,
                                  size_t size, std::string* why) const {
  const QueryRow& row = (*rows_)[query.row];
  const core::Suggestion& expected = query.explain ? row.explained : row.scored;
  net::JsonValue document;
  std::string error;
  if (!net::ParseJson(std::string(body, size), &document, &error) ||
      !document.is_object()) {
    *why = "answer is not a JSON object: " + error;
    return false;
  }
  if (!IntArrayEquals(document.Find("drugs"), expected.drugs)) {
    *why = "top-k drugs differ from the oracle for row " + std::to_string(query.row);
    return false;
  }
  const net::JsonValue* scores = document.Find("scores");
  if (scores == nullptr || !scores->is_array() ||
      scores->Items().size() != expected.scores.size()) {
    *why = "scores missing or of the wrong length";
    return false;
  }
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    if (!SameFloat(scores->Items()[i].AsDouble(), expected.scores[i])) {
      *why = "score " + std::to_string(i) + " is not bit-identical to the oracle";
      return false;
    }
  }
  const net::JsonValue* explanation = document.Find("explanation");
  if (!query.explain) {
    if (explanation != nullptr) *why = "unrequested explanation served";
    return explanation == nullptr;
  }
  const core::Explanation& want = expected.explanation;
  if (explanation == nullptr || !explanation->is_object()) {
    *why = "explanation missing";
    return false;
  }
  if (!IntArrayEquals(explanation->Find("subgraph_drugs"), want.subgraph_drugs)) {
    *why = "explanation subgraph differs from the oracle";
    return false;
  }
  const net::JsonValue* trussness = explanation->Find("trussness");
  const net::JsonValue* diameter = explanation->Find("diameter");
  const net::JsonValue* satisfaction = explanation->Find("suggestion_satisfaction");
  if (trussness == nullptr || trussness->AsInt(-1) != want.trussness ||
      diameter == nullptr || diameter->AsInt(-1) != want.diameter) {
    *why = "explanation trussness/diameter differ from the oracle";
    return false;
  }
  // %.17g round-trips a double, so Eq. 19 must match exactly.
  if (satisfaction == nullptr ||
      satisfaction->AsDouble(-1e300) != want.suggestion_satisfaction) {
    *why = "suggestion satisfaction differs from the oracle";
    return false;
  }
  return true;
}

bool AnswerChecker::CheckFrame(const QueryMeta& query, const std::string& frame,
                               uint64_t* model_version) {
  net::wire::SuggestResponseFrame response;
  std::string error;
  if (!net::wire::DecodeSuggestResponse(frame, &response, &error)) {
    NoteError("bad response frame: " + error);
    return false;
  }
  *model_version = response.model_version;
  const QueryRow& row = (*rows_)[query.row];
  const core::Suggestion& expected = query.explain ? row.explained : row.scored;
  if (response.drugs.size() != expected.drugs.size() ||
      !std::equal(expected.drugs.begin(), expected.drugs.end(),
                  response.drugs.begin()) ||
      response.scores.size() != expected.scores.size() ||
      std::memcmp(response.scores.data(), expected.scores.data(),
                  expected.scores.size() * sizeof(float)) != 0) {
    NoteError("binary answer differs from the oracle for row " +
              std::to_string(query.row));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Server processes
// ---------------------------------------------------------------------

io::Status ServerProcess::Start(const std::vector<std::string>& argv, int cpu,
                                int timeout_ms) {
  Stop();
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpu, &pinned);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return io::Status::Error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return io::Status::Error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // A killed bench_e2e must not leave servers behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    // Every thread the server starts inherits this.
    if (::sched_setaffinity(0, sizeof(pinned), &pinned) != 0) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];
  port_ = 0;
  replica_ports_.clear();

  // Both servers print every port, then a "try:" hint line, then flush.
  std::string banner;
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  while (banner.find("try:") == std::string::npos) {
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) {
      Stop();
      return io::Status::Error("no banner from " + argv[0] + " within " +
                               std::to_string(timeout_ms) + " ms");
    }
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    char chunk[1024];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      Stop();
      return io::Status::Error(argv[0] + " exited before serving: " + banner);
    }
    banner.append(chunk, static_cast<size_t>(n));
  }
  // "serving on http://H:P ..." / "router on http://H:P ..." name the
  // front port; "replica N on http://H:P" lines name the replicas.
  size_t line_begin = 0;
  while (line_begin < banner.size()) {
    size_t line_end = banner.find('\n', line_begin);
    if (line_end == std::string::npos) line_end = banner.size();
    const std::string line = banner.substr(line_begin, line_end - line_begin);
    line_begin = line_end + 1;
    const size_t url = line.find(" on http://");
    const size_t colon = url == std::string::npos ? url : line.find(':', url + 11);
    if (colon == std::string::npos) continue;
    const int port = std::atoi(line.c_str() + colon + 1);
    if (line.rfind("replica", 0) == 0) {
      replica_ports_.push_back(port);
    } else if (port_ == 0) {
      port_ = port;
    }
  }
  if (port_ == 0) {
    Stop();
    return io::Status::Error("no port in banner: " + banner);
  }
  return io::Status::Ok();
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int waited_ms = 0; waited_ms < 5000; waited_ms += 5) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  Kill();
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are
  // the 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::vector<std::string> fields;
  size_t pos = close + 2;
  while (pos < stat.size()) {
    size_t end = stat.find(' ', pos);
    if (end == std::string::npos) end = stat.size();
    fields.push_back(stat.substr(pos, end - pos));
    pos = end + 1;
  }
  if (fields.size() < 13) return 0.0;
  const double ticks = std::strtod(fields[11].c_str(), nullptr) +
                       std::strtod(fields[12].c_str(), nullptr);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------------
// Scraping
// ---------------------------------------------------------------------

io::Status HttpExchange(int port, const std::string& method,
                        const std::string& target, const std::string& body,
                        int* status, std::string* response_body) {
  net::HttpClient client;
  if (const io::Status connected = client.Connect("127.0.0.1", port);
      !connected.ok) {
    return connected;
  }
  net::ClientRequestOptions options;
  options.deadline_ms = 10000;
  options.advertise_deadline_ms = 0;
  net::ClientResponse response;
  if (const io::Status sent = client.Request(method, target, body, options, &response);
      !sent.ok) {
    return sent;
  }
  *status = response.status;
  *response_body = std::move(response.body);
  return io::Status::Ok();
}

void ParseExposition(const std::string& text, Scrape* out) {
  out->series.clear();
  out->buckets.clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    const std::string key(line.substr(0, space));
    const double value = std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
    out->series[key] = value;
    const size_t bucket = key.find("_bucket{");
    const size_t le = key.rfind("le=\"");
    if (bucket == std::string::npos || le == std::string::npos) continue;
    std::string labels = key.substr(bucket + 8, le - bucket - 8);
    if (!labels.empty() && labels.back() == ',') labels.pop_back();
    out->buckets[key.substr(0, bucket) + "{" + labels + "}"].push_back(value);
  }
}

io::Status TakeScrape(int port, bool with_statsz, Scrape* out) {
  int status = 0;
  std::string body;
  if (const io::Status got = HttpExchange(port, "GET", "/metricsz", "", &status, &body);
      !got.ok || status != 200) {
    return got.ok ? io::Status::Error("/metricsz answered " + std::to_string(status))
                  : got;
  }
  ParseExposition(body, out);
  if (with_statsz) {
    if (const io::Status got = HttpExchange(port, "GET", "/statsz", "", &status, &body);
        !got.ok || status != 200) {
      return got.ok ? io::Status::Error("/statsz answered " + std::to_string(status))
                    : got;
    }
    std::string error;
    if (!net::ParseJson(body, &out->statsz, &error)) {
      return io::Status::Error("/statsz is not JSON: " + error);
    }
  }
  return io::Status::Ok();
}

double SeriesValue(const Scrape& scrape, const std::string& key) {
  const auto it = scrape.series.find(key);
  return it == scrape.series.end() ? 0.0 : it->second;
}

double StatszValue(const Scrape& scrape, const std::string& path) {
  const net::JsonValue* node = &scrape.statsz;
  size_t pos = 0;
  while (node != nullptr && pos <= path.size()) {
    size_t dot = path.find('.', pos);
    if (dot == std::string::npos) dot = path.size();
    node = node->Find(path.substr(pos, dot - pos));
    pos = dot + 1;
  }
  return node == nullptr ? 0.0 : node->AsDouble();
}

obs::HistogramSnapshot HistogramDelta(const Scrape& before, const Scrape& after,
                                      const std::string& name,
                                      const std::string& labels) {
  obs::HistogramSnapshot delta;
  const std::string key = name + "{" + labels + "}";
  const auto a = after.buckets.find(key);
  if (a == after.buckets.end()) return delta;
  const auto b = before.buckets.find(key);
  double previous_after = 0.0;
  double previous_before = 0.0;
  const size_t n = std::min<size_t>(a->second.size(), obs::kNumBuckets);
  for (size_t i = 0; i < n; ++i) {
    // Cumulative "le" counts -> per-bucket counts -> interval delta.
    const double cum_after = a->second[i];
    const double cum_before =
        b == before.buckets.end() || i >= b->second.size() ? 0.0 : b->second[i];
    const double in_bucket =
        (cum_after - previous_after) - (cum_before - previous_before);
    delta.buckets[i] = in_bucket > 0 ? static_cast<uint64_t>(in_bucket + 0.5) : 0;
    delta.count += delta.buckets[i];
    previous_after = cum_after;
    previous_before = cum_before;
  }
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  delta.sum = SeriesValue(after, name + "_sum" + suffix) -
              SeriesValue(before, name + "_sum" + suffix);
  return delta;
}

}  // namespace dssddi::e2e
