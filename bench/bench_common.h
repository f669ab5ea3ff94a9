#ifndef DSSDDI_BENCH_BENCH_COMMON_H_
#define DSSDDI_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "data/dataset.h"
#include "data/mimic_like.h"
#include "io/binary.h"
#include "net/json.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"

namespace dssddi::bench {

/// Canonical chronic dataset used by every table/figure harness. One
/// deterministic build per process.
inline const data::SuggestionDataset& ChronicDataset() {
  static const data::SuggestionDataset* const kDataset = [] {
    auto* dataset = new data::SuggestionDataset(data::BuildChronicDataset());
    return dataset;
  }();
  return *kDataset;
}

/// Canonical MIMIC-like dataset (Table IV).
inline const data::SuggestionDataset& MimicDataset() {
  static const data::SuggestionDataset* const kDataset = [] {
    auto* dataset = new data::SuggestionDataset(data::BuildMimicLikeDataset());
    return dataset;
  }();
  return *kDataset;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==========================================================\n\n");
}

/// First line of `command`'s output; empty when it fails or prints
/// nothing.
inline std::string FirstLineOf(const char* command) {
  std::string out;
  if (FILE* pipe = popen(command, "r")) {
    char buffer[256];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out = buffer;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

/// Adds the "provenance" object a BENCH_*.json carries, so a number is
/// never read without where it came from: source revision ("+dirty" when
/// tracked files differ from it; run from inside the checkout), core
/// count, CPU model, build type, GEMM backend and the process-wide
/// quantization mode (rows that pin their own mode say so per row).
inline void WriteProvenance(net::JsonWriter& json) {
  std::string sha = FirstLineOf("git rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty()) {
    sha = "unknown";
  } else if (!FirstLineOf("git status --porcelain --untracked-files=no 2>/dev/null")
                  .empty()) {
    sha += "+dirty";
  }
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  json.Key("provenance").BeginObject()
      .Key("sha").String(sha)
      .Key("nproc").Int(static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Key("cpu_model").String(cpu_model)
      .Key("build_type").String(DSSDDI_BUILD_TYPE)
      .Key("gemm_backend").String(tensor::kernels::ActiveBackendName())
      .Key("quantization").String(
          tensor::kernels::QuantModeName(tensor::kernels::ActiveQuantMode()))
      .EndObject();
}

/// Writes a bench's machine-readable results to BENCH_<name>.json (in
/// BENCH_JSON_DIR when set, else the working directory) so the perf
/// trajectory is tracked as an artifact across PRs. Failures are
/// reported but never fail the bench — the human-readable output above
/// is the primary record.
inline void WriteBenchJson(const std::string& name, const std::string& json) {
  const char* dir = std::getenv("BENCH_JSON_DIR");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/BENCH_" + name + ".json"
                               : "BENCH_" + name + ".json";
  if (const io::Status status = io::WriteStringToFile(path, json); status.ok) {
    std::printf("\nmachine-readable results: %s\n", path.c_str());
  } else {
    std::printf("\nwarning: could not write %s: %s\n", path.c_str(),
                status.message.c_str());
  }
}

}  // namespace dssddi::bench

#endif  // DSSDDI_BENCH_BENCH_COMMON_H_
