// Bundle load-path benchmark: the v4 flat mmap format vs the v3 framed
// heap format on the same trained model.
//
// Headline claims (the PR-8 gates):
//   * v4 load is >= 5x faster than v3 — the v4 loader does O(pages)
//     header/table validation and builds views, while v3 re-parses,
//     copies and re-packs every tensor;
//   * a process that loads an already-resident v4 file creates ~no
//     private pages of its own (weights stay in the shared page cache),
//     measured by forking a child and comparing its Private_Dirty
//     before/after the load against a child doing the same with v3.
//
//   ./bench/bench_io [--iters N] [--quick]
//
// Machine-readable results land in BENCH_io.json.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/signed_graph.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"
#include "net/json.h"
#include "tensor/nn.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace dssddi;

/// A hand-assembled bundle with production-sized tensors. Load cost is a
/// function of tensor bytes, not model quality, so random weights in a
/// consistent shape measure exactly what a trained model would without
/// minutes of Fit() up front.
io::InferenceBundle MakeSyntheticBundle(int d1, int hidden, int drugs,
                                        int clusters) {
  util::Rng rng(7);
  const auto mat = [&rng](int rows, int cols) {
    tensor::Matrix m(rows, cols);
    for (float& v : m.data()) v = static_cast<float>(rng.Normal(0.0, 0.05));
    return m;
  };
  const int relu = static_cast<int>(tensor::Activation::kRelu);
  const int none = static_cast<int>(tensor::Activation::kNone);

  io::InferenceBundle bundle;
  bundle.display_name = "bench-io synthetic";
  bundle.hidden_dim = hidden;
  bundle.mlp_decoder = true;
  bundle.use_treatment_feature = true;
  bundle.patient_fc.layers = {
      {mat(d1, hidden), mat(1, hidden), relu},
      {mat(hidden, hidden), mat(1, hidden), relu},
  };
  bundle.decoder.layers = {
      {mat(hidden + 1, hidden), mat(1, hidden), relu},
      {mat(hidden, 1), mat(1, 1), none},
  };
  bundle.final_drug_reps = mat(drugs, hidden);
  bundle.cluster_centroids = mat(clusters, d1);
  bundle.cluster_treatment = mat(clusters, drugs);
  std::vector<graph::SignedEdge> edges;
  for (int v = 0; v + 1 < drugs; ++v) {
    edges.push_back({v, v + 1,
                     v % 7 == 0 ? graph::EdgeSign::kAntagonistic
                                : graph::EdgeSign::kSynergistic});
  }
  bundle.ddi = graph::SignedGraph(drugs, edges);
  bundle.drug_names.reserve(drugs);
  for (int v = 0; v < drugs; ++v) {
    bundle.drug_names.push_back("D" + std::to_string(v));
  }
  bundle.EnsureQuantized();
  return bundle;
}

/// Reads one numeric field in kilobytes from a /proc status-style file
/// (0 if unreadable). Used for VmRSS from /proc/self/status and
/// Private_Dirty from /proc/self/smaps_rollup.
long ReadProcKb(const char* proc_path, const char* key) {
  std::FILE* file = std::fopen(proc_path, "r");
  if (file == nullptr) return 0;
  const size_t key_len = std::strlen(key);
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtol(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(file);
  return kb;
}

struct LoadStats {
  double min_ms = 0.0;
  double mean_ms = 0.0;
};

/// Repeated loads with a warm page cache: what is measured is the CPU
/// cost of turning bytes into a servable bundle (parse/copy/re-pack for
/// v3, header validation + view construction for v4), which is exactly
/// the work the format change removes.
LoadStats TimeLoads(const std::string& path, int iters) {
  LoadStats stats;
  std::vector<double> samples;
  samples.reserve(iters);
  for (int i = 0; i < iters; ++i) {
    io::InferenceBundle bundle;
    util::Stopwatch timer;
    if (!io::LoadInferenceBundle(path, &bundle).ok) {
      std::fprintf(stderr, "load failed for %s\n", path.c_str());
      std::exit(1);
    }
    samples.push_back(timer.ElapsedMillis());
  }
  stats.min_ms = *std::min_element(samples.begin(), samples.end());
  for (const double s : samples) stats.mean_ms += s;
  stats.mean_ms /= static_cast<double>(samples.size());
  return stats;
}

/// Total Private_Dirty of this process in KB, from smaps_rollup (falls
/// back to summing per-vma smaps lines on kernels without the rollup).
long ReadPrivateDirtyKb() {
  const long rollup = ReadProcKb("/proc/self/smaps_rollup", "Private_Dirty:");
  if (rollup > 0) return rollup;
  std::FILE* file = std::fopen("/proc/self/smaps", "r");
  if (file == nullptr) return rollup;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "Private_Dirty:", 14) == 0) {
      kb += std::strtol(line + 14, nullptr, 10);
    }
  }
  std::fclose(file);
  return kb;
}

struct ChildDelta {
  long rss_kb = -1;      // VmRSS growth: includes shared mapped file pages
  long private_kb = -1;  // Private_Dirty growth: pages only this child owns
};

/// Forks a child that loads `path` once and reports its memory growth
/// over the load (KB) through a pipe. The parent has already loaded the
/// same file, so every page is warm in the shared page cache. The
/// Private_Dirty delta is the sharing gate: right after fork every page
/// the child can see is CoW-shared with the parent, so any growth counts
/// exactly the private copies the load itself creates. A v3 load must
/// materialize a full private heap copy of the model; a v4 load dirties
/// only bookkeeping — its weights stay clean file-backed pages in the
/// page cache, shared with the parent and any other process mapping the
/// file. The RSS delta is reported alongside but is kernel-sensitive:
/// fault-around and large folios can map untouched (still shared,
/// evictable) file pages into the child, which inflates RSS without any
/// private copy — which is why it is not the gate.
ChildDelta ChildLoadDeltaKb(const std::string& path) {
  ChildDelta result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    const long rss_before = ReadProcKb("/proc/self/status", "VmRSS:");
    const long dirty_before = ReadPrivateDirtyKb();
    io::InferenceBundle bundle;
    const bool ok = io::LoadInferenceBundle(path, &bundle).ok;
    long deltas[2] = {-1, -1};
    if (ok) {
      deltas[0] = ReadProcKb("/proc/self/status", "VmRSS:") - rss_before;
      deltas[1] = ReadPrivateDirtyKb() - dirty_before;
    }
    const ssize_t written = write(fds[1], deltas, sizeof(deltas));
    close(fds[1]);
    _exit(written == sizeof(deltas) && ok ? 0 : 1);
  }
  close(fds[1]);
  long deltas[2] = {-1, -1};
  if (read(fds[0], deltas, sizeof(deltas)) != sizeof(deltas)) {
    deltas[0] = deltas[1] = -1;
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) return result;
  result.rss_kb = deltas[0];
  result.private_kb = deltas[1];
  return result;
}

std::string TempDirPath() {
  const char* tmp = std::getenv("TMPDIR");
  return (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 30;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iters" && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      quick = true;
    }
  }
  if (iters < 1) iters = 1;

  bench::PrintHeader("Bundle load path: v4 flat mmap vs v3 framed heap",
                     "PR-8 gates: >= 5x load speedup, page-cache-shared "
                     "weights across processes");

  // Production-sized tensors (a few MB of weights) so the fixed cost of
  // opening a file does not mask the per-byte work being compared.
  const int hidden = quick ? 128 : 384;
  const int drugs = quick ? 256 : 768;
  const io::InferenceBundle bundle =
      MakeSyntheticBundle(/*d1=*/256, hidden, drugs, /*clusters=*/8);

  const std::string v3_path = TempDirPath() + "/dssddi_bench_io_v3.dssb";
  const std::string v4_path = TempDirPath() + "/dssddi_bench_io_v4.dssb";
  if (!io::SaveInferenceBundle(v3_path, bundle).ok ||
      !io::SaveInferenceBundleV4(v4_path, bundle).ok) {
    std::fprintf(stderr, "cannot write bench bundles\n");
    return 1;
  }

  io::InferenceBundle v3_loaded;
  io::InferenceBundle v4_loaded;
  if (!io::LoadInferenceBundle(v3_path, &v3_loaded).ok ||
      !io::LoadInferenceBundle(v4_path, &v4_loaded).ok) {
    std::fprintf(stderr, "cannot load bench bundles\n");
    return 1;
  }
  std::printf("model: %d drugs, hidden_dim %d; v4 file maps %zu bytes\n\n",
              bundle.num_drugs(), bundle.hidden_dim,
              v4_loaded.bytes_mapped());

  const LoadStats v3_stats = TimeLoads(v3_path, iters);
  const LoadStats v4_stats = TimeLoads(v4_path, iters);
  const double speedup = v3_stats.min_ms / v4_stats.min_ms;
  std::printf("%8s %12s %12s\n", "format", "min ms", "mean ms");
  std::printf("%8s %12.3f %12.3f\n", "v3", v3_stats.min_ms, v3_stats.mean_ms);
  std::printf("%8s %12.3f %12.3f\n", "v4", v4_stats.min_ms, v4_stats.mean_ms);
  const bool speedup_pass = speedup >= 5.0;
  std::printf("\nv4 vs v3 load speedup (min over %d warm-cache loads): %.1fx "
              "%s\n",
              iters, speedup,
              speedup_pass ? "(PASS: >= 5x)" : "(below the 5x gate)");

  // Residency: both files are warm (the parent just loaded them); a
  // forked child re-loading v4 allocates ~no private memory of its own
  // while the v3 child pays the full private heap copy.
  const ChildDelta v3_child = ChildLoadDeltaKb(v3_path);
  const ChildDelta v4_child = ChildLoadDeltaKb(v4_path);
  std::printf("\nchild-process memory growth from loading a warm file:\n");
  std::printf("  %-18s %12s %12s\n", "", "private KB", "rss KB");
  std::printf("  %-18s %12ld %12ld\n", "v3 (heap copy)", v3_child.private_kb,
              v3_child.rss_kb);
  std::printf("  %-18s %12ld %12ld\n", "v4 (shared mmap)", v4_child.private_kb,
              v4_child.rss_kb);
  // The v4 child still dirties a little (graph rebuild, metadata,
  // allocator bookkeeping); "about zero" means an order of magnitude
  // under the v3 heap copy.
  const bool residency_pass =
      v3_child.private_kb > 0 && v4_child.private_kb >= 0 &&
      v4_child.private_kb < std::max(1024L, v3_child.private_kb / 10);
  std::printf("  %s\n",
              residency_pass
                  ? "(PASS: v4 child private delta ~ 0; weights stay in the "
                    "shared page cache)"
                  : "(residency gate not met)");

  net::JsonWriter json;
  json.BeginObject().Key("bench").String("io");
  bench::WriteProvenance(json);
  json.Key("iters").Int(iters)
      .Key("hidden_dim").Int(bundle.hidden_dim)
      .Key("num_drugs").Int(bundle.num_drugs())
      .Key("v4_bytes_mapped").UInt(v4_loaded.bytes_mapped())
      .Key("v3_load_min_ms").Double(v3_stats.min_ms)
      .Key("v3_load_mean_ms").Double(v3_stats.mean_ms)
      .Key("v4_load_min_ms").Double(v4_stats.min_ms)
      .Key("v4_load_mean_ms").Double(v4_stats.mean_ms)
      .Key("v4_vs_v3_load_speedup").Double(speedup)
      .Key("v3_child_private_delta_kb").Int(v3_child.private_kb)
      .Key("v4_child_private_delta_kb").Int(v4_child.private_kb)
      .Key("v3_child_rss_delta_kb").Int(v3_child.rss_kb)
      .Key("v4_child_rss_delta_kb").Int(v4_child.rss_kb)
      .Key("speedup_pass").Bool(speedup_pass)
      .Key("residency_pass").Bool(residency_pass)
      .Key("pass").Bool(speedup_pass && residency_pass)
      .EndObject();
  bench::WriteBenchJson("io", json.str());

  std::remove(v3_path.c_str());
  std::remove(v4_path.c_str());
  return (speedup_pass && residency_pass) ? 0 : 1;
}
