// bundle_convert: rewrites an inference bundle as a flat v4 file that
// servers mmap instead of parsing (see io/bundle_v4.h for the layout).
//
//   bundle_convert <input.dssb> <output_v4.dssb> [--selftest]
//   bundle_convert --synthetic <output_v3.dssb>
//
// The input may be a v4 file (a re-pack) or a legacy v3 file; this tool
// is the one place outside the tests that still reads v3, the migration
// path for models exported before the library wrote v4. With
// --selftest the tool re-verifies the artifact it just wrote: section
// checksums, then a zero-copy reload scored bit-identically against the
// source bundle on a deterministic probe batch, in both float and int8
// modes. This is the offline integrity pass the O(pages) loader skips by
// design, and what scripts/check.sh runs in CI.
//
// --synthetic writes a small random-weight v3 bundle with the full
// production shape (two MLPs, drug reps, centroids, treatment matrix,
// signed DDI graph, int8 companion) — a deterministic conversion input
// for CI that skips the minutes of training a real model needs.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "graph/signed_graph.h"
#include "io/bundle_v3.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/nn.h"
#include "util/rng.h"

namespace {

// Scores a deterministic probe batch through both bundles and insists on
// bit-identical results. Returns true on agreement.
bool ScoresAgree(const dssddi::io::InferenceBundle& source,
                 const dssddi::io::InferenceBundle& reloaded,
                 dssddi::tensor::kernels::QuantMode mode, const char* label) {
  dssddi::io::InferenceBundle a = source;
  dssddi::io::InferenceBundle b = reloaded;
  a.quantization = static_cast<int>(mode);
  b.quantization = static_cast<int>(mode);

  const int cols = a.cluster_centroids.cols();
  constexpr int kProbeRows = 4;
  dssddi::util::Rng rng(20260809);
  dssddi::tensor::Matrix probe(kProbeRows, cols);
  for (float& v : probe.data()) {
    v = static_cast<float>(rng.Normal(0.0, 1.0));
  }

  const dssddi::tensor::Matrix expected = a.PredictScores(probe);
  const dssddi::tensor::Matrix actual = b.PredictScores(probe);
  if (!actual.SameShape(expected) ||
      std::memcmp(actual.ReadPtr(), expected.ReadPtr(),
                  expected.data().size() * sizeof(float)) != 0) {
    std::fprintf(stderr, "selftest: %s scores diverge after conversion\n",
                 label);
    return false;
  }
  std::printf("selftest: %s scores bit-identical on %d probe rows\n", label,
              kProbeRows);
  return true;
}

// A small random-weight bundle with every section populated; shape over
// quality, since conversion fidelity is what downstream checks probe.
dssddi::io::InferenceBundle MakeSyntheticBundle() {
  using namespace dssddi;
  util::Rng rng(20260809);
  const auto mat = [&rng](int rows, int cols) {
    tensor::Matrix m(rows, cols);
    for (float& v : m.data()) v = static_cast<float>(rng.Normal(0.0, 0.05));
    return m;
  };
  const int relu = static_cast<int>(tensor::Activation::kRelu);
  const int none = static_cast<int>(tensor::Activation::kNone);
  constexpr int kD1 = 24;
  constexpr int kHidden = 32;
  constexpr int kDrugs = 48;
  constexpr int kClusters = 4;

  io::InferenceBundle bundle;
  bundle.display_name = "bundle_convert synthetic";
  bundle.hidden_dim = kHidden;
  bundle.mlp_decoder = true;
  bundle.use_treatment_feature = true;
  bundle.patient_fc.layers = {
      {mat(kD1, kHidden), mat(1, kHidden), relu},
      {mat(kHidden, kHidden), mat(1, kHidden), relu},
  };
  bundle.decoder.layers = {
      {mat(kHidden + 1, kHidden), mat(1, kHidden), relu},
      {mat(kHidden, 1), mat(1, 1), none},
  };
  bundle.final_drug_reps = mat(kDrugs, kHidden);
  bundle.cluster_centroids = mat(kClusters, kD1);
  bundle.cluster_treatment = mat(kClusters, kDrugs);
  std::vector<graph::SignedEdge> edges;
  for (int v = 0; v + 1 < kDrugs; ++v) {
    edges.push_back({v, v + 1,
                     v % 5 == 0 ? graph::EdgeSign::kAntagonistic
                                : graph::EdgeSign::kSynergistic});
  }
  bundle.ddi = graph::SignedGraph(kDrugs, edges);
  bundle.drug_names.reserve(kDrugs);
  for (int v = 0; v < kDrugs; ++v) {
    bundle.drug_names.push_back("D" + std::to_string(v));
  }
  bundle.EnsureQuantized();
  return bundle;
}

}  // namespace

int main(int argc, char** argv) {
  bool selftest = false;
  bool synthetic = false;
  std::string input;
  std::string output;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--synthetic") {
      synthetic = true;
    } else if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (synthetic) {
    if (input.empty() || !output.empty()) {
      std::fprintf(stderr, "usage: bundle_convert --synthetic <output.dssb>\n");
      return 2;
    }
    const dssddi::io::InferenceBundle bundle = MakeSyntheticBundle();
    if (const dssddi::io::Status status =
            dssddi::io::WriteBundleV3(input, bundle);
        !status.ok) {
      std::fprintf(stderr, "cannot write %s: %s\n", input.c_str(),
                   status.message.c_str());
      return 1;
    }
    std::printf("wrote synthetic v3 bundle to %s (%d drugs)\n", input.c_str(),
                bundle.num_drugs());
    return 0;
  }
  if (input.empty() || output.empty()) {
    std::fprintf(stderr,
                 "usage: bundle_convert <input.dssb> <output_v4.dssb> "
                 "[--selftest]\n"
                 "       bundle_convert --synthetic <output.dssb>\n");
    return 2;
  }

  // v4 first; anything the v4 loader refuses gets one try as v3. Both
  // errors are shown when neither reader accepts the file.
  dssddi::io::InferenceBundle bundle;
  const char* format = "v4";
  if (const dssddi::io::Status v4_status =
          dssddi::io::LoadInferenceBundle(input, &bundle);
      !v4_status.ok) {
    format = "v3";
    if (const dssddi::io::Status v3_status =
            dssddi::io::ReadBundleV3(input, &bundle);
        !v3_status.ok) {
      std::fprintf(stderr, "cannot load %s\n  as v4: %s\n  as v3: %s\n",
                   input.c_str(), v4_status.message.c_str(),
                   v3_status.message.c_str());
      return 1;
    }
  }
  std::printf("loaded %s (format %s, %d drugs)\n", input.c_str(), format,
              bundle.num_drugs());

  if (const dssddi::io::Status status =
          dssddi::io::SaveInferenceBundleV4(output, bundle);
      !status.ok) {
    std::fprintf(stderr, "cannot write %s: %s\n", output.c_str(),
                 status.message.c_str());
    return 1;
  }

  dssddi::io::InferenceBundle reloaded;
  if (const dssddi::io::Status status =
          dssddi::io::LoadInferenceBundle(output, &reloaded);
      !status.ok) {
    std::fprintf(stderr, "wrote %s but it does not load back: %s\n",
                 output.c_str(), status.message.c_str());
    return 1;
  }
  std::printf("wrote %s (v%u, %zu bytes mapped, loaded in %.2f ms)\n",
              output.c_str(), reloaded.format_version, reloaded.bytes_mapped(),
              reloaded.load_ms);

  if (!selftest) return 0;

  if (const dssddi::io::Status status =
          dssddi::io::VerifyBundleV4Checksums(output);
      !status.ok) {
    std::fprintf(stderr, "selftest: %s\n", status.message.c_str());
    return 1;
  }
  std::printf("selftest: all section checksums verify\n");
  if (!ScoresAgree(bundle, reloaded, dssddi::tensor::kernels::QuantMode::kNone,
                   "float") ||
      !ScoresAgree(bundle, reloaded, dssddi::tensor::kernels::QuantMode::kInt8,
                   "int8")) {
    return 1;
  }
  std::printf("selftest: OK\n");
  return 0;
}
