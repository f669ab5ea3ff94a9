// GEMM kernel benchmark: {reference, blocked, int8} x {square,
// MLP-shaped} GFLOP/s grid, plus end-to-end FrozenMlp::Forward rows so
// the serving win is visible next to the raw kernel win.
//
// Headline claims gated at exit:
//   * the blocked float backend sustains >= 1.5x the reference backend's
//     GFLOP/s (geometric mean) on the MLP-shaped matmuls that dominate
//     /v1/suggest scoring;
//   * the int8 quantized path sustains >= 2x the blocked float backend
//     on the same shapes (counting the same nominal 2*m*k*n flops, and
//     paying its full serving cost: dynamic activation quantization +
//     kernel + dequantize/bias/activation epilogue).
//
//   ./bench/bench_gemm [--quick]
//
// Machine-readable results land in BENCH_gemm.json (see bench_common.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "io/inference_bundle.h"
#include "net/json.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace dssddi;
using tensor::Matrix;
using tensor::kernels::GemmBackend;

Matrix RandomMatrix(int rows, int cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (float& v : m.data()) v = static_cast<float>(rng.Normal(0.0, 1.0));
  return m;
}

struct GemmCase {
  const char* label;
  int m, k, n;
  bool mlp_shaped;  // counted in the headline speedup gates
};

/// Times backend.Gemm on the case until ~`budget_s` of wall clock has
/// elapsed (at least twice) and returns GFLOP/s.
double MeasureGemm(const GemmBackend& backend, const GemmCase& c,
                   const Matrix& a, const Matrix& b, double budget_s) {
  Matrix out(c.m, c.n);
  const double flops = 2.0 * c.m * c.k * c.n;
  // Warm-up pass (page in the buffers, settle the frequency governor).
  backend.Gemm(c.m, c.k, c.n, a.data().data(), b.data().data(),
               out.data().data());
  util::Stopwatch clock;
  int reps = 0;
  do {
    backend.Gemm(c.m, c.k, c.n, a.data().data(), b.data().data(),
                 out.data().data());
    ++reps;
  } while (clock.ElapsedSeconds() < budget_s || reps < 2);
  return flops * reps / clock.ElapsedSeconds() / 1e9;
}

/// Times the full int8 serving layer cost on the case — dynamic per-row
/// activation quantization + fused kernel + epilogue; the weights are
/// quantized once outside the loop, exactly like frozen serving — and
/// returns effective GFLOP/s against the same nominal flop count.
double MeasureQGemm(const GemmCase& c, const Matrix& a, const Matrix& b,
                    double budget_s) {
  const tensor::kernels::QuantizedWeights qw =
      tensor::kernels::QuantizeWeightsPerColumn(b.data().data(), c.k, c.n);
  const Matrix bias(1, c.n, 0.0f);
  Matrix out(c.m, c.n);
  tensor::kernels::QuantizedRows qa;
  const double flops = 2.0 * c.m * c.k * c.n;
  const auto run = [&] {
    tensor::kernels::QuantizeRowsSymmetric(a.data().data(), c.m, c.k, &qa);
    tensor::kernels::QGemmBiasAct(qa, qw, bias.data().data(), out.data().data(),
                                  tensor::kernels::EpilogueActivation::kNone);
  };
  run();  // warm-up
  util::Stopwatch clock;
  int reps = 0;
  do {
    run();
    ++reps;
  } while (clock.ElapsedSeconds() < budget_s || reps < 2);
  return flops * reps / clock.ElapsedSeconds() / 1e9;
}

/// One synthetic frozen MLP shaped like the serving decoder stack:
/// (hidden+1) -> hidden (leaky-relu) -> 1 (none), fed with
/// batch*num_drugs interaction rows, exactly the hot PredictScores call.
io::FrozenMlp DecoderLikeMlp(int hidden, util::Rng& rng) {
  io::FrozenMlp mlp;
  io::FrozenMlp::Layer l1;
  l1.weight = RandomMatrix(hidden + 1, hidden, rng);
  l1.bias = RandomMatrix(1, hidden, rng);
  l1.activation = 2;  // leaky-relu
  mlp.layers.push_back(std::move(l1));
  io::FrozenMlp::Layer l2;
  l2.weight = RandomMatrix(hidden, 1, rng);
  l2.bias = RandomMatrix(1, 1, rng);
  l2.activation = 0;
  mlp.layers.push_back(std::move(l2));
  mlp.BuildQuantized();
  return mlp;
}

double MeasureForward(const io::FrozenMlp& mlp, const Matrix& x,
                      tensor::kernels::QuantMode mode, double budget_s) {
  Matrix out = mlp.Forward(x, mode);  // warm-up
  util::Stopwatch clock;
  int reps = 0;
  do {
    out = mlp.Forward(x, mode);
    ++reps;
  } while (clock.ElapsedSeconds() < budget_s || reps < 2);
  return static_cast<double>(x.rows()) * reps / clock.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  double budget_s = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      budget_s = 0.05;
    } else {
      std::printf("usage: %s [--quick]\n", argv[0]);
      return 1;
    }
  }

  bench::PrintHeader("GEMM kernels: reference vs blocked vs int8",
                     "serving-layer per-core scoring ceiling (beyond the "
                     "paper's offline eval)");

  const GemmBackend& reference = tensor::kernels::ReferenceGemm();
  const GemmBackend& blocked = tensor::kernels::BlockedGemm();
  std::printf("process-wide active backend: %s; int8 kernel: %s"
              " (bench pins all paths explicitly)\n\n",
              tensor::kernels::ActiveBackendName(),
              tensor::kernels::QGemmKernelName());

  // The int8 geomean gate covers the MLP shapes the quantized serving
  // path actually runs — layers with n >= kQuantMinColumns. The n=1
  // logit head (decoder L2) is shown for completeness but serves float
  // even in int8 mode (a quantized GEMV cannot amortize the activation
  // quantization pass), so it is excluded from the int8 gate.
  const GemmCase cases[] = {
      {"square 64", 64, 64, 64, false},
      {"square 128", 128, 128, 128, false},
      {"square 256", 256, 256, 256, false},
      {"square 384", 384, 384, 384, false},
      {"mlp patient_fc  256x71 . 71x64", 256, 71, 64, true},
      {"mlp decoder L1 2752x65 . 65x64", 2752, 65, 64, true},  // 32 req x 86 drugs
      {"mlp decoder L2 2752x64 . 64x1", 2752, 64, 1, true},
      {"mlp wide batch 1024x64 . 64x86", 1024, 64, 86, true},
  };

  util::Rng rng(42);
  net::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("gemm");
  json.Key("gemm_backends").BeginArray().String("reference").String("blocked")
      .EndArray();
  bench::WriteProvenance(json);  // carries int8_kernel
  json.Key("budget_seconds").Double(budget_s);
  json.Key("cases").BeginArray();

  std::printf("%-34s %10s %10s %10s %8s %8s\n", "shape", "ref GF/s",
              "blk GF/s", "int8 GF/s", "blk/ref", "int8/blk");
  double blk_log_sum = 0.0, int8_log_sum = 0.0;
  int mlp_count = 0, int8_count = 0;
  for (const GemmCase& c : cases) {
    const Matrix a = RandomMatrix(c.m, c.k, rng);
    const Matrix b = RandomMatrix(c.k, c.n, rng);
    const bool quantized_in_serving = c.n >= tensor::kernels::kQuantMinColumns;
    const double ref = MeasureGemm(reference, c, a, b, budget_s);
    const double blk = MeasureGemm(blocked, c, a, b, budget_s);
    const double int8 = MeasureQGemm(c, a, b, budget_s);
    std::printf("%-34s %10.2f %10.2f %10.2f %7.2fx %7.2fx%s\n", c.label, ref,
                blk, int8, blk / ref, int8 / blk,
                quantized_in_serving ? "" : "  (serves float)");
    if (c.mlp_shaped) {
      blk_log_sum += std::log(blk / ref);
      ++mlp_count;
      if (quantized_in_serving) {
        int8_log_sum += std::log(int8 / blk);
        ++int8_count;
      }
    }
    json.BeginObject()
        .Key("shape").String(c.label)
        .Key("m").Int(c.m).Key("k").Int(c.k).Key("n").Int(c.n)
        .Key("mlp_shaped").Bool(c.mlp_shaped)
        .Key("quantized_in_serving").Bool(quantized_in_serving)
        .Key("reference_gflops").Double(ref)
        .Key("blocked_gflops").Double(blk)
        .Key("int8_gflops").Double(int8)
        .EndObject();
  }
  json.EndArray();

  // End-to-end frozen forward: the decoder stack over one dispatched
  // batch of interaction rows, per arithmetic path, in rows scored per
  // second.
  const int hidden = 64;
  const io::FrozenMlp mlp = DecoderLikeMlp(hidden, rng);
  const Matrix x = RandomMatrix(2752, hidden + 1, rng);
  const std::string saved = tensor::kernels::ActiveBackendName();
  tensor::kernels::SetBackend("reference");
  const double fwd_ref =
      MeasureForward(mlp, x, tensor::kernels::QuantMode::kNone, budget_s);
  tensor::kernels::SetBackend("blocked");
  const double fwd_blk =
      MeasureForward(mlp, x, tensor::kernels::QuantMode::kNone, budget_s);
  const double fwd_int8 =
      MeasureForward(mlp, x, tensor::kernels::QuantMode::kInt8, budget_s);
  tensor::kernels::SetBackend(saved);
  std::printf("%-34s %8.0f/s %8.0f/s %8.0f/s %7.2fx %7.2fx\n",
              "FrozenMlp::Forward (decoder rows)", fwd_ref, fwd_blk, fwd_int8,
              fwd_blk / fwd_ref, fwd_int8 / fwd_blk);

  const double blk_speedup = std::exp(blk_log_sum / mlp_count);
  const double int8_speedup = std::exp(int8_log_sum / int8_count);
  std::printf("\nblocked vs reference on MLP-shaped matmuls (geomean): %.2fx %s\n",
              blk_speedup,
              blk_speedup >= 1.5 ? "(PASS: >= 1.5x)" : "(below the 1.5x target)");
  std::printf("int8 vs blocked on quantized MLP shapes (geomean):    %.2fx %s\n",
              int8_speedup,
              int8_speedup >= 2.0 ? "(PASS: >= 2x)" : "(below the 2x target)");

  json.Key("forward_rows_per_second").BeginObject()
      .Key("reference").Double(fwd_ref)
      .Key("blocked").Double(fwd_blk)
      .Key("int8").Double(fwd_int8)
      .EndObject();
  json.Key("mlp_geomean_blocked_vs_reference").Double(blk_speedup);
  json.Key("mlp_geomean_int8_vs_blocked").Double(int8_speedup);
  const bool pass = blk_speedup >= 1.5 && int8_speedup >= 2.0;
  json.Key("pass").Bool(pass);
  json.EndObject();
  bench::WriteBenchJson("gemm", json.str());
  return pass ? 0 : 1;
}
