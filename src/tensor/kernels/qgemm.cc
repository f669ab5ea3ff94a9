#include "tensor/kernels/qgemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "tensor/kernels/qgemm_internal.h"
#include "util/logging.h"

namespace dssddi::tensor::kernels {

namespace internal {

int LastGroupSubBlocks(int k, int k_padded) {
  return (k + 3) / 4 - (k_padded / kQuantGroup - 1) * (kQuantGroup / 4);
}

// Portable reference kernel. Follows the SIMD kernels' accumulation
// order exactly — exact int32 group sums, zero-point correction, one
// fmaf per group (fma is exactly specified, so libm and the hardware FMA
// agree), column scale last — so every implementation returns identical
// bits. Like them it stops at the last sub-block holding a real channel.
void QGemmScaledScalar(const unsigned char* a, const float* a_scales,
                       const signed char* w, const float* w_scales,
                       const int32_t* corrections, int m, int n, int n_padded,
                       int k, int k_padded, float* c) {
  const int num_groups = k_padded / kQuantGroup;
  const int last_subs = LastGroupSubBlocks(k, k_padded);
  const size_t tile_bytes = static_cast<size_t>(k_padded) * kQuantColTile;
  for (int i = 0; i < m; ++i) {
    const unsigned char* a_row = a + static_cast<size_t>(i) * k_padded;
    const float* row_scales = a_scales + static_cast<size_t>(i) * num_groups;
    float* c_row = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const signed char* tile = w + static_cast<size_t>(j / kQuantColTile) * tile_bytes;
      const int col_in_tile = j % kQuantColTile;
      float acc = 0.0f;
      for (int g = 0; g < num_groups; ++g) {
        const int subs = g + 1 < num_groups ? kQuantGroup / 4 : last_subs;
        int32_t sum = 0;  // exact: <= 32 * 255 * 63 < 2^24
        for (int s = 0; s < subs; ++s) {
          // Packed byte (sub s, col c, lane q) = w[k = 4s+q][col].
          const signed char* wb =
              tile + (static_cast<size_t>(g) * (kQuantGroup / 4) + s) * 32 +
              col_in_tile * 4;
          const unsigned char* ab = a_row + g * kQuantGroup + s * 4;
          sum += static_cast<int32_t>(ab[0]) * wb[0];
          sum += static_cast<int32_t>(ab[1]) * wb[1];
          sum += static_cast<int32_t>(ab[2]) * wb[2];
          sum += static_cast<int32_t>(ab[3]) * wb[3];
        }
        sum -= corrections[static_cast<size_t>(g) * n_padded + j];
        acc = std::fmaf(static_cast<float>(sum), row_scales[g], acc);
      }
      c_row[j] = acc * w_scales[j];
    }
  }
}

float QuantizeGroupScalar(const float* src, unsigned char* dst) {
  float max_abs = 0.0f;
  for (int p = 0; p < kQuantGroup; ++p) {
    max_abs = std::max(max_abs, std::fabs(src[p]));
  }
  if (max_abs == 0.0f || !std::isfinite(max_abs)) {
    std::fill(dst, dst + kQuantGroup,
              static_cast<unsigned char>(kQuantZeroPoint));
    return 0.0f;
  }
  const float inv = 127.0f / max_abs;
  for (int p = 0; p < kQuantGroup; ++p) {
    long q = std::lrintf(src[p] * inv);
    q = std::min<long>(127, std::max<long>(-127, q));
    dst[p] = static_cast<unsigned char>(q + kQuantZeroPoint);
  }
  return max_abs / 127.0f;
}

std::vector<CompiledKernel> CompiledKernels() {
  std::vector<CompiledKernel> kernels = {
      {"int8/scalar", &QGemmScaledScalar, &QuantizeGroupScalar, true}};
#if defined(__GNUC__)
  // __builtin_cpu_supports needs this when called during static
  // initialization, before the runtime has set the feature bits up.
  __builtin_cpu_init();
#endif
#if defined(DSSDDI_QGEMM_AVX2_TU) && defined(__GNUC__)
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  kernels.push_back({"int8/avx2", &QGemmScaledAvx2, &QuantizeGroupAvx2, avx2});
#if defined(DSSDDI_QGEMM_VNNI_TU)
  // The VNNI kernel quantizes rows with the AVX2 quantizer.
  kernels.push_back({"int8/avx512vnni", &QGemmScaledVnni, &QuantizeGroupAvx2,
                     avx2 && __builtin_cpu_supports("avx512vnni") &&
                         __builtin_cpu_supports("avx512vl")});
#endif
#endif
  return kernels;
}

}  // namespace internal

namespace {

const internal::CompiledKernel& Kernel() {
  static const internal::CompiledKernel choice = [] {
    const std::vector<internal::CompiledKernel> kernels =
        internal::CompiledKernels();
    for (auto it = kernels.rbegin(); it != kernels.rend(); ++it) {
      if (it->supported) return *it;
    }
    return kernels.front();
  }();
  return choice;
}

/// Quantizes a ragged tail group (count < 32 real channels): same
/// rounding/clamp as the full-group quantizers, padding to the zero
/// point.
float QuantizeTailGroup(const float* src, int count, unsigned char* dst) {
  float max_abs = 0.0f;
  for (int p = 0; p < count; ++p) {
    max_abs = std::max(max_abs, std::fabs(src[p]));
  }
  std::fill(dst, dst + kQuantGroup, static_cast<unsigned char>(kQuantZeroPoint));
  if (max_abs == 0.0f || !std::isfinite(max_abs)) return 0.0f;
  const float inv = 127.0f / max_abs;
  for (int p = 0; p < count; ++p) {
    long q = std::lrintf(src[p] * inv);
    q = std::min<long>(127, std::max<long>(-127, q));
    dst[p] = static_cast<unsigned char>(q + kQuantZeroPoint);
  }
  return max_abs / 127.0f;
}

void EpilogueInPlace(float* c, int m, int n, const float* bias,
                     EpilogueActivation activation) {
  // The activation switch sits outside the element loops so the simple
  // cases auto-vectorize (the expressions match ActivateScalar exactly,
  // branchless-blend included, so results are bit-identical); the
  // transcendental ones stay on the shared scalar helper.
  switch (activation) {
    case EpilogueActivation::kNone:
      for (int i = 0; i < m; ++i) {
        float* c_row = c + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) c_row[j] += bias[j];
      }
      return;
    case EpilogueActivation::kRelu:
      for (int i = 0; i < m; ++i) {
        float* c_row = c + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          const float v = c_row[j] + bias[j];
          c_row[j] = v > 0.0f ? v : 0.0f;
        }
      }
      return;
    case EpilogueActivation::kLeakyRelu:
      for (int i = 0; i < m; ++i) {
        float* c_row = c + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          const float v = c_row[j] + bias[j];
          c_row[j] = v > 0.0f ? v : 0.01f * v;
        }
      }
      return;
    default:
      for (int i = 0; i < m; ++i) {
        float* c_row = c + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          c_row[j] = ActivateScalar(c_row[j] + bias[j], activation);
        }
      }
  }
}

/// Packs unpacked column-major int8 into the tile layout and builds the
/// zero-point correction table. Shared by the quantizer and the bundle
/// loader.
void PackColumns(const signed char* columns, QuantizedWeights* q) {
  q->data.assign(static_cast<size_t>(q->n_padded) * q->k_padded, 0);
  q->col_corrections.assign(
      static_cast<size_t>(q->num_groups()) * q->n_padded, 0);
  const size_t tile_bytes = static_cast<size_t>(q->k_padded) * kQuantColTile;
  for (int j = 0; j < q->n; ++j) {
    const signed char* column = columns + static_cast<size_t>(j) * q->k;
    signed char* tile = q->data.data() + (j / kQuantColTile) * tile_bytes;
    const int col_in_tile = j % kQuantColTile;
    for (int p = 0; p < q->k; ++p) {
      const int s = p / 4;
      tile[static_cast<size_t>(s) * 32 + col_in_tile * 4 + p % 4] = column[p];
      q->col_corrections[static_cast<size_t>(p / kQuantGroup) * q->n_padded + j] +=
          kQuantZeroPoint * static_cast<int32_t>(column[p]);
    }
  }
}

}  // namespace

QuantizedWeights QuantizeWeightsPerColumn(const float* w, int k, int n) {
  QuantizedWeights q;
  q.k = k;
  q.n = n;
  q.k_padded = QuantPaddedK(k);
  q.n_padded = QuantPaddedN(n);
  q.scales.assign(q.n_padded, 0.0f);

  std::vector<signed char> columns(static_cast<size_t>(n) * k, 0);
  float max_err = 0.0f;
  for (int j = 0; j < n; ++j) {
    float max_abs = 0.0f;
    for (int p = 0; p < k; ++p) {
      max_abs = std::max(max_abs, std::fabs(w[static_cast<size_t>(p) * n + j]));
    }
    if (max_abs == 0.0f || !std::isfinite(max_abs)) continue;
    const float scale = max_abs / static_cast<float>(kQuantWeightMax);
    const float inv = static_cast<float>(kQuantWeightMax) / max_abs;
    q.scales[j] = scale;
    signed char* column = columns.data() + static_cast<size_t>(j) * k;
    for (int p = 0; p < k; ++p) {
      const float v = w[static_cast<size_t>(p) * n + j];
      long qi = std::lrintf(v * inv);
      qi = std::min<long>(kQuantWeightMax, std::max<long>(-kQuantWeightMax, qi));
      column[p] = static_cast<signed char>(qi);
      max_err = std::max(max_err,
                         std::fabs(v - static_cast<float>(qi) * scale));
    }
  }
  q.max_abs_error = max_err;
  PackColumns(columns.data(), &q);
  return q;
}

QuantizedWeights BuildQuantizedWeights(int k, int n, const signed char* columns,
                                       const float* scales,
                                       float max_abs_error) {
  QuantizedWeights q;
  q.k = k;
  q.n = n;
  q.k_padded = QuantPaddedK(k);
  q.n_padded = QuantPaddedN(n);
  q.scales.assign(q.n_padded, 0.0f);
  std::copy(scales, scales + n, q.scales.begin());
  q.max_abs_error = max_abs_error;
  PackColumns(columns, &q);
  return q;
}

void UnpackQuantizedWeights(const QuantizedWeights& w, signed char* columns) {
  const size_t tile_bytes = static_cast<size_t>(w.k_padded) * kQuantColTile;
  for (int j = 0; j < w.n; ++j) {
    const signed char* tile = w.packed_data() + (j / kQuantColTile) * tile_bytes;
    const int col_in_tile = j % kQuantColTile;
    for (int p = 0; p < w.k; ++p) {
      columns[static_cast<size_t>(j) * w.k + p] =
          tile[static_cast<size_t>(p / 4) * 32 + col_in_tile * 4 + p % 4];
    }
  }
}

void QuantizeRowsSymmetric(const float* a, int m, int k, QuantizedRows* out) {
  out->m = m;
  out->k = k;
  out->k_padded = QuantPaddedK(k);
  out->num_groups = out->k_padded / kQuantGroup;
  // resize, not assign: every byte below is written anyway (full groups
  // by the quantizer, the ragged tail including its padding by
  // QuantizeTailGroup), and serving reuses one QuantizedRows per layer —
  // a redundant fill would double the pass's memory traffic.
  out->data.resize(static_cast<size_t>(m) * out->k_padded);
  out->scales.resize(static_cast<size_t>(m) * out->num_groups);
  const internal::QuantizeGroupFn quantize_group = Kernel().quantize_group;
  for (int i = 0; i < m; ++i) {
    const float* src_row = a + static_cast<size_t>(i) * k;
    unsigned char* dst_row =
        out->data.data() + static_cast<size_t>(i) * out->k_padded;
    float* row_scales =
        out->scales.data() + static_cast<size_t>(i) * out->num_groups;
    for (int g = 0; g < out->num_groups; ++g) {
      const int begin = g * kQuantGroup;
      const int count = std::min(kQuantGroup, k - begin);
      if (count == kQuantGroup) {
        // Full groups go through the dispatched (SIMD where available)
        // quantizer — this is the per-call serving cost, so it must not
        // be a scalar lrintf loop.
        row_scales[g] = quantize_group(src_row + begin, dst_row + begin);
      } else {
        row_scales[g] = QuantizeTailGroup(src_row + begin, count, dst_row + begin);
      }
    }
  }
}

void QGemmBiasAct(const QuantizedRows& a, const QuantizedWeights& w,
                  const float* bias, float* c, EpilogueActivation activation) {
  // Real (unpadded) lengths must match — padded equality alone would let
  // mismatched operands in the same 32-padding bucket compute silently
  // wrong results (activation padding cancels against the correction
  // table, so there would be no crash to notice).
  DSSDDI_CHECK(a.k == w.k)
      << "qgemm contraction mismatch: " << a.k << " vs " << w.k;
  if (a.m == 0 || w.n == 0) return;
  Kernel().gemm(a.data.data(), a.scales.data(), w.packed_data(), w.scale_data(),
                w.correction_data(), a.m, w.n, w.n_padded, a.k, a.k_padded, c);
  EpilogueInPlace(c, a.m, w.n, bias, activation);
}

void QGemmBiasActPortable(const QuantizedRows& a, const QuantizedWeights& w,
                          const float* bias, float* c,
                          EpilogueActivation activation) {
  DSSDDI_CHECK(a.k == w.k)
      << "qgemm contraction mismatch: " << a.k << " vs " << w.k;
  if (a.m == 0 || w.n == 0) return;
  internal::QGemmScaledScalar(a.data.data(), a.scales.data(), w.packed_data(),
                              w.scale_data(), w.correction_data(), a.m,
                              w.n, w.n_padded, a.k, a.k_padded, c);
  EpilogueInPlace(c, a.m, w.n, bias, activation);
}

const char* QGemmKernelName() { return Kernel().name; }

// ---------------------------------------------------------------------
// Quantization mode registry (mirrors the GEMM backend registry).
// ---------------------------------------------------------------------

namespace {

QuantMode ModeFromEnv() {
  const char* env = std::getenv(kQuantizeEnvVar);
  if (env != nullptr && *env != '\0') {
    QuantMode mode;
    if (ParseQuantMode(env, &mode)) return mode;
    DSSDDI_LOG(Warning) << "unknown " << kQuantizeEnvVar << "='" << env
                        << "'; serving stays on the float path";
  }
  return QuantMode::kNone;
}

std::atomic<QuantMode>& QuantSlot() {
  static std::atomic<QuantMode> slot{ModeFromEnv()};
  return slot;
}

}  // namespace

QuantMode ActiveQuantMode() {
  return QuantSlot().load(std::memory_order_acquire);
}

const char* QuantModeName(QuantMode mode) {
  return mode == QuantMode::kInt8 ? "int8" : "none";
}

bool ParseQuantMode(const std::string& name, QuantMode* mode) {
  if (name == "int8") {
    *mode = QuantMode::kInt8;
    return true;
  }
  if (name == "none" || name == "float" || name == "fp32") {
    *mode = QuantMode::kNone;
    return true;
  }
  return false;
}

bool SetQuantMode(const std::string& name) {
  QuantMode mode;
  if (!ParseQuantMode(name, &mode)) return false;
  QuantSlot().store(mode, std::memory_order_release);
  return true;
}

}  // namespace dssddi::tensor::kernels
