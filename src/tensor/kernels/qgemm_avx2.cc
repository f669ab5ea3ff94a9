// AVX2+FMA int8 microkernel and vectorized row quantizer. This
// translation unit is the only one compiled with -mavx2 -mfma (see
// DSSDDI_QGEMM_AVX2_TU in CMakeLists.txt); everything else in the
// library stays at the baseline ISA, and qgemm.cc only dispatches here
// after a runtime __builtin_cpu_supports check, so the binary remains
// safe on pre-AVX2 hosts.
//
// Kernel structure (per A row, one 8-column weight tile at a time):
// broadcast 4 consecutive uint8 activation bytes against a 32-byte
// weight sub-block holding those 4 channels for all 8 columns — the
// maddubs/madd pair then yields one int32 lane PER COLUMN, so per-column
// sums build directly in vector lanes and the kernel needs no horizontal
// reductions at all. A 32-channel scale group is 8 sub-blocks: the
// int32 accumulation across them is exact, the zero-point correction is
// one vector subtract, and one cvt+fma folds the group into the float
// accumulator. That is 4 instructions per 32 MACs in the inner loop,
// against 2 instructions per 8 MACs for the float SSE2 microkernel.
// The last group stops after its last sub-block holding a real channel
// (the rest pair zero weights with zero-point bytes: exactly 0).
//
// Saturation-free by construction: u8 in [1,255] x s8 in [-63,63] gives
// |pair sums| <= 2 * 255 * 63 = 32130 < 2^15, and a group's int32
// accumulator stays under 2^24, so the int32->float conversion is exact
// (part of the cross-ISA bit-identity contract in qgemm_internal.h).

#include "tensor/kernels/qgemm_internal.h"

#if defined(DSSDDI_QGEMM_AVX2_TU) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace dssddi::tensor::kernels::internal {
namespace {

/// Exact int32 sums over the first `subs` 4-channel sub-blocks of one
/// group, one lane per column of the tile. Full groups pass the
/// constant 8, so their loop unrolls with a fixed trip count.
inline __m256i GroupDot(const unsigned char* ag, const signed char* wg,
                        int subs) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  for (int s = 0; s < subs; ++s) {
    int32_t a4;
    std::memcpy(&a4, ag + s * 4, sizeof(a4));
    const __m256i ab = _mm256_set1_epi32(a4);
    const __m256i wv = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(wg + static_cast<size_t>(s) * 32));
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(_mm256_maddubs_epi16(ab, wv), ones));
  }
  return acc;
}

/// One row against one packed 8-column tile: returns the 8 per-column
/// float sums (activation group scales applied, column scales not yet).
/// The last group runs only its `last_subs` sub-blocks holding data.
inline __m256 RowTile(const unsigned char* a_row, const float* row_scales,
                      const signed char* tile, const int32_t* corr_base,
                      int n_padded, int tile_col, int num_groups,
                      int last_subs) {
  __m256 accf = _mm256_setzero_ps();
  const auto fold = [&](int g, __m256i acc) {
    const __m256i corr = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        corr_base + static_cast<size_t>(g) * n_padded + tile_col));
    acc = _mm256_sub_epi32(acc, corr);
    accf = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc),
                           _mm256_set1_ps(row_scales[g]), accf);
  };
  // The last group is peeled so the full groups' loop keeps its
  // constant trip count.
  int g = 0;
  for (; g + 1 < num_groups; ++g) {
    fold(g, GroupDot(a_row + g * 32, tile + static_cast<size_t>(g) * 8 * 32, 8));
  }
  if (num_groups > 0) {
    fold(g, GroupDot(a_row + g * 32, tile + static_cast<size_t>(g) * 8 * 32,
                     last_subs));
  }
  return accf;
}

}  // namespace

void QGemmScaledAvx2(const unsigned char* a, const float* a_scales,
                     const signed char* w, const float* w_scales,
                     const int32_t* corrections, int m, int n, int n_padded,
                     int k, int k_padded, float* c) {
  const int num_groups = k_padded / 32;
  const int last_subs = LastGroupSubBlocks(k, k_padded);
  const int num_tiles = n_padded / 8;
  const size_t tile_bytes = static_cast<size_t>(k_padded) * 8;
  for (int i = 0; i < m; ++i) {
    const unsigned char* a_row = a + static_cast<size_t>(i) * k_padded;
    const float* row_scales = a_scales + static_cast<size_t>(i) * num_groups;
    float* c_row = c + static_cast<size_t>(i) * n;
    for (int t = 0; t < num_tiles; ++t) {
      const __m256 sums =
          RowTile(a_row, row_scales, w + static_cast<size_t>(t) * tile_bytes,
                  corrections, n_padded, t * 8, num_groups, last_subs);
      const __m256 scaled =
          _mm256_mul_ps(sums, _mm256_loadu_ps(w_scales + t * 8));
      const int col = t * 8;
      if (col + 8 <= n) {
        _mm256_storeu_ps(c_row + col, scaled);
      } else {
        // Ragged final tile: the padded columns were computed against
        // zero weights; copy only the real ones.
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, scaled);
        std::memcpy(c_row + col, tmp, static_cast<size_t>(n - col) * sizeof(float));
      }
    }
  }
}

float QuantizeGroupAvx2(const float* src, unsigned char* dst) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 v0 = _mm256_loadu_ps(src);
  const __m256 v1 = _mm256_loadu_ps(src + 8);
  const __m256 v2 = _mm256_loadu_ps(src + 16);
  const __m256 v3 = _mm256_loadu_ps(src + 24);
  const __m256 max01 = _mm256_max_ps(_mm256_and_ps(v0, abs_mask),
                                     _mm256_and_ps(v1, abs_mask));
  const __m256 max23 = _mm256_max_ps(_mm256_and_ps(v2, abs_mask),
                                     _mm256_and_ps(v3, abs_mask));
  __m256 max_vec = _mm256_max_ps(max01, max23);
  __m128 hi = _mm256_extractf128_ps(max_vec, 1);
  __m128 max4 = _mm_max_ps(_mm256_castps256_ps128(max_vec), hi);
  max4 = _mm_max_ps(max4, _mm_movehl_ps(max4, max4));
  max4 = _mm_max_ss(max4, _mm_shuffle_ps(max4, max4, 0x1));
  const float max_abs = _mm_cvtss_f32(max4);
  if (max_abs == 0.0f || !std::isfinite(max_abs)) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_set1_epi8(static_cast<char>(128)));
    return 0.0f;
  }
  const float inv = 127.0f / max_abs;
  const __m256 inv_vec = _mm256_set1_ps(inv);
  // cvtps2dq rounds to-nearest-even (matching the scalar lrintf); the
  // explicit [-127, 127] clamp matches the scalar kernel and keeps the
  // zero-point-shifted byte inside [1, 255] even for non-finite inputs.
  const __m256i lo_bound = _mm256_set1_epi32(-127);
  const __m256i hi_bound = _mm256_set1_epi32(127);
  const __m256i zero_point = _mm256_set1_epi32(128);
  const auto quantize8 = [&](__m256 v) {
    __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, inv_vec));
    q = _mm256_max_epi32(q, lo_bound);
    q = _mm256_min_epi32(q, hi_bound);
    return _mm256_add_epi32(q, zero_point);  // now in [1, 255]
  };
  const __m256i q0 = quantize8(v0);
  const __m256i q1 = quantize8(v1);
  const __m256i q2 = quantize8(v2);
  const __m256i q3 = quantize8(v3);
  // packs interleaves 128-bit lanes; the final permute restores order.
  // Values fit i16 after packs_epi32; packus_epi16 emits the u8 bytes.
  const __m256i p01 = _mm256_packs_epi32(q0, q1);
  const __m256i p23 = _mm256_packs_epi32(q2, q3);
  const __m256i packed = _mm256_packus_epi16(p01, p23);
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_permutevar8x32_epi32(packed, order));
  return max_abs / 127.0f;
}

}  // namespace dssddi::tensor::kernels::internal

#endif  // DSSDDI_QGEMM_AVX2_TU && __AVX2__ && __FMA__
