// AVX-512 VNNI int8 microkernel. This translation unit is the only one
// compiled with -mavx512vnni -mavx512vl (plus -mavx2 -mfma; see
// DSSDDI_QGEMM_VNNI_TU in CMakeLists.txt); qgemm.cc only dispatches
// here after a runtime __builtin_cpu_supports check, so the binary stays
// safe on hosts without AVX-512. It calls no inline function from a
// header (only intrinsics and compiler builtins), and everything it
// defines besides the kernel has internal linkage, so the linker cannot
// hand an AVX-512 copy of shared inline code to the baseline units.
//
// It reads the same packed weight layout as the AVX2 kernel (so the
// mmap'd bundle serves it directly) and differs only in the inner step:
// one vpdpbusd per 8-column tile multiplies 4 broadcast uint8 activation
// bytes by the tile's 4 int8 channels and adds the 4 products into each
// column's int32 lane, where the AVX2 kernel needs maddubs + madd + add.
// vpdpbusd adds exactly in int32 (no int16 intermediate, no
// saturation), and a group's sums stay under 2^24, so every corrected
// group sum is the AVX2 kernel's value. The accumulators start at minus
// the zero-point correction instead of subtracting it after the group
// (the same exact int32); cvt, one fmadd by the row's group scale and
// the column scale last are unchanged, so the bits are identical.
//
// Register blocking: kRowsPerBlock rows x kTilesPerBlock tiles per
// block. vpdpbusd has a 5-cycle latency and issues twice a cycle, so a
// block needs about 10 independent accumulator chains to keep both
// ports busy: 4 x 4 gives 16, and one activation broadcast serves 4
// tiles. (1 x 4 is latency-bound and 2 x 4 measured 8% slower on the
// served 86 x 65 -> 64 tile.)

#include "tensor/kernels/qgemm_internal.h"

#if defined(DSSDDI_QGEMM_VNNI_TU) && defined(__AVX512VNNI__) && \
    defined(__AVX512VL__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>
#include <cstring>

namespace dssddi::tensor::kernels::internal {
namespace {

constexpr int kRowsPerBlock = 4;
constexpr int kTilesPerBlock = 4;

/// Operands of one kernel call, shared by every block.
struct Operands {
  const unsigned char* a;
  const float* a_scales;
  const signed char* w;
  const float* w_scales;
  const int32_t* corrections;
  int n;
  int n_padded;
  int k_padded;
  int num_groups;
  int last_subs;
  float* c;
};

/// Adds `subs` sub-blocks of one group into the R x T int32
/// accumulators. Full groups pass the constant 8.
template <int R, int T>
__attribute__((always_inline)) inline void GroupDots(
    const unsigned char* const (&ag)[R], const signed char* wg,
    size_t tile_bytes, int subs, __m256i (&acc)[R][T]) {
#pragma GCC unroll 8
  for (int s = 0; s < subs; ++s) {
    __m256i wv[T];
#pragma GCC unroll 8
    for (int t = 0; t < T; ++t) {
      wv[t] = _mm256_load_si256(reinterpret_cast<const __m256i*>(
          wg + t * tile_bytes + static_cast<size_t>(s) * 32));
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      int32_t a4;
      std::memcpy(&a4, ag[r] + s * 4, sizeof(a4));
      const __m256i ab = _mm256_set1_epi32(a4);
#pragma GCC unroll 8
      for (int t = 0; t < T; ++t) {
        acc[r][t] = _mm256_dpbusd_epi32(acc[r][t], ab, wv[t]);
      }
    }
  }
}

/// Rows [row, row + R) against tiles [tile, tile + T): every group, then
/// the column scales, then the stores (the ragged last tile copies only
/// its real columns).
template <int R, int T>
void Block(const Operands& op, int row, int tile) {
  const size_t tile_bytes = static_cast<size_t>(op.k_padded) * 8;
  const signed char* w_tiles = op.w + static_cast<size_t>(tile) * tile_bytes;
  const int col0 = tile * 8;
  const unsigned char* a_rows[R];
  const float* row_scales[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    a_rows[r] = op.a + static_cast<size_t>(row + r) * op.k_padded;
    row_scales[r] = op.a_scales + static_cast<size_t>(row + r) * op.num_groups;
  }
  __m256 accf[R][T];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int t = 0; t < T; ++t) accf[r][t] = _mm256_setzero_ps();
  }
  const auto group = [&](int g, int subs) __attribute__((always_inline)) {
    // Each accumulator starts at minus the zero-point correction, so the
    // group sum comes out corrected with no per-row subtract (integer
    // adds are exact in any order: the same int32 as subtracting last).
    const int32_t* corr =
        op.corrections + static_cast<size_t>(g) * op.n_padded + col0;
    __m256i acc[R][T];
#pragma GCC unroll 8
    for (int t = 0; t < T; ++t) {
      const __m256i neg_corr = _mm256_sub_epi32(
          _mm256_setzero_si256(),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(corr + t * 8)));
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) acc[r][t] = neg_corr;
    }
    const unsigned char* ag[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) ag[r] = a_rows[r] + g * 32;
    GroupDots<R, T>(ag, w_tiles + static_cast<size_t>(g) * 8 * 32, tile_bytes,
                    subs, acc);
#pragma GCC unroll 8
    for (int t = 0; t < T; ++t) {
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        accf[r][t] = _mm256_fmadd_ps(
            _mm256_cvtepi32_ps(acc[r][t]),
            _mm256_set1_ps(row_scales[r][g]), accf[r][t]);
      }
    }
  };
  // The last group is peeled so the full groups keep a constant 8-step
  // inner loop; it runs only its sub-blocks that hold real channels.
  int g = 0;
  for (; g + 1 < op.num_groups; ++g) group(g, 8);
  if (op.num_groups > 0) group(g, op.last_subs);

#pragma GCC unroll 8
  for (int t = 0; t < T; ++t) {
    const int col = col0 + t * 8;
    const __m256 col_scales = _mm256_loadu_ps(op.w_scales + col);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 scaled = _mm256_mul_ps(accf[r][t], col_scales);
      float* c_row = op.c + static_cast<size_t>(row + r) * op.n;
      if (col + 8 <= op.n) {
        _mm256_storeu_ps(c_row + col, scaled);
      } else {
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, scaled);
        std::memcpy(c_row + col, tmp,
                    static_cast<size_t>(op.n - col) * sizeof(float));
      }
    }
  }
}

/// Rows [row, row + R) against every tile: kTilesPerBlock-wide blocks,
/// then the remaining tiles one at a time.
template <int R>
void RowBlock(const Operands& op, int row) {
  const int num_tiles = op.n_padded / 8;
  int tile = 0;
  for (; tile + kTilesPerBlock <= num_tiles; tile += kTilesPerBlock) {
    Block<R, kTilesPerBlock>(op, row, tile);
  }
  for (; tile < num_tiles; ++tile) Block<R, 1>(op, row, tile);
}

/// Rows [row, m) in blocks of R rows, the remainder in smaller blocks.
template <int R>
void Rows(const Operands& op, int row, int m) {
  for (; row + R <= m; row += R) RowBlock<R>(op, row);
  if constexpr (R > 1) Rows<R - 1>(op, row, m);
}

}  // namespace

void QGemmScaledVnni(const unsigned char* a, const float* a_scales,
                     const signed char* w, const float* w_scales,
                     const int32_t* corrections, int m, int n, int n_padded,
                     int k, int k_padded, float* c) {
  const Operands op{a,        a_scales,         w,
                    w_scales, corrections,      n,
                    n_padded, k_padded,         k_padded / 32,
                    LastGroupSubBlocks(k, k_padded), c};
  Rows<kRowsPerBlock>(op, 0, m);
}

}  // namespace dssddi::tensor::kernels::internal

#endif  // DSSDDI_QGEMM_VNNI_TU && __AVX512VNNI__ && __AVX512VL__ && ...
