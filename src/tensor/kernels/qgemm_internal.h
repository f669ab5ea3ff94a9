#ifndef DSSDDI_TENSOR_KERNELS_QGEMM_INTERNAL_H_
#define DSSDDI_TENSOR_KERNELS_QGEMM_INTERNAL_H_

#include <cstdint>
#include <vector>

// Shared between qgemm.cc (dispatch + scalar kernels), qgemm_avx2.cc
// (the AVX2+FMA translation unit, compiled with -mavx2 -mfma when the
// compiler supports it; see DSSDDI_QGEMM_AVX2_TU in CMakeLists.txt) and
// qgemm_vnni.cc (the AVX-512 VNNI translation unit, additionally
// compiled with -mavx512vnni -mavx512vl; see DSSDDI_QGEMM_VNNI_TU).

namespace dssddi::tensor::kernels::internal {

/// c (m x n float, row stride n, overwritten) =
///     w_scales[j] * sum over 32-channel groups of
///         a_scales[i][g] * (exact corrected int32 dot of group g)
///
/// where the corrected dot is sum((a_u8 - 128) * w_s8) computed as
/// sum(a_u8 * w_s8) - corrections[g * n_padded + j].
///
/// `a` is m rows x k_padded of uint8 (zero point 128); `w` is the
/// packed tile layout of QuantizedWeights::data (n_padded/8 tiles x
/// k_padded/4 sub-blocks x 32 bytes); scales/corrections are laid out
/// as in QuantizedWeights. Padded columns (j >= n) are computed and
/// discarded. Both packed buffers are 32-byte aligned.
///
/// Padding sub-blocks are skipped: only the first ceil(k/4) 4-channel
/// sub-blocks are read. A sub-block past that holds zero weights in
/// every column, so its exact int32 contribution is 0 whatever the
/// activation bytes are, and skipping it changes no bit. Full groups
/// keep a constant 8-step inner loop; only the last group can be short.
///
/// Bit-identity contract shared by every implementation: per (row,
/// column), group int32 sums accumulate exactly; each group value is
/// converted to float (exact: |value| < 2^24) and fused-multiply-added
/// by the group's activation scale into one float accumulator, groups
/// in ascending order; the accumulator is multiplied by the column
/// scale last.
using QGemmKernelFn = void (*)(const unsigned char* a, const float* a_scales,
                               const signed char* w, const float* w_scales,
                               const int32_t* corrections, int m, int n,
                               int n_padded, int k, int k_padded, float* c);

/// 4-channel sub-blocks the kernels run in the last group of a k-channel
/// contraction: 8 when k fills it, fewer when its tail is padding.
/// Defined out of line in qgemm.cc, so no inline code is shared with the
/// translation units built for wider ISAs.
int LastGroupSubBlocks(int k, int k_padded);

/// Quantizes one full 32-float group: returns the symmetric scale
/// (max_abs / 127, or 0 for an all-zero / non-finite-max group, with
/// all-zero-point output) and writes 32 uint8 values
/// clamp(round(v/scale), -127, 127) + 128. Rounding is to-nearest-even
/// in every implementation (cvtps2dq and lrintf agree), so quantized
/// bytes are ISA-independent for finite inputs. (A NaN input lane is
/// clamped, never crashes, but maxps and std::max disagree on NaN
/// propagation, so cross-ISA bit-identity is only promised for finite
/// activations — which is all the serving path ever produces; IEEE
/// semantics live on the float path.)
using QuantizeGroupFn = float (*)(const float* src, unsigned char* dst);

/// Portable reference implementations (always compiled).
void QGemmScaledScalar(const unsigned char* a, const float* a_scales,
                       const signed char* w, const float* w_scales,
                       const int32_t* corrections, int m, int n, int n_padded,
                       int k, int k_padded, float* c);
float QuantizeGroupScalar(const float* src, unsigned char* dst);

#if defined(DSSDDI_QGEMM_AVX2_TU)
/// Defined in qgemm_avx2.cc. Only callable after a runtime
/// __builtin_cpu_supports check. Bit-identical to the scalar
/// implementations by the contracts above.
void QGemmScaledAvx2(const unsigned char* a, const float* a_scales,
                     const signed char* w, const float* w_scales,
                     const int32_t* corrections, int m, int n, int n_padded,
                     int k, int k_padded, float* c);
float QuantizeGroupAvx2(const float* src, unsigned char* dst);
#endif

#if defined(DSSDDI_QGEMM_VNNI_TU)
/// Defined in qgemm_vnni.cc (vpdpbusd on 256-bit vectors). Only callable
/// after a runtime check for avx512vnni + avx512vl (and avx2 + fma,
/// which its row quantizer, QuantizeGroupAvx2, needs). Bit-identical to
/// the scalar kernel by the contract above.
void QGemmScaledVnni(const unsigned char* a, const float* a_scales,
                     const signed char* w, const float* w_scales,
                     const int32_t* corrections, int m, int n, int n_padded,
                     int k, int k_padded, float* c);
#endif

/// One int8 kernel built into this library.
struct CompiledKernel {
  const char* name;  // "int8/scalar", "int8/avx2", "int8/avx512vnni"
  QGemmKernelFn gemm;
  QuantizeGroupFn quantize_group;
  bool supported;  // this CPU can run it
};

/// Every int8 kernel compiled in, the portable one first and the most
/// preferred last; dispatch picks the last supported one. Exposed so
/// the tests can hold each kernel, not only the dispatched one, to the
/// bit-identity contract.
std::vector<CompiledKernel> CompiledKernels();

}  // namespace dssddi::tensor::kernels::internal

#endif  // DSSDDI_TENSOR_KERNELS_QGEMM_INTERNAL_H_
