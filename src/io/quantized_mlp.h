#ifndef DSSDDI_IO_QUANTIZED_MLP_H_
#define DSSDDI_IO_QUANTIZED_MLP_H_

#include <vector>

#include "tensor/kernels/qgemm.h"
#include "tensor/matrix.h"

namespace dssddi::io {

struct FrozenMlp;

/// The int8 companion of a FrozenMlp: per-layer weights quantized once
/// (symmetric, per output column) plus the float bias, ready for the
/// fused QGemmBiasAct pass. Activations are quantized dynamically per
/// row inside Forward, so results are row-local — a row scores the same
/// bits whether it arrives alone or inside a batch.
///
/// Built deterministically from the float weights (QuantizeMlp), so a
/// bundle shipped without the serialized int8 section reproduces the
/// exact same quantized scores after rebuilding on load.
struct QuantizedMlp {
  struct Layer {
    tensor::kernels::QuantizedWeights weights;
    tensor::Matrix bias;  // 1 x out_features, float
    int activation = 0;   // tensor::Activation as int
    /// Max |w - dequant(quant(w))| across this layer's weight — the
    /// quantization error operators see in ServiceStats / /statsz.
    float max_abs_error = 0.0f;
  };
  std::vector<Layer> layers;

  bool empty() const { return layers.empty(); }

  /// Fully quantized forward pass: per layer, dynamic group-wise
  /// activation quantization then one fused int8 GemmBiasAct — every
  /// layer, including narrow ones. Serving goes through
  /// FrozenMlp::Forward instead, which keeps layers narrower than
  /// kernels::kQuantMinColumns on the float path.
  tensor::Matrix Forward(const tensor::Matrix& x) const;
};

/// Quantizes every layer of `mlp`. Deterministic: same floats in, same
/// int8 out, on every host and ISA.
QuantizedMlp QuantizeMlp(const FrozenMlp& mlp);

}  // namespace dssddi::io

#endif  // DSSDDI_IO_QUANTIZED_MLP_H_
