#include "io/bundle_v3.h"

#include <cmath>
#include <utility>

#include "io/serialize.h"
#include "tensor/kernels/qgemm.h"

namespace dssddi::io {
namespace {

// Version 2 added ms_explainer; version-1 files load with the default
// closest-truss-community explainer. Version 3 appended the int8
// quantized-MLP sections; older files load fine and rebuild the int8
// companions from the float weights (deterministically, so rebuilt and
// shipped quantizations score identical bits).
constexpr uint32_t kBundleVersion = 3;

constexpr uint32_t kMaxQuantLayers = 64;
constexpr uint32_t kMaxQuantDim = 1u << 28;

void WriteFrozenMlp(BinaryWriter& writer, const FrozenMlp& mlp) {
  writer.WriteU32(static_cast<uint32_t>(mlp.layers.size()));
  for (const auto& layer : mlp.layers) {
    WriteMatrix(writer, layer.weight);
    WriteMatrix(writer, layer.bias);
    writer.WriteI32(layer.activation);
  }
}

bool ReadFrozenMlp(BinaryReader& reader, FrozenMlp* mlp) {
  const uint32_t num_layers = reader.ReadU32();
  if (!reader.ok() || num_layers > 64) {
    reader.Fail();
    return false;
  }
  // A reused destination must not keep a previous model's int8
  // companion — it would silently score int8 with stale weights.
  mlp->quantized.layers.clear();
  mlp->layers.assign(num_layers, {});
  for (auto& layer : mlp->layers) {
    if (!ReadMatrix(reader, &layer.weight)) return false;
    if (!ReadMatrix(reader, &layer.bias)) return false;
    layer.activation = reader.ReadI32();
    if (!reader.ok() || layer.activation < 0 || layer.activation > 4) {
      reader.Fail();
      return false;
    }
    if (layer.bias.rows() != 1 || layer.bias.cols() != layer.weight.cols()) {
      reader.Fail();
      return false;
    }
  }
  return true;
}

void WriteQuantizedLayer(BinaryWriter& writer,
                         const QuantizedMlp::Layer& layer) {
  const auto& w = layer.weights;
  writer.WriteU32(static_cast<uint32_t>(w.k));
  writer.WriteU32(static_cast<uint32_t>(w.n));
  writer.WriteFloatArray(w.scale_data(), static_cast<size_t>(w.n));
  // Unpadded column-major int8 payload: k bytes per column. The kernel's
  // packed tile layout (and its zero-point correction table) is an
  // in-memory concern, rebuilt on load — so the file format survives
  // future microkernel layout changes.
  writer.WriteU32(static_cast<uint32_t>(w.k) * static_cast<uint32_t>(w.n));
  std::string bytes(static_cast<size_t>(w.k) * w.n, '\0');
  tensor::kernels::UnpackQuantizedWeights(
      w, reinterpret_cast<signed char*>(&bytes[0]));
  writer.WriteString(bytes);
  WriteMatrix(writer, layer.bias);
  writer.WriteI32(layer.activation);
  writer.WriteF32(layer.max_abs_error);
}

bool ReadQuantizedLayer(BinaryReader& reader, QuantizedMlp::Layer* layer) {
  const uint32_t k = reader.ReadU32();
  const uint32_t n = reader.ReadU32();
  if (!reader.ok() || k > kMaxQuantDim || n > kMaxQuantDim) {
    reader.Fail();
    return false;
  }
  std::vector<float> scales;
  if (!reader.ReadFloatArray(&scales) || scales.size() != n) {
    reader.Fail();
    return false;
  }
  for (const float scale : scales) {
    if (!std::isfinite(scale) || scale < 0.0f) {
      reader.Fail();
      return false;
    }
  }
  const uint32_t declared = reader.ReadU32();
  const std::string bytes = reader.ReadString();
  // The int8 payload declares its element count twice (once explicitly,
  // once as the string length); any disagreement with k * n means the
  // section is corrupt, so reject instead of reinterpreting garbage.
  if (!reader.ok() || declared != k * n ||
      bytes.size() != static_cast<size_t>(k) * n) {
    reader.Fail();
    return false;
  }
  // Out-of-range magnitudes would break the kernel's saturation-freedom
  // proof, so a corrupt byte is rejected here, not scored with.
  for (const char b : bytes) {
    const auto v = static_cast<signed char>(b);
    if (v > tensor::kernels::kQuantWeightMax ||
        v < -tensor::kernels::kQuantWeightMax) {
      reader.Fail();
      return false;
    }
  }
  if (!ReadMatrix(reader, &layer->bias)) return false;
  layer->activation = reader.ReadI32();
  layer->max_abs_error = reader.ReadF32();
  if (!reader.ok() || layer->activation < 0 || layer->activation > 4 ||
      layer->bias.rows() != 1 ||
      layer->bias.cols() != static_cast<int>(n)) {
    reader.Fail();
    return false;
  }
  layer->weights = tensor::kernels::BuildQuantizedWeights(
      static_cast<int>(k), static_cast<int>(n),
      reinterpret_cast<const signed char*>(bytes.data()), scales.data(),
      layer->max_abs_error);
  return true;
}

}  // namespace

void WriteQuantizedMlp(BinaryWriter& writer, const QuantizedMlp& mlp) {
  // The whole section is length-prefixed so the loader can verify that
  // what it consumed agrees byte-for-byte with what was declared.
  BinaryWriter body;
  body.WriteU32(static_cast<uint32_t>(mlp.layers.size()));
  for (const auto& layer : mlp.layers) WriteQuantizedLayer(body, layer);
  writer.WriteU32(static_cast<uint32_t>(body.size()));
  writer.WriteString(body.buffer());
}

bool ReadQuantizedMlp(BinaryReader& reader, QuantizedMlp* mlp) {
  const uint32_t declared_length = reader.ReadU32();
  const std::string body = reader.ReadString();
  if (!reader.ok() || body.size() != declared_length) {
    reader.Fail();
    return false;
  }
  BinaryReader section(body);
  const uint32_t num_layers = section.ReadU32();
  if (!section.ok() || num_layers > kMaxQuantLayers) {
    reader.Fail();
    return false;
  }
  mlp->layers.assign(num_layers, {});
  for (auto& layer : mlp->layers) {
    if (!ReadQuantizedLayer(section, &layer)) {
      reader.Fail();
      return false;
    }
  }
  // Trailing bytes inside the section mean its declared length disagrees
  // with its actual content — corrupt, not just "extra".
  if (!section.ok() || section.remaining() != 0) {
    reader.Fail();
    return false;
  }
  return true;
}

Status WriteBundleV3(const std::string& path, const InferenceBundle& bundle) {
  BinaryWriter writer;
  writer.WriteString(bundle.display_name);
  WriteFrozenMlp(writer, bundle.patient_fc);
  WriteFrozenMlp(writer, bundle.decoder);
  WriteMatrix(writer, bundle.final_drug_reps);
  WriteMatrix(writer, bundle.cluster_centroids);
  WriteMatrix(writer, bundle.cluster_treatment);
  WriteSignedGraph(writer, bundle.ddi);
  WriteStringVector(writer, bundle.drug_names);
  writer.WriteU8(bundle.mlp_decoder ? 1 : 0);
  writer.WriteU8(bundle.use_treatment_feature ? 1 : 0);
  writer.WriteI32(bundle.hidden_dim);
  writer.WriteF64(bundle.ms_alpha);
  writer.WriteU8(static_cast<uint8_t>(bundle.ms_explainer));
  // Version 3: the pre-quantized int8 MLPs ride along. Saving a
  // hand-assembled bundle that was never quantized writes the sections
  // empty; the reader rebuilds them from the float weights instead.
  const bool has_quantized =
      !bundle.patient_fc.quantized.empty() && !bundle.decoder.quantized.empty();
  writer.WriteU8(has_quantized ? 1 : 0);
  if (has_quantized) {
    WriteQuantizedMlp(writer, bundle.patient_fc.quantized);
    WriteQuantizedMlp(writer, bundle.decoder.quantized);
  }
  return WriteFramedFile(path, kFormatInferenceBundle, kBundleVersion, writer.buffer());
}

Status ReadBundleV3(const std::string& path, InferenceBundle* bundle) {
  InferenceBundle fresh;
  fresh.quantization = bundle->quantization;
  *bundle = std::move(fresh);

  std::string payload;
  uint32_t version = 0;
  if (Status status = ReadFramedFile(path, kFormatInferenceBundle, kBundleVersion,
                                     &payload, &version);
      !status.ok) {
    return status;
  }
  BinaryReader reader(payload);
  bundle->display_name = reader.ReadString();
  if (!ReadFrozenMlp(reader, &bundle->patient_fc)) {
    return Status::Error("malformed patient encoder: " + path);
  }
  if (!ReadFrozenMlp(reader, &bundle->decoder)) {
    return Status::Error("malformed decoder: " + path);
  }
  if (!ReadMatrix(reader, &bundle->final_drug_reps) ||
      !ReadMatrix(reader, &bundle->cluster_centroids) ||
      !ReadMatrix(reader, &bundle->cluster_treatment) ||
      !ReadSignedGraph(reader, &bundle->ddi) ||
      !ReadStringVector(reader, &bundle->drug_names)) {
    return Status::Error("malformed bundle payload: " + path);
  }
  bundle->mlp_decoder = reader.ReadU8() != 0;
  bundle->use_treatment_feature = reader.ReadU8() != 0;
  bundle->hidden_dim = reader.ReadI32();
  bundle->ms_alpha = reader.ReadF64();
  bundle->ms_explainer = version >= 2 ? reader.ReadU8() : 0;
  bool has_quantized = false;
  if (version >= 3 && reader.ok()) has_quantized = reader.ReadU8() != 0;
  if (has_quantized &&
      (!ReadQuantizedMlp(reader, &bundle->patient_fc.quantized) ||
       !ReadQuantizedMlp(reader, &bundle->decoder.quantized))) {
    return Status::Error("malformed quantized section: " + path);
  }
  if (!reader.ok() || reader.remaining() != 0) {
    return Status::Error("malformed bundle payload: " + path);
  }
  if (Status status = ValidateLoadedBundle(*bundle, path, has_quantized);
      !status.ok) {
    return status;
  }
  bundle->EnsureQuantized();
  return Status::Ok();
}

}  // namespace dssddi::io
