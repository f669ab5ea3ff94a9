#include "io/inference_bundle.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/ms_module.h"
#include "core/suggestion_model.h"
#include "obs/kernel_timing.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/nn.h"
#include "util/logging.h"

namespace dssddi::io {
namespace {

FrozenMlp FreezeMlp(const tensor::Mlp& mlp) {
  FrozenMlp frozen;
  frozen.layers.reserve(mlp.layers().size());
  for (const auto& layer : mlp.layers()) {
    FrozenMlp::Layer out;
    out.weight = layer.weight().value();
    out.bias = layer.bias().value();
    out.activation = static_cast<int>(layer.activation());
    frozen.layers.push_back(std::move(out));
  }
  return frozen;
}

// Nearest-centroid treatment row, matching MdModule::TreatmentRow.
int NearestCluster(const tensor::Matrix& centroids, const float* features) {
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (int c = 0; c < centroids.rows(); ++c) {
    double dist = 0.0;
    const float* centroid = centroids.RowPtr(c);
    for (int j = 0; j < centroids.cols(); ++j) {
      const double d = static_cast<double>(features[j]) - centroid[j];
      dist += d * d;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

}  // namespace

tensor::Matrix FrozenMlp::Forward(const tensor::Matrix& x) const {
  return Forward(x, tensor::kernels::ActiveQuantMode());
}

tensor::Matrix FrozenMlp::Forward(const tensor::Matrix& x,
                                  tensor::kernels::QuantMode mode) const {
  // One fused kernel pass per layer: the bias add and activation ride
  // the accumulation epilogue, so nothing is allocated beyond the layer
  // output itself. On the float path the arithmetic order matches the
  // old MatMul -> AddRowBroadcast -> activate chain, hence bit-identical
  // on the reference backend.
  //
  // Under int8, each wide layer dynamically quantizes its input rows
  // (group-wise, row-local) and runs the fused int8 kernel; layers
  // narrower than kQuantMinColumns (the logit head) stay float — a
  // quantized GEMV cannot amortize the activation-quantization pass and
  // its precision gates the final ranking. The policy depends only on
  // layer shape, so it is deterministic across hosts and reloads.
  const bool use_int8 = mode == tensor::kernels::QuantMode::kInt8 &&
                        quantized.layers.size() == layers.size() &&
                        !layers.empty();
  // The timing shim attributes kernel nanoseconds to whatever trace
  // window the serving layer opened on this thread; without an open
  // window it is a null-check per layer. The int8 branch below bypasses
  // GemmBackend entirely, so it carries its own ScopedKernelTimer
  // (covering the activation-quantization pass too — that work exists
  // only because the kernel is quantized, so it is kernel time).
  const obs::TimedGemmBackend gemm(tensor::kernels::ActiveBackend());
  tensor::kernels::QuantizedRows rows;  // reused across quantized layers
  tensor::Matrix h;
  const tensor::Matrix* cur = &x;  // no copy of the input row block
  for (size_t li = 0; li < layers.size(); ++li) {
    const Layer& layer = layers[li];
    DSSDDI_CHECK(cur->cols() == layer.weight.rows())
        << "frozen layer expects " << layer.weight.rows() << " features, got "
        << cur->cols();
    tensor::Matrix next(cur->rows(), layer.weight.cols());
    if (use_int8 &&
        layer.weight.cols() >= tensor::kernels::kQuantMinColumns) {
      const QuantizedMlp::Layer& q = quantized.layers[li];
      obs::ScopedKernelTimer kernel_timer;
      tensor::kernels::QuantizeRowsSymmetric(cur->ReadPtr(), cur->rows(),
                                             cur->cols(), &rows);
      tensor::kernels::QGemmBiasAct(
          rows, q.weights, q.bias.ReadPtr(), next.data().data(),
          static_cast<tensor::kernels::EpilogueActivation>(q.activation));
    } else {
      gemm.GemmBiasAct(
          cur->rows(), cur->cols(), layer.weight.cols(), cur->ReadPtr(),
          layer.weight.ReadPtr(), layer.bias.ReadPtr(),
          next.data().data(),
          static_cast<tensor::kernels::EpilogueActivation>(layer.activation));
    }
    h = std::move(next);
    cur = &h;
  }
  if (layers.empty()) return x;
  return h;
}

void FrozenMlp::BuildQuantized() { quantized = QuantizeMlp(*this); }

tensor::kernels::QuantMode InferenceBundle::EffectiveQuantMode() const {
  if (quantization == kQuantizeAuto) return tensor::kernels::ActiveQuantMode();
  return static_cast<tensor::kernels::QuantMode>(quantization);
}

void InferenceBundle::EnsureQuantized() {
  if (patient_fc.quantized.empty()) patient_fc.BuildQuantized();
  if (decoder.quantized.empty()) decoder.BuildQuantized();
}

tensor::Matrix InferenceBundle::PredictScores(const tensor::Matrix& x) const {
  DSSDDI_CHECK(!final_drug_reps.empty()) << "bundle has no drug representations";
  DSSDDI_CHECK(x.cols() == cluster_centroids.cols())
      << "feature width " << x.cols() << " != trained width "
      << cluster_centroids.cols();
  const tensor::kernels::QuantMode mode = EffectiveQuantMode();
  const int num_patients = x.rows();
  const int v_count = num_drugs();
  const tensor::Matrix h_patients = patient_fc.Forward(x, mode);

  const int interaction_dim = mlp_decoder ? hidden_dim : 1;
  tensor::Matrix decoder_input(num_patients * v_count, interaction_dim + 1);
  for (int i = 0; i < num_patients; ++i) {
    const int cluster = NearestCluster(cluster_centroids, x.RowPtr(i));
    const float* treatment = cluster_treatment.RowPtr(cluster);
    const float* hp = h_patients.RowPtr(i);
    for (int v = 0; v < v_count; ++v) {
      float* row = decoder_input.RowPtr(i * v_count + v);
      const float* hd = final_drug_reps.RowPtr(v);
      if (mlp_decoder) {
        for (int j = 0; j < hidden_dim; ++j) row[j] = hp[j] * hd[j];
      } else {
        double acc = 0.0;
        for (int j = 0; j < hidden_dim; ++j) acc += static_cast<double>(hp[j]) * hd[j];
        row[0] = static_cast<float>(acc);
      }
      row[interaction_dim] = use_treatment_feature ? treatment[v] : 0.0f;
    }
  }
  const tensor::Matrix logits = decoder.Forward(decoder_input, mode);
  tensor::Matrix scores(num_patients, v_count);
  for (int i = 0; i < num_patients; ++i) {
    for (int v = 0; v < v_count; ++v) {
      scores.At(i, v) = 1.0f / (1.0f + std::exp(-logits.At(i * v_count + v, 0)));
    }
  }
  return scores;
}

core::Suggestion InferenceBundle::Suggest(const tensor::Matrix& x, int k) const {
  tensor::Matrix first_row(1, x.cols());
  std::copy(x.RowPtr(0), x.RowPtr(0) + x.cols(), first_row.RowPtr(0));
  const tensor::Matrix scores = PredictScores(first_row);

  core::Suggestion suggestion;
  suggestion.drugs = core::TopKDrugs(scores, 0, k);
  suggestion.scores.reserve(suggestion.drugs.size());
  for (int d : suggestion.drugs) suggestion.scores.push_back(scores.At(0, d));
  // A v4 bundle carries its interaction skeleton as a CSR view, so the
  // explainer never re-sorts the DDI edges; heap bundles derive it here
  // exactly as before.
  const core::MsModule ms =
      has_ms_skeleton
          ? core::MsModule(ddi, ms_skeleton, ms_alpha,
                           static_cast<core::ExplainerKind>(ms_explainer))
          : core::MsModule(ddi, ms_alpha,
                           static_cast<core::ExplainerKind>(ms_explainer));
  suggestion.explanation = ms.Explain(suggestion.drugs);
  return suggestion;
}

InferenceBundle ExtractInferenceBundle(const core::DssddiSystem& system,
                                       const data::SuggestionDataset& dataset) {
  const core::MdModule* md = system.md_module();
  DSSDDI_CHECK(md != nullptr) << "ExtractInferenceBundle before Fit";

  InferenceBundle bundle;
  bundle.display_name = system.name();
  bundle.patient_fc = FreezeMlp(md->patient_fc());
  bundle.decoder = FreezeMlp(md->decoder());
  bundle.final_drug_reps = md->DrugRepresentations();
  bundle.cluster_centroids = md->cluster_centroids();
  bundle.cluster_treatment = md->cluster_treatment();
  bundle.ddi = dataset.ddi;
  bundle.drug_names = dataset.drug_names;
  bundle.mlp_decoder = md->config().decoder == core::MdDecoder::kMlp;
  bundle.use_treatment_feature = md->config().use_treatment_feature;
  bundle.hidden_dim = md->config().hidden_dim;
  bundle.ms_alpha = system.config().ms_alpha;
  bundle.ms_explainer = static_cast<int>(system.config().ms_explainer);
  bundle.EnsureQuantized();
  return bundle;
}

Status ValidateLoadedBundle(const InferenceBundle& bundle,
                            const std::string& path, bool has_quantized) {
  if (bundle.ms_explainer < 0 || bundle.ms_explainer > 1) {
    return Status::Error("malformed bundle payload: " + path);
  }
  // Cross-field consistency so a loaded bundle cannot index out of range.
  if (bundle.ddi.num_vertices() != bundle.num_drugs() ||
      bundle.cluster_treatment.cols() != bundle.num_drugs() ||
      bundle.final_drug_reps.cols() != bundle.hidden_dim ||
      (!bundle.drug_names.empty() &&
       static_cast<int>(bundle.drug_names.size()) != bundle.num_drugs())) {
    return Status::Error("inconsistent bundle dimensions: " + path);
  }
  // The byte-level checks in each loader (section length prefixes on v3,
  // extent/alignment validation on v4) catch corruption; these shape
  // checks catch semantically impossible bundles that would otherwise
  // abort (layer-width CHECK) or read out of bounds (a decoder emitting
  // zero columns) at scoring time. Untrusted files must fail here, at
  // load, with a Status.
  const auto chain_ok = [](const FrozenMlp& mlp, int in_width, int out_width) {
    int width = in_width;
    for (const auto& layer : mlp.layers) {
      if (layer.weight.rows() != width) return false;
      width = layer.weight.cols();
    }
    return out_width < 0 || width == out_width;
  };
  const int feature_width = bundle.cluster_centroids.cols();
  const int interaction_dim = bundle.mlp_decoder ? bundle.hidden_dim : 1;
  if (!chain_ok(bundle.patient_fc, feature_width, bundle.hidden_dim) ||
      !chain_ok(bundle.decoder, interaction_dim + 1, 1)) {
    return Status::Error("inconsistent bundle layer shapes: " + path);
  }
  // A shipped quantized section must describe exactly the float layers
  // it rides with; on any disagreement (or for pre-v3 files) the caller
  // rebuilds from the float weights — same deterministic bits either way.
  const auto quantized_matches = [](const FrozenMlp& mlp) {
    if (mlp.quantized.layers.size() != mlp.layers.size()) return false;
    for (size_t i = 0; i < mlp.layers.size(); ++i) {
      const auto& f = mlp.layers[i];
      const auto& q = mlp.quantized.layers[i];
      if (q.weights.k != f.weight.rows() || q.weights.n != f.weight.cols() ||
          q.activation != f.activation) {
        return false;
      }
    }
    return true;
  };
  if (has_quantized && (!quantized_matches(bundle.patient_fc) ||
                        !quantized_matches(bundle.decoder))) {
    return Status::Error("quantized section disagrees with float layers: " + path);
  }
  return Status::Ok();
}

}  // namespace dssddi::io
