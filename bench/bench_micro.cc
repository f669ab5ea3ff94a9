// Performance microbenchmarks (google-benchmark) for the library's hot
// paths: graph algorithms (truss decomposition, CTC and Steiner queries),
// the Medical Support explanation and its serving memo, the HTTP edge's
// JSON codec, served scoring and top-k selection, the tensor engine
// (dense/sparse matmul, autograd round trip), K-means, TransE and one
// training epoch of each GNN module.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algo/ctc.h"
#include "algo/densest.h"
#include "algo/kmeans.h"
#include "algo/steiner.h"
#include "algo/truss.h"
#include "core/ddi_module.h"
#include "core/md_module.h"
#include "core/ms_module.h"
#include "core/suggestion_model.h"
#include "data/catalog.h"
#include "data/chronic_cohort.h"
#include "data/ddi_database.h"
#include "graph/graph.h"
#include "io/inference_bundle.h"
#include "kg/transe.h"
#include "net/json.h"
#include "net/suggest_frontend.h"
#include "serve/explanation_memo.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"
#include "tensor/loss.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "eval/significance.h"
#include "io/serialize.h"
#include "util/csv.h"
#include "util/rng.h"

namespace {

using namespace dssddi;

graph::Graph RandomGraph(int n, double p, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) edges.emplace_back(static_cast<int>(rng.NextBelow(v)), v);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return graph::Graph::FromEdges(n, edges);
}

void BM_DenseMatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  tensor::Matrix a(n, n);
  tensor::Matrix b(n, n);
  for (float& v : a.data()) v = static_cast<float>(rng.Normal());
  for (float& v : b.data()) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_SpMM(benchmark::State& state) {
  const int n = 4096;
  util::Rng rng(2);
  std::vector<tensor::SparseEntry> entries;
  for (int i = 0; i < 16 * n; ++i) {
    entries.push_back({static_cast<int>(rng.NextBelow(n)),
                       static_cast<int>(rng.NextBelow(n)), 1.0f});
  }
  const auto sparse = tensor::CsrMatrix::FromEntries(n, n, std::move(entries));
  tensor::Matrix dense(n, 64);
  for (float& v : dense.data()) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse.Multiply(dense));
  }
  state.SetItemsProcessed(state.iterations() * sparse.nnz() * 64);
}
BENCHMARK(BM_SpMM);

void BM_AutogradLinearRoundTrip(benchmark::State& state) {
  util::Rng rng(3);
  tensor::Linear layer(128, 64, rng, tensor::Activation::kRelu);
  tensor::Matrix x(256, 128);
  for (float& v : x.data()) v = static_cast<float>(rng.Normal());
  tensor::Matrix y(256, 64, 0.5f);
  tensor::AdamOptimizer optimizer(layer.Parameters(), 1e-3f);
  for (auto _ : state) {
    optimizer.ZeroGrad();
    auto loss = tensor::MseLoss(layer.Forward(tensor::Tensor::Constant(x)),
                                tensor::Tensor::Constant(y));
    loss.Backward();
    optimizer.Step();
  }
}
BENCHMARK(BM_AutogradLinearRoundTrip);

void BM_TrussDecomposition(benchmark::State& state) {
  const auto g = RandomGraph(static_cast<int>(state.range(0)), 0.05, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::TrussDecomposition(g));
  }
  state.SetLabel(std::to_string(g.num_edges()) + " edges");
}
BENCHMARK(BM_TrussDecomposition)->Arg(100)->Arg(300)->Arg(600);

/// CTC queries of `query_size` drugs on the 86-drug interaction
/// skeleton. `indexed` is the served path: the skeleton's truss numbers
/// are computed once, outside the loop, as MsModule does per model
/// snapshot.
void CtcQueries(benchmark::State& state, bool indexed, int query_size) {
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  const auto skeleton = ddi.InteractionSkeleton();
  const std::vector<int> truss = algo::TrussDecomposition(skeleton);
  util::Rng rng(5);
  for (auto _ : state) {
    std::vector<int> query;
    for (int q : rng.SampleWithoutReplacement(skeleton.num_vertices(), query_size)) {
      query.push_back(q);
    }
    benchmark::DoNotOptimize(indexed
                                 ? algo::FindClosestTrussCommunity(skeleton, truss, query)
                                 : algo::FindClosestTrussCommunity(skeleton, query));
  }
}

void BM_CtcQuery(benchmark::State& state) { CtcQueries(state, true, 3); }
BENCHMARK(BM_CtcQuery);

void BM_CtcQueryNoIndex(benchmark::State& state) { CtcQueries(state, false, 3); }
BENCHMARK(BM_CtcQueryNoIndex);

/// 16-drug queries: an 80-vertex expansion limit, so the candidate
/// subgraph's adjacency rows span two 64-bit words.
void BM_CtcQueryWide(benchmark::State& state) { CtcQueries(state, true, 16); }
BENCHMARK(BM_CtcQueryWide);

/// The Steiner step of a served 3-drug CTC query on its own: truss
/// distance over the 86-drug skeleton, truss numbers computed once.
void BM_SteinerQuery(benchmark::State& state) {
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  const auto skeleton = ddi.InteractionSkeleton();
  const std::vector<int> truss = algo::TrussDecomposition(skeleton);
  const int max_truss = *std::max_element(truss.begin(), truss.end());
  util::Rng rng(5);
  for (auto _ : state) {
    std::vector<int> query;
    for (int q : rng.SampleWithoutReplacement(skeleton.num_vertices(), 3)) {
      query.push_back(q);
    }
    std::sort(query.begin(), query.end());
    benchmark::DoNotOptimize(algo::TrussDistanceSteinerTree(skeleton, query, truss, max_truss));
  }
}
BENCHMARK(BM_SteinerQuery);

/// The whole served explanation of a 3-drug suggestion: CTC, signs of
/// its edges, the interactions within and outward, and Eq. 19.
void BM_MsExplain(benchmark::State& state) {
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  const core::MsModule ms(ddi);
  util::Rng rng(5);
  for (auto _ : state) {
    std::vector<int> drugs;
    for (int d : rng.SampleWithoutReplacement(ddi.num_vertices(), 3)) drugs.push_back(d);
    benchmark::DoNotOptimize(ms.Explain(drugs));
  }
}
BENCHMARK(BM_MsExplain);

/// `count` distinct 3-drug vectors, drawn as BM_MsExplain draws its own.
std::vector<std::vector<int>> DistinctDrugVectors(int num_drugs, size_t count) {
  util::Rng rng(5);
  std::set<std::vector<int>> seen;
  std::vector<std::vector<int>> vectors;
  while (vectors.size() < count) {
    std::vector<int> drugs = rng.SampleWithoutReplacement(num_drugs, 3);
    if (seen.insert(drugs).second) vectors.push_back(std::move(drugs));
  }
  return vectors;
}

/// A served explanation answered by the snapshot's memo: the lookup and
/// the decode of one stored entry, cycling over 64 stored vectors.
void BM_ExplainMemoHit(benchmark::State& state) {
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  const core::MsModule ms(ddi);
  serve::ExplanationMemo memo(ms);
  const auto vectors = DistinctDrugVectors(ddi.num_vertices(), 64);
  bool hit = false;
  for (const auto& drugs : vectors) memo.Explain(drugs, &hit);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo.Explain(vectors[next], &hit));
    if (!hit) {
      state.SkipWithError("a stored vector missed");
      break;
    }
    next = (next + 1) % vectors.size();
  }
}
BENCHMARK(BM_ExplainMemoHit);

/// A vector the memo has never seen: MsModule::Explain plus the memo's
/// lookup, encode and insert. Each pass over kCapacity distinct vectors
/// starts from an empty memo (untimed), so every insert stays under the
/// bound.
void BM_ExplainMemoMiss(benchmark::State& state) {
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  const core::MsModule ms(ddi);
  const auto vectors =
      DistinctDrugVectors(ddi.num_vertices(), serve::ExplanationMemo::kCapacity);
  auto memo = std::make_unique<serve::ExplanationMemo>(ms);
  size_t next = 0;
  bool hit = false;
  for (auto _ : state) {
    if (next == vectors.size()) {
      state.PauseTiming();
      memo = std::make_unique<serve::ExplanationMemo>(ms);
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(memo->Explain(vectors[next++], &hit));
    if (hit) {
      state.SkipWithError("a never-seen vector hit");
      break;
    }
  }
}
BENCHMARK(BM_ExplainMemoMiss);

/// Parsing a doctor-facing /v1/suggest body: 71 cohort features printed
/// %.9g (as clients send them), k and explain; cycles over 64 patients.
void BM_JsonParseSuggestBody(benchmark::State& state) {
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  data::ChronicCohortOptions cohort;
  cohort.num_males = 40;
  cohort.num_females = 24;
  const data::ChronicCohortGenerator generator(data::Catalog::Instance(), ddi, cohort);
  const tensor::Matrix features = data::ChronicCohortGenerator::FeatureMatrix(generator.Generate());
  std::vector<std::string> bodies;
  size_t bytes = 0;
  for (int patient = 0; patient < features.rows(); ++patient) {
    net::JsonWriter body;
    body.BeginObject().Key("patient_id").Int(patient).Key("features").BeginArray();
    for (int j = 0; j < features.cols(); ++j) body.Float(features.At(patient, j));
    body.EndArray().Key("k").Int(3).Key("explain").Bool(true).EndObject();
    bytes += body.str().size();
    bodies.push_back(body.str());
  }
  size_t next = 0;
  net::JsonValue document;
  std::string error;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ParseJson(bodies[next], &document, &error));
    next = (next + 1) % bodies.size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes / bodies.size()));
}
BENCHMARK(BM_JsonParseSuggestBody);

/// Writing an explained 3-drug answer: drugs, binary32 scores, catalog
/// names and the MS module's explanation of those drugs.
void BM_SuggestionToJson(benchmark::State& state) {
  const data::Catalog& catalog = data::Catalog::Instance();
  const auto ddi = data::GenerateDdiDatabase(catalog);
  const core::MsModule ms(ddi);
  std::vector<std::string> names;
  for (const data::DrugInfo& drug : catalog.drugs()) names.push_back(drug.name);
  util::Rng rng(5);
  std::vector<core::Suggestion> suggestions(64);
  for (core::Suggestion& suggestion : suggestions) {
    for (int d : rng.SampleWithoutReplacement(ddi.num_vertices(), 3)) {
      suggestion.drugs.push_back(d);
      suggestion.scores.push_back(static_cast<float>(rng.NextDouble()));
    }
    suggestion.explanation = ms.Explain(suggestion.drugs);
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::SuggestionToJson(suggestions[next], names, 1, 12345, true, 987654321));
    next = (next + 1) % suggestions.size();
  }
}
BENCHMARK(BM_SuggestionToJson);

/// A bundle with the served model's shapes (71 cohort features, 86
/// drugs, hidden 64, MLP decoder with the treatment feature, 15
/// treatment clusters) and random weights: scoring cost depends on the
/// shapes, not on the trained values.
io::InferenceBundle ServingShapedBundle() {
  constexpr int kFeatures = 71, kDrugs = 86, kHidden = 64, kClusters = 15;
  util::Rng rng(9);
  const auto random = [&rng](int rows, int cols, double scale) {
    tensor::Matrix m(rows, cols);
    for (float& v : m.data()) v = static_cast<float>(rng.Normal() * scale);
    return m;
  };
  const auto layer = [&](int in, int out, tensor::Activation activation) {
    io::FrozenMlp::Layer l;
    l.weight = random(in, out, 1.0 / std::sqrt(static_cast<double>(in)));
    l.bias = random(1, out, 0.1);
    l.activation = static_cast<int>(activation);
    return l;
  };
  io::InferenceBundle bundle;
  bundle.hidden_dim = kHidden;
  bundle.patient_fc.layers = {layer(kFeatures, kHidden, tensor::Activation::kLeakyRelu),
                              layer(kHidden, kHidden, tensor::Activation::kLeakyRelu)};
  bundle.decoder.layers = {layer(kHidden + 1, kHidden, tensor::Activation::kRelu),
                           layer(kHidden, 1, tensor::Activation::kNone)};
  bundle.final_drug_reps = random(kDrugs, kHidden, 1.0);
  bundle.cluster_centroids = random(kClusters, kFeatures, 1.0);
  bundle.cluster_treatment = random(kClusters, kDrugs, 1.0);
  bundle.EnsureQuantized();
  return bundle;
}

/// Runs `body(state)` on a new thread. The server scores on worker
/// threads, which glibc serves from their own malloc arena, not the main
/// thread's heap; timing on the main thread measures the other allocator.
template <typename Body>
void OnWorkerThread(benchmark::State& state, Body body) {
  std::thread worker([&] { body(state); });
  worker.join();
}

/// One served scoring batch of `range(0)` patients in the deployed
/// configuration (int8 kernels, blocked backend): patient_fc, the
/// per-patient decoder tiles and the sigmoid. Items are patient rows.
void BM_PredictScores(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  io::InferenceBundle bundle = ServingShapedBundle();
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  util::Rng rng(10);
  tensor::Matrix x(batch, bundle.cluster_centroids.cols());
  for (float& v : x.data()) v = static_cast<float>(rng.Normal());
  const std::string saved_backend = tensor::kernels::ActiveBackendName();
  tensor::kernels::SetBackend("blocked");
  OnWorkerThread(state, [&](benchmark::State& st) {
    for (auto _ : st) benchmark::DoNotOptimize(bundle.PredictScores(x));
  });
  tensor::kernels::SetBackend(saved_backend);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PredictScores)->Arg(1)->Arg(4)->Arg(32);

/// The served top-10 of one 86-drug score row, cycling over 64 rows of
/// sigmoid scores.
void BM_TopKDrugs(benchmark::State& state) {
  util::Rng rng(11);
  tensor::Matrix scores(64, 86);
  for (float& v : scores.data()) {
    v = static_cast<float>(1.0 / (1.0 + std::exp(-2.0 * rng.Normal())));
  }
  OnWorkerThread(state, [&](benchmark::State& st) {
    int row = 0;
    for (auto _ : st) {
      benchmark::DoNotOptimize(core::TopKDrugs(scores, row, 10));
      row = (row + 1) % scores.rows();
    }
  });
}
BENCHMARK(BM_TopKDrugs);

void BM_KMeans(benchmark::State& state) {
  util::Rng rng(6);
  tensor::Matrix points(2000, 71);
  for (float& v : points.data()) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    util::Rng local(7);
    algo::KMeansOptions options;
    options.max_iterations = 20;
    benchmark::DoNotOptimize(algo::KMeans(points, 15, local, options));
  }
}
BENCHMARK(BM_KMeans);

void BM_TransEEpoch(benchmark::State& state) {
  util::Rng rng(8);
  kg::TripleStore store;
  for (int e = 0; e < 220; ++e) store.AddEntity("e" + std::to_string(e));
  const int rel = store.AddRelation("r");
  for (int t = 0; t < 800; ++t) {
    store.AddTriple(static_cast<int>(rng.NextBelow(220)), rel,
                    static_cast<int>(rng.NextBelow(220)));
  }
  kg::TransEConfig config;
  config.embedding_dim = 64;
  kg::TransEModel model(store.num_entities(), store.num_relations(), config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.TrainEpoch(store, rng));
  }
}
BENCHMARK(BM_TransEEpoch);

void BM_DdigcnEpoch(benchmark::State& state) {
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  core::DdiModuleConfig config;
  config.backbone = core::BackboneKind::kSgcn;
  config.epochs = 1;
  core::DdiModule module(ddi, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.Train());
  }
}
BENCHMARK(BM_DdigcnEpoch);

void BM_MdgcnEpoch(benchmark::State& state) {
  util::Rng rng(9);
  const int patients = 512;
  const int drugs = 86;
  tensor::Matrix x(patients, 71);
  for (float& v : x.data()) v = static_cast<float>(rng.NextDouble());
  tensor::Matrix y(patients, drugs, 0.0f);
  for (int i = 0; i < patients; ++i) {
    for (int k = 0; k < 3; ++k) {
      y.At(i, static_cast<int>(rng.NextBelow(drugs))) = 1.0f;
    }
  }
  const auto ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  core::MdModuleConfig config;
  config.epochs = 1;
  config.counterfactual.num_clusters = 15;
  core::MdModule module(x, y, tensor::Matrix::Identity(drugs), ddi,
                        tensor::Matrix(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.Train());
  }
}
BENCHMARK(BM_MdgcnEpoch);

}  // namespace


void BM_AnchoredDensestSubgraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const graph::Graph g = RandomGraph(n, 8.0 / n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::AnchoredDensestSubgraph(g, {0, n / 2, n - 1}));
  }
}
BENCHMARK(BM_AnchoredDensestSubgraph)->Arg(100)->Arg(600);

void BM_ParseCsv(benchmark::State& state) {
  // ~2000 rows x 16 numeric columns with occasional quoting.
  util::CsvWriter writer([] {
    std::vector<std::string> header;
    for (int j = 0; j < 16; ++j) header.push_back("c" + std::to_string(j));
    return header;
  }());
  util::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::string> row;
    for (int j = 0; j < 16; ++j) {
      row.push_back(j == 0 && i % 7 == 0 ? "quoted, value"
                                         : std::to_string(rng.Uniform(0.0, 1.0)));
    }
    writer.AddRow(std::move(row));
  }
  const std::string text = writer.ToString();
  for (auto _ : state) {
    util::CsvDocument document;
    util::ParseCsv(text, &document);
    benchmark::DoNotOptimize(document);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseCsv);

void BM_BootstrapRecall(benchmark::State& state) {
  util::Rng rng(9);
  tensor::Matrix scores(800, 86);
  tensor::Matrix truth(800, 86);
  for (float& v : scores.data()) v = static_cast<float>(rng.Uniform(0.0, 1.0));
  for (float& v : truth.data()) v = rng.Bernoulli(0.05) ? 1.0f : 0.0f;
  eval::BootstrapOptions options;
  options.num_resamples = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::BootstrapRankingMetrics(scores, truth, 6, options));
  }
}
BENCHMARK(BM_BootstrapRecall);

void BM_MatrixSerializeRoundTrip(benchmark::State& state) {
  util::Rng rng(10);
  tensor::Matrix matrix(512, 128);
  for (float& v : matrix.data()) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    io::BinaryWriter writer;
    io::WriteMatrix(writer, matrix);
    io::BinaryReader reader(writer.buffer());
    tensor::Matrix loaded;
    io::ReadMatrix(reader, &loaded);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(matrix.size()) * 4);
}
BENCHMARK(BM_MatrixSerializeRoundTrip);

BENCHMARK_MAIN();
