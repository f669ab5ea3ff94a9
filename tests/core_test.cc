#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/backbones.h"
#include "core/counterfactual.h"
#include "core/ddi_module.h"
#include "core/dssddi_system.h"
#include "core/md_module.h"
#include "core/ms_module.h"
#include "data/catalog.h"
#include "data/ddi_database.h"
#include "gtest/gtest.h"
#include "test_support.h"

namespace dssddi::core {
namespace {

using graph::EdgeSign;
using graph::SignedGraph;
using tensor::Matrix;

SignedGraph SmallDdi() {
  return SignedGraph(6, {{0, 1, EdgeSign::kSynergistic},
                         {1, 2, EdgeSign::kSynergistic},
                         {0, 2, EdgeSign::kSynergistic},
                         {2, 3, EdgeSign::kAntagonistic},
                         {3, 4, EdgeSign::kAntagonistic},
                         {0, 5, EdgeSign::kAntagonistic}});
}

// ---------- Backbones ----------

class BackboneShapeTest : public ::testing::TestWithParam<BackboneKind> {};

TEST_P(BackboneShapeTest, OutputsOneRowPerDrugAndTrainableParams) {
  util::Rng rng(1);
  SignedGraph ddi = SmallDdi();
  BackboneConfig config;
  config.hidden_dim = 8;
  config.num_layers = 2;
  auto backbone = MakeBackbone(GetParam(), ddi, config, rng);
  tensor::Tensor out = backbone->Forward();
  EXPECT_EQ(out.rows(), 6);
  EXPECT_EQ(out.cols(), backbone->output_dim());
  EXPECT_EQ(backbone->output_dim(), 8);
  EXPECT_FALSE(backbone->Parameters().empty());
  // Gradients reach every parameter.
  tensor::Tensor loss = tensor::MeanAll(tensor::Square(out));
  for (auto& p : backbone->Parameters()) p.ZeroGrad();
  loss.Backward();
  int touched = 0;
  for (const auto& p : backbone->Parameters()) {
    if (p.grad().FrobeniusNorm() > 0.0f) ++touched;
  }
  EXPECT_GT(touched, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneShapeTest,
                         ::testing::Values(BackboneKind::kGin, BackboneKind::kSgcn,
                                           BackboneKind::kSigat, BackboneKind::kSnea),
                         [](const auto& info) { return BackboneName(info.param); });

// ---------- DDI module ----------

TEST(DdiModuleTest, LearnsEdgeSigns) {
  SignedGraph ddi = SmallDdi();
  DdiModuleConfig config;
  config.backbone = BackboneKind::kSgcn;
  config.hidden_dim = 16;
  config.epochs = 150;
  config.zero_edge_count = 4;
  DdiModule module(ddi, config);
  const float loss = module.Train();
  EXPECT_LT(loss, 0.5f);
  // Synergistic pairs score above antagonistic pairs.
  EXPECT_GT(module.PredictInteraction(0, 1), module.PredictInteraction(2, 3));
  EXPECT_GT(module.PredictInteraction(1, 2), module.PredictInteraction(0, 5));
  // 0-edges were added.
  EXPECT_EQ(module.training_graph().CountEdges(EdgeSign::kNone), 4);
}

TEST(DdiModuleTest, EmbeddingDimMatchesConfig) {
  SignedGraph ddi = SmallDdi();
  DdiModuleConfig config;
  config.backbone = BackboneKind::kGin;
  config.hidden_dim = 12;
  config.epochs = 5;
  DdiModule module(ddi, config);
  module.Train();
  EXPECT_EQ(module.embeddings().rows(), 6);
  EXPECT_EQ(module.embeddings().cols(), 12);
}

// ---------- Counterfactual links ----------

TEST(CounterfactualTest, TreatmentContainsObservedLinks) {
  auto dataset = testing::TinyDataset();
  const Matrix x = dataset.patient_features.GatherRows(dataset.split.train);
  const Matrix y = dataset.medication.GatherRows(dataset.split.train);
  CounterfactualConfig config;
  config.num_clusters = 4;
  const auto links = BuildCounterfactualLinks(x, dataset.drug_features, y,
                                              dataset.ddi, config);
  for (int i = 0; i < y.rows(); ++i) {
    for (int v = 0; v < y.cols(); ++v) {
      if (y.At(i, v) > 0.5f) {
        EXPECT_GE(links.treatment.At(i, v), 1.0f) << i << "," << v;
      }
    }
  }
}

TEST(CounterfactualTest, DdiExpansionFollowsSynergisticEdges) {
  auto dataset = testing::TinyDataset();
  const Matrix x = dataset.patient_features.GatherRows(dataset.split.train);
  const Matrix y = dataset.medication.GatherRows(dataset.split.train);
  CounterfactualConfig config;
  config.num_clusters = 4;
  const auto links = BuildCounterfactualLinks(x, dataset.drug_features, y,
                                              dataset.ddi, config);
  // If T_iv = 1 and (v, u) synergistic then T_iu = 1.
  for (int i = 0; i < y.rows(); ++i) {
    for (const auto& edge : dataset.ddi.edges()) {
      if (edge.sign != EdgeSign::kSynergistic) continue;
      if (links.treatment.At(i, edge.u) > 0.5f) {
        EXPECT_GT(links.treatment.At(i, edge.v), 0.5f);
      }
      if (links.treatment.At(i, edge.v) > 0.5f) {
        EXPECT_GT(links.treatment.At(i, edge.u), 0.5f);
      }
    }
  }
}

TEST(CounterfactualTest, MatchedPairsFlipTreatment) {
  auto dataset = testing::TinyDataset();
  const Matrix x = dataset.patient_features.GatherRows(dataset.split.train);
  const Matrix y = dataset.medication.GatherRows(dataset.split.train);
  CounterfactualConfig config;
  config.num_clusters = 4;
  config.patient_distance_quantile = 0.3;
  config.drug_distance_quantile = 0.8;
  const auto links = BuildCounterfactualLinks(x, dataset.drug_features, y,
                                              dataset.ddi, config);
  EXPECT_GT(links.num_matched_pairs, 0);
  int flipped = 0;
  for (int i = 0; i < links.treatment.rows(); ++i) {
    for (int v = 0; v < links.treatment.cols(); ++v) {
      if (links.cf_treatment.At(i, v) != links.treatment.At(i, v)) ++flipped;
    }
  }
  EXPECT_EQ(flipped, links.num_matched_pairs);
  EXPECT_EQ(static_cast<int>(links.cluster_of.size()), x.rows());
}

// ---------- MD module ----------

TEST(MdModuleTest, TrainsAndBeatsRandomOnTinyData) {
  auto dataset = testing::TinyDataset();
  const Matrix x = dataset.patient_features.GatherRows(dataset.split.train);
  const Matrix y = dataset.medication.GatherRows(dataset.split.train);
  MdModuleConfig config;
  config.hidden_dim = 16;
  config.epochs = 120;
  config.counterfactual.num_clusters = 4;
  MdModule module(x, y, dataset.drug_features, dataset.ddi, Matrix(), config);
  module.Train();
  // Held-out patients from the same generator groups.
  const Matrix x_test = dataset.patient_features.GatherRows(dataset.split.test);
  const Matrix y_test = dataset.medication.GatherRows(dataset.split.test);
  const Matrix scores = module.PredictScores(x_test);
  // Average score of taken drugs should exceed that of untaken drugs.
  double taken = 0.0;
  double untaken = 0.0;
  int n_taken = 0;
  int n_untaken = 0;
  for (int i = 0; i < scores.rows(); ++i) {
    for (int v = 0; v < scores.cols(); ++v) {
      if (y_test.At(i, v) > 0.5f) {
        taken += scores.At(i, v);
        ++n_taken;
      } else {
        untaken += scores.At(i, v);
        ++n_untaken;
      }
    }
  }
  EXPECT_GT(taken / n_taken, untaken / n_untaken);
}

TEST(MdModuleTest, SharedDdiEmbeddingsMustMatchHiddenDim) {
  auto dataset = testing::TinyDataset();
  const Matrix x = dataset.patient_features.GatherRows(dataset.split.train);
  const Matrix y = dataset.medication.GatherRows(dataset.split.train);
  MdModuleConfig config;
  config.hidden_dim = 16;
  config.epochs = 1;
  config.counterfactual.num_clusters = 4;
  Matrix wrong_dim(dataset.num_drugs(), 7, 0.1f);
  EXPECT_DEATH(MdModule(x, y, dataset.drug_features, dataset.ddi, wrong_dim, config),
               "hidden_dim");
}

TEST(MdModuleTest, PatientRepresentationsAreDifferentiated) {
  auto dataset = testing::TinyDataset();
  const Matrix x = dataset.patient_features.GatherRows(dataset.split.train);
  const Matrix y = dataset.medication.GatherRows(dataset.split.train);
  MdModuleConfig config;
  config.hidden_dim = 16;
  config.epochs = 60;
  config.counterfactual.num_clusters = 4;
  MdModule module(x, y, dataset.drug_features, dataset.ddi, Matrix(), config);
  module.Train();
  const Matrix reps = module.PatientRepresentations(x);
  const Matrix sim = Matrix::CosineSimilarity(reps, reps);
  // Mean off-diagonal similarity must stay clearly below 1 (Fig. 7 claim).
  double off = 0.0;
  int count = 0;
  for (int i = 0; i < sim.rows(); ++i) {
    for (int j = 0; j < sim.cols(); ++j) {
      if (i != j) {
        off += sim.At(i, j);
        ++count;
      }
    }
  }
  EXPECT_LT(off / count, 0.95);
}

// ---------- MS module ----------

TEST(MsModuleTest, SynergisticSuggestionScoresHigher) {
  SignedGraph ddi = SmallDdi();
  MsModule ms(ddi, 0.5);
  const double synergistic = ms.SuggestionSatisfaction({0, 1});
  const double antagonistic = ms.SuggestionSatisfaction({2, 3});
  EXPECT_GT(synergistic, antagonistic);
}

TEST(MsModuleTest, ExplanationListsInteractions) {
  SignedGraph ddi = SmallDdi();
  MsModule ms(ddi, 0.5);
  const Explanation exp = ms.Explain({0, 1, 2});
  EXPECT_EQ(exp.synergies_within.size(), 3u);  // triangle 0-1-2
  EXPECT_TRUE(exp.antagonisms_within.empty());
  // Subgraph contains all suggested drugs.
  for (int d : {0, 1, 2}) {
    EXPECT_NE(std::find(exp.subgraph_drugs.begin(), exp.subgraph_drugs.end(), d),
              exp.subgraph_drugs.end());
  }
  EXPECT_GT(exp.suggestion_satisfaction, 0.0);
}

TEST(MsModuleTest, OutwardAntagonismIncreasesSs) {
  // Suggestion {0, 1}: synergistic pair; drug 5 is antagonistic to 0 and
  // nearby, so if it lands in the subgraph it adds outward antagonism.
  SignedGraph ddi = SmallDdi();
  MsModule ms(ddi, 0.5);
  const Explanation exp = ms.Explain({0, 1});
  const double base =
      0.5 * 2.0 * (1.0 + 1.0) / ((0.0 + 1.0) * (2.0 * 1.0 + 2.0));
  EXPECT_GE(exp.suggestion_satisfaction, base - 1e-9);
}

TEST(MsModuleTest, RenderMentionsDrugNames) {
  SignedGraph ddi = SmallDdi();
  MsModule ms(ddi, 0.5);
  const Explanation exp = ms.Explain({0, 1});
  const std::string text = ms.Render(exp, {"Aspirin", "Statin", "C", "D", "E", "F"});
  EXPECT_NE(text.find("Aspirin"), std::string::npos);
  EXPECT_NE(text.find("Suggestion Satisfaction"), std::string::npos);
}

TEST(MsModuleTest, IsolatedSuggestionFallsBackGracefully) {
  SignedGraph ddi(4, {{0, 1, EdgeSign::kSynergistic}});
  MsModule ms(ddi, 0.5);
  const Explanation exp = ms.Explain({2, 3});  // both isolated
  EXPECT_EQ(exp.subgraph_drugs.size(), 2u);
  EXPECT_GT(exp.suggestion_satisfaction, 0.0);  // first term's +1 smoothing
}

// Explanation oracle: every sign an explanation reports, and Eq. 19,
// recomputed from SignedGraph::SignOf alone on the catalog DDI graph.
std::vector<std::tuple<int, int, EdgeSign>> Tuples(const std::vector<InteractionEdge>& edges) {
  std::vector<std::tuple<int, int, EdgeSign>> tuples;
  for (const auto& e : edges) tuples.emplace_back(e.drug_u, e.drug_v, e.sign);
  return tuples;
}

void ExpectExplanationMatchesSignOf(const SignedGraph& ddi, const MsModule& ms,
                                    const std::vector<int>& drugs) {
  const Explanation exp = ms.Explain(drugs);
  for (const auto& e : exp.subgraph_edges) {
    EXPECT_NE(e.sign, EdgeSign::kNone);
    EXPECT_EQ(e.sign, ddi.SignOf(e.drug_u, e.drug_v)) << e.drug_u << "-" << e.drug_v;
  }
  std::vector<InteractionEdge> synergies;
  std::vector<InteractionEdge> antagonisms;
  for (size_t a = 0; a < drugs.size(); ++a) {
    for (size_t b = a + 1; b < drugs.size(); ++b) {
      const EdgeSign sign = ddi.SignOf(drugs[a], drugs[b]);
      if (sign == EdgeSign::kSynergistic) synergies.push_back({drugs[a], drugs[b], sign});
      if (sign == EdgeSign::kAntagonistic) antagonisms.push_back({drugs[a], drugs[b], sign});
    }
  }
  std::vector<InteractionEdge> outward;
  for (int u : drugs) {
    for (int w : exp.subgraph_drugs) {
      if (std::find(drugs.begin(), drugs.end(), w) == drugs.end() &&
          ddi.SignOf(u, w) == EdgeSign::kAntagonistic) {
        outward.push_back({u, w, EdgeSign::kAntagonistic});
      }
    }
  }
  EXPECT_EQ(Tuples(exp.synergies_within), Tuples(synergies));
  EXPECT_EQ(Tuples(exp.antagonisms_within), Tuples(antagonisms));
  EXPECT_EQ(Tuples(exp.antagonisms_outward), Tuples(outward));

  const double alpha = ms.alpha();
  const double k = static_cast<double>(drugs.size());
  const double n = static_cast<double>(exp.subgraph_drugs.size());
  double ss = alpha * 2.0 * (synergies.size() + 1.0) /
              ((antagonisms.size() + 1.0) * (k * (k - 1.0) + 2.0));
  if (n > k) ss += (1.0 - alpha) * outward.size() / (k * (n - k));
  EXPECT_DOUBLE_EQ(exp.suggestion_satisfaction, ss);
}

TEST(MsModuleTest, ExplanationSignsAndSatisfactionMatchSignOf) {
  const SignedGraph catalog = data::GenerateDdiDatabase(data::Catalog::Instance());
  // The same graph with as many explicit no-interaction edges as
  // interactions, as DdiModule trains on: those pairs must read kNone.
  SignedGraph with_zero_edges = catalog;
  util::Rng zero_rng(11);
  with_zero_edges.SampleNoInteractionEdges(catalog.num_edges(), zero_rng);
  const SignedGraph* graphs[] = {&catalog, &with_zero_edges};
  for (const SignedGraph* ddi : graphs) {
    for (ExplainerKind kind :
         {ExplainerKind::kClosestTrussCommunity, ExplainerKind::kDensestSubgraph}) {
      const MsModule ms(*ddi, 0.4, kind);
      util::Rng rng(17);
      for (int i = 0; i < 200; ++i) {
        std::vector<int> drugs;
        const int size = static_cast<int>(rng.UniformInt(1, 6));
        for (int d : rng.SampleWithoutReplacement(ddi->num_vertices(), size)) {
          drugs.push_back(d);
        }
        SCOPED_TRACE(ExplainerKindName(kind) + " query " + std::to_string(i));
        ExpectExplanationMatchesSignOf(*ddi, ms, drugs);
      }
    }
  }
}

// ---------- Full system ----------

TEST(DssddiSystemTest, EndToEndOnTinyDataset) {
  auto dataset = testing::TinyDataset();
  DssddiConfig config;
  config.ddi.backbone = BackboneKind::kSgcn;
  config.ddi.hidden_dim = 16;
  config.ddi.epochs = 60;
  config.md.hidden_dim = 16;
  config.md.epochs = 80;
  DssddiSystem system(config);
  EXPECT_EQ(system.name(), "DSSDDI(SGCN)");
  system.Fit(dataset);
  const auto scores = system.PredictScores(dataset, dataset.split.test);
  EXPECT_EQ(scores.rows(), static_cast<int>(dataset.split.test.size()));
  EXPECT_EQ(scores.cols(), dataset.num_drugs());

  const Suggestion suggestion = system.Suggest(dataset, dataset.split.test[0], 3);
  EXPECT_EQ(suggestion.drugs.size(), 3u);
  EXPECT_EQ(suggestion.scores.size(), 3u);
  EXPECT_GE(suggestion.explanation.suggestion_satisfaction, 0.0);
  // Scores are sorted descending.
  EXPECT_GE(suggestion.scores[0], suggestion.scores[1]);
  EXPECT_GE(suggestion.scores[1], suggestion.scores[2]);
}

TEST(DssddiSystemTest, AblationSourcesProduceDistinctNames) {
  DssddiConfig config;
  config.embedding_source = DrugEmbeddingSource::kWithoutDdi;
  config.display_name = DrugEmbeddingSourceName(config.embedding_source);
  DssddiSystem system(config);
  EXPECT_EQ(system.name(), "w/o DDI");
}

TEST(ProjectToDimTest, IdentityWhenDimsMatch) {
  Matrix m(3, 4, 1.0f);
  const Matrix same = ProjectToDim(m, 4, 1);
  EXPECT_EQ(same.cols(), 4);
  EXPECT_FLOAT_EQ(same.At(0, 0), 1.0f);
  const Matrix projected = ProjectToDim(m, 6, 1);
  EXPECT_EQ(projected.cols(), 6);
  EXPECT_EQ(projected.rows(), 3);
}

TEST(TopKDrugsTest, OrdersByScore) {
  Matrix scores({{0.1f, 0.9f, 0.5f, 0.7f}});
  EXPECT_EQ(TopKDrugs(scores, 0, 2), (std::vector<int>{1, 3}));
  EXPECT_EQ(TopKDrugs(scores, 0, 10).size(), 4u);
}

}  // namespace
}  // namespace dssddi::core
