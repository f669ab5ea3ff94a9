#include <algorithm>
#include <cmath>

#include "graph/bipartite_graph.h"
#include "graph/graph.h"
#include "graph/signed_graph.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace dssddi::graph {
namespace {

Graph Triangle() { return Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(GraphTest, BasicCountsAndDegrees) {
  Graph g = Triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  for (int v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2);
}

TEST(GraphTest, DuplicateAndReversedEdgesMerge) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, NeighborsAreSortedAndConsistentWithEdgeIds) {
  Graph g = Graph::FromEdges(5, {{4, 0}, {2, 0}, {0, 1}, {3, 2}});
  auto nbrs = g.Neighbors(0);
  std::vector<int> got(nbrs.begin(), nbrs.end());
  EXPECT_EQ(got, (std::vector<int>{1, 2, 4}));
  auto eids = g.IncidentEdges(0);
  for (int i = 0; i < nbrs.size(); ++i) {
    auto [u, v] = g.Edge(eids.begin()[i]);
    EXPECT_TRUE((u == 0 && v == nbrs.begin()[i]) || (v == 0 && u == nbrs.begin()[i]));
  }
}

TEST(GraphTest, EdgeIdLookup) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}, {1, 2}});
  EXPECT_GE(g.EdgeId(0, 1), 0);
  EXPECT_EQ(g.EdgeId(0, 1), g.EdgeId(1, 0));
  EXPECT_EQ(g.EdgeId(0, 3), -1);
  EXPECT_EQ(g.EdgeId(0, 0), -1);
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(SignedGraphTest, CountsAndSignLookup) {
  SignedGraph g(4, {{0, 1, EdgeSign::kSynergistic},
                    {1, 2, EdgeSign::kAntagonistic},
                    {2, 3, EdgeSign::kNone}});
  EXPECT_EQ(g.CountEdges(EdgeSign::kSynergistic), 1);
  EXPECT_EQ(g.CountEdges(EdgeSign::kAntagonistic), 1);
  EXPECT_EQ(g.CountEdges(EdgeSign::kNone), 1);
  EXPECT_EQ(g.SignOf(0, 1), EdgeSign::kSynergistic);
  EXPECT_EQ(g.SignOf(1, 0), EdgeSign::kSynergistic);
  EXPECT_EQ(g.SignOf(2, 1), EdgeSign::kAntagonistic);
  EXPECT_EQ(g.SignOf(0, 3), EdgeSign::kNone);
  EXPECT_TRUE(g.HasInteraction(0, 1));
  EXPECT_FALSE(g.HasInteraction(2, 3));  // explicit 0-edge is not an interaction
}

TEST(SignedGraphTest, NeighborListsBySign) {
  SignedGraph g(4, {{0, 1, EdgeSign::kSynergistic},
                    {0, 2, EdgeSign::kAntagonistic},
                    {0, 3, EdgeSign::kNone}});
  EXPECT_EQ(g.Neighbors(0).size(), 3u);
  EXPECT_EQ(g.PositiveNeighbors(0), (std::vector<int>{1}));
  EXPECT_EQ(g.NegativeNeighbors(0), (std::vector<int>{2}));
}

TEST(SignedGraphTest, InteractionSkeletonDropsZeroEdges) {
  SignedGraph g(4, {{0, 1, EdgeSign::kSynergistic},
                    {1, 2, EdgeSign::kAntagonistic},
                    {2, 3, EdgeSign::kNone}});
  Graph skeleton = g.InteractionSkeleton();
  EXPECT_EQ(skeleton.num_edges(), 2);
  EXPECT_FALSE(skeleton.HasEdge(2, 3));
}

TEST(SignedGraphTest, MeanAdjacencyRowsSumToOne) {
  SignedGraph g(3, {{0, 1, EdgeSign::kSynergistic}, {0, 2, EdgeSign::kAntagonistic}});
  const auto adj = g.MeanAdjacency();
  const auto dense = adj.ToDense();
  EXPECT_NEAR(dense.At(0, 1) + dense.At(0, 2), 1.0f, 1e-6);
  EXPECT_NEAR(dense.At(1, 0), 1.0f, 1e-6);
}

TEST(SignedGraphTest, SampleNoInteractionAddsExactCount) {
  SignedGraph g(10, {{0, 1, EdgeSign::kSynergistic}});
  util::Rng rng(3);
  g.SampleNoInteractionEdges(5, rng);
  EXPECT_EQ(g.CountEdges(EdgeSign::kNone), 5);
  EXPECT_EQ(g.num_edges(), 6);
  // None of the sampled pairs collides with the existing interaction.
  for (const auto& e : g.edges()) {
    if (e.sign == EdgeSign::kNone) {
      EXPECT_FALSE(e.u == 0 && e.v == 1);
    }
  }
}

TEST(BipartiteGraphTest, AddAndQueryEdges) {
  BipartiteGraph g(3, 4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 3);
  g.AddEdge(2, 1);
  g.AddEdge(0, 1);  // duplicate ignored
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(1, 1));
  EXPECT_EQ(g.DrugsOf(0), (std::vector<int>{1, 3}));
  EXPECT_EQ(g.PatientsOf(1), (std::vector<int>{0, 2}));
}

TEST(BipartiteGraphTest, DenseRoundTrip) {
  tensor::Matrix y({{1, 0, 1}, {0, 0, 0}, {0, 1, 0}});
  BipartiteGraph g = BipartiteGraph::FromAdjacencyMatrix(y);
  const tensor::Matrix back = g.ToDenseMatrix();
  for (int i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(back.data()[i], y.data()[i]);
}

TEST(BipartiteGraphTest, NormalizedOperatorsAreSymmetricWeights) {
  tensor::Matrix y({{1, 1}, {1, 0}});
  BipartiteGraph g = BipartiteGraph::FromAdjacencyMatrix(y);
  const auto p2d = g.NormalizedPatientToDrug().ToDense();
  const auto d2p = g.NormalizedDrugToPatient().ToDense();
  // Weight of (patient 0, drug 0): 1/sqrt(2*2) = 0.5.
  EXPECT_NEAR(p2d.At(0, 0), 0.5f, 1e-6);
  // Same weight appears transposed in the drug->patient operator.
  EXPECT_NEAR(d2p.At(0, 0), 0.5f, 1e-6);
  // (patient 1, drug 0): 1/sqrt(1*2).
  EXPECT_NEAR(p2d.At(1, 0), 1.0f / std::sqrt(2.0f), 1e-6);
}

}  // namespace
}  // namespace dssddi::graph
