#include <algorithm>

#include "algo/bfs.h"
#include "algo/ctc.h"
#include "algo/truss.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace dssddi::algo {
namespace {

using graph::Graph;

Graph CompleteGraph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(n, edges);
}

Graph RandomGraph(int n, double p, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

/// Reference O(m * n) support computation.
std::vector<int> NaiveSupport(const Graph& g) {
  std::vector<int> support(g.num_edges(), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    auto [u, v] = g.Edge(e);
    for (int w = 0; w < g.num_vertices(); ++w) {
      if (w != u && w != v && g.HasEdge(u, w) && g.HasEdge(v, w)) ++support[e];
    }
  }
  return support;
}

TEST(EdgeSupportTest, TriangleHasSupportOne) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  for (int s : EdgeSupport(g)) EXPECT_EQ(s, 1);
}

TEST(EdgeSupportTest, PathHasZeroSupport) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  for (int s : EdgeSupport(g)) EXPECT_EQ(s, 0);
}

TEST(TrussTest, CompleteGraphTrussIsN) {
  // Every edge of K_n lies in n-2 triangles -> truss number n.
  for (int n : {3, 4, 5, 6}) {
    Graph g = CompleteGraph(n);
    for (int t : TrussDecomposition(g)) EXPECT_EQ(t, n) << "K_" << n;
  }
}

TEST(TrussTest, TreeEdgesHaveTrussTwo) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}});
  for (int t : TrussDecomposition(g)) EXPECT_EQ(t, 2);
}

TEST(TrussTest, TriangleWithTailMixedTruss) {
  // Triangle 0-1-2 plus tail 2-3: triangle edges truss 3, tail truss 2.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto truss = TrussDecomposition(g);
  EXPECT_EQ(truss[g.EdgeId(0, 1)], 3);
  EXPECT_EQ(truss[g.EdgeId(1, 2)], 3);
  EXPECT_EQ(truss[g.EdgeId(0, 2)], 3);
  EXPECT_EQ(truss[g.EdgeId(2, 3)], 2);
}

TEST(TrussTest, PTrussEdgesSatisfyInvariant) {
  Graph g = RandomGraph(30, 0.25, 77);
  for (int p = 2; p <= 5; ++p) {
    const auto alive = PTrussEdges(g, p);
    EXPECT_TRUE(IsPTruss(g, alive, p)) << "p=" << p;
  }
}

TEST(TrussTest, PTrussIsMaximal) {
  // Every edge with truss >= p must survive in the p-truss.
  Graph g = RandomGraph(25, 0.3, 99);
  const auto truss = TrussDecomposition(g);
  for (int p = 2; p <= 4; ++p) {
    const auto alive = PTrussEdges(g, p);
    for (int e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(alive[e] != 0, truss[e] >= p)
          << "edge " << e << " truss=" << truss[e] << " p=" << p;
    }
  }
}

class TrussPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrussPropertyTest, SupportMatchesNaiveOnRandomGraphs) {
  Graph g = RandomGraph(20, 0.3, GetParam());
  const auto fast = EdgeSupport(g);
  const auto naive = NaiveSupport(g);
  EXPECT_EQ(fast, naive);
}

TEST_P(TrussPropertyTest, TrussBetweenTwoAndSupportPlusTwo) {
  Graph g = RandomGraph(18, 0.35, GetParam() * 31 + 1);
  const auto truss = TrussDecomposition(g);
  const auto support = EdgeSupport(g);
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(truss[e], 2);
    EXPECT_LE(truss[e], support[e] + 2);
  }
}

TEST_P(TrussPropertyTest, TrussNumberConsistentWithPTrussMembership) {
  Graph g = RandomGraph(16, 0.35, GetParam() * 131 + 7);
  const auto truss = TrussDecomposition(g);
  const int max_truss =
      truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  for (int p = 2; p <= max_truss; ++p) {
    const auto alive = PTrussEdges(g, p);
    for (int e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(alive[e] != 0, truss[e] >= p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TrussPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Oracle checks on random graphs: the bin-sort peel, the one-pass
// query trussness and the precomputed-index CTC path must agree with the
// independent PTrussEdges peel and the per-p sweep they replaced.

/// The per-p sweep MaxQueryTrussness used to run: one PTrussEdges peel
/// per candidate p, from the top, until the query is connected.
int SweepMaxQueryTrussness(const Graph& g, const std::vector<int>& query) {
  if (query.empty()) return 0;
  const auto truss = TrussDecomposition(g);
  const int max_p = truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  for (int p = max_p; p >= 2; --p) {
    const auto alive = PTrussEdges(g, p);
    std::vector<std::pair<int, int>> edges;
    for (int e = 0; e < g.num_edges(); ++e) {
      if (alive[e]) edges.push_back(g.Edge(e));
    }
    if (AllConnected(Graph::FromEdges(g.num_vertices(), edges), query)) return p;
  }
  return 0;
}

class TrussOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Size 6-40 and density 0.05-0.6 drawn from the seed.
  static Graph Draw(uint64_t seed) {
    util::Rng rng(seed);
    const int n = static_cast<int>(rng.UniformInt(6, 40));
    const double p = rng.Uniform(0.05, 0.6);
    return RandomGraph(n, p, seed * 7919 + 3);
  }
};

TEST_P(TrussOracleTest, TrussNumberIsLargestPTrussContainingEdge) {
  const Graph g = Draw(GetParam());
  const auto truss = TrussDecomposition(g);
  const int max_truss =
      truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  std::vector<int> oracle(g.num_edges(), 0);
  for (int p = 2; p <= max_truss + 1; ++p) {
    const auto alive = PTrussEdges(g, p);
    for (int e = 0; e < g.num_edges(); ++e) {
      if (alive[e]) oracle[e] = p;
    }
  }
  EXPECT_EQ(truss, oracle);
}

TEST_P(TrussOracleTest, PTrussEdgesEqualTrussThreshold) {
  const Graph g = Draw(GetParam());
  const auto truss = TrussDecomposition(g);
  const int max_truss =
      truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  for (int p = 2; p <= max_truss + 1; ++p) {
    const auto alive = PTrussEdges(g, p);
    for (int e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(alive[e] != 0, truss[e] >= p) << "edge " << e << " p=" << p;
    }
  }
}

TEST_P(TrussOracleTest, MaxQueryTrussnessMatchesPerPSweep) {
  const Graph g = Draw(GetParam());
  util::Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<int> query;
    const int size = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < size; ++i) {
      query.push_back(static_cast<int>(rng.NextBelow(g.num_vertices())));
    }
    EXPECT_EQ(MaxQueryTrussness(g, query), SweepMaxQueryTrussness(g, query));
    EXPECT_EQ(MaxQueryTrussness(g, TrussDecomposition(g), query),
              SweepMaxQueryTrussness(g, query));
  }
}

TEST_P(TrussOracleTest, CtcWithPrecomputedTrussMatchesCtcWithout) {
  const Graph g = Draw(GetParam());
  const auto truss = TrussDecomposition(g);
  util::Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<int> query;
    const int size = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < size; ++i) {
      query.push_back(static_cast<int>(rng.NextBelow(g.num_vertices())));
    }
    const auto plain = FindClosestTrussCommunity(g, query);
    const auto fast = FindClosestTrussCommunity(g, truss, query);
    EXPECT_EQ(fast.found, plain.found);
    EXPECT_EQ(fast.vertices, plain.vertices);
    EXPECT_EQ(fast.edge_ids, plain.edge_ids);
    EXPECT_EQ(fast.trussness, plain.trussness);
    EXPECT_EQ(fast.diameter, plain.diameter);
    EXPECT_EQ(fast.query_distance, plain.query_distance);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TrussOracleTest, ::testing::Range<uint64_t>(1, 121));

TEST(MaxQueryTrussnessTest, TriangleQuery) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(MaxQueryTrussness(g, {0, 1}), 3);
  EXPECT_EQ(MaxQueryTrussness(g, {0, 4}), 2);
  EXPECT_EQ(MaxQueryTrussness(g, {}), 0);
}

TEST(MaxQueryTrussnessTest, DisconnectedQueryReturnsZero) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(MaxQueryTrussness(g, {0, 2}), 0);
}

}  // namespace
}  // namespace dssddi::algo
