// Property suite for the Medical Support substrate: closest-truss-
// community queries over random graphs must always return a connected
// p-truss containing the query, with the diameter and query distance a
// plain BFS over its edges gives, and the Suggestion Satisfaction measure
// must respect its analytic bounds on arbitrary signed graphs.

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <tuple>

#include "algo/bfs.h"
#include "algo/ctc.h"
#include "algo/truss.h"
#include "core/ms_module.h"
#include "graph/graph.h"
#include "graph/signed_graph.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace dssddi {
namespace {

using graph::Graph;

Graph RandomConnectedGraph(int n, double p, util::Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<int>(rng.NextBelow(v)), v);
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

std::vector<int> RandomQuery(int n, int q, util::Rng& rng) {
  std::set<int> query;
  while (static_cast<int>(query.size()) < q) {
    query.insert(static_cast<int>(rng.NextBelow(n)));
  }
  return {query.begin(), query.end()};
}

// (seed, num_vertices, edge_probability, query_size)
class CtcPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(CtcPropertyTest, CommunityIsConnectedPTrussContainingQuery) {
  const auto [seed, n, p, q] = GetParam();
  util::Rng rng(static_cast<uint64_t>(seed));
  const Graph g = RandomConnectedGraph(n, p, rng);
  const std::vector<int> query = RandomQuery(n, q, rng);

  const auto community = algo::FindClosestTrussCommunity(g, query);
  ASSERT_TRUE(community.found);

  // Contains every query vertex.
  const std::set<int> members(community.vertices.begin(), community.vertices.end());
  for (int v : query) EXPECT_TRUE(members.count(v)) << "query vertex " << v;

  // Every returned edge joins two members.
  for (int e : community.edge_ids) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, g.num_edges());
    const auto [u, v] = g.Edge(e);
    EXPECT_TRUE(members.count(u) && members.count(v));
  }

  // Connected over the returned edges (union-find).
  {
    std::vector<int> parent(g.num_vertices());
    std::iota(parent.begin(), parent.end(), 0);
    std::function<int(int)> find = [&](int x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (int e : community.edge_ids) {
      const auto [u, v] = g.Edge(e);
      parent[find(u)] = find(v);
    }
    const int root = find(community.vertices.front());
    for (int v : community.vertices) {
      EXPECT_EQ(find(v), root) << "community vertex " << v << " disconnected";
    }
  }

  // The returned edge set is a p-truss for the reported trussness.
  {
    std::vector<char> alive(g.num_edges(), 0);
    for (int e : community.edge_ids) alive[e] = 1;
    EXPECT_TRUE(algo::IsPTruss(g, alive, community.trussness));
  }

  // Trussness is feasible: between 2 and the best achievable for Q.
  EXPECT_GE(community.trussness, 2);
  EXPECT_LE(community.trussness, algo::MaxQueryTrussness(g, query));

  // Vertices and edge ids come out ascending, without repeats.
  EXPECT_TRUE(std::adjacent_find(community.vertices.begin(), community.vertices.end(),
                                 std::greater_equal<int>()) == community.vertices.end());
  EXPECT_TRUE(std::adjacent_find(community.edge_ids.begin(), community.edge_ids.end(),
                                 std::greater_equal<int>()) == community.edge_ids.end());

  // Diameter and query distance match a plain BFS over the returned edges.
  {
    std::vector<std::pair<int, int>> edges;
    for (int e : community.edge_ids) edges.push_back(g.Edge(e));
    const Graph sub = Graph::FromEdges(g.num_vertices(), edges);
    int diameter = 0;
    for (int s : community.vertices) {
      for (int d : algo::BfsDistances(sub, s)) diameter = std::max(diameter, d);
    }
    std::vector<int> query_distance(g.num_vertices(), 0);
    for (int s : query) {
      const std::vector<int> dist = algo::BfsDistances(sub, s);
      for (int v : community.vertices) {
        query_distance[v] = std::max(query_distance[v], dist[v]);
      }
    }
    int max_query_distance = 0;
    for (int v : community.vertices) {
      max_query_distance = std::max(max_query_distance, query_distance[v]);
    }
    EXPECT_EQ(community.diameter, diameter);
    EXPECT_EQ(community.query_distance, max_query_distance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, CtcPropertyTest,
    ::testing::Values(std::make_tuple(1, 16, 0.15, 2), std::make_tuple(2, 16, 0.3, 3),
                      std::make_tuple(3, 24, 0.2, 2), std::make_tuple(4, 24, 0.4, 4),
                      std::make_tuple(5, 32, 0.1, 3), std::make_tuple(6, 32, 0.25, 5),
                      std::make_tuple(7, 48, 0.08, 2), std::make_tuple(8, 48, 0.15, 4),
                      std::make_tuple(9, 12, 0.5, 6), std::make_tuple(10, 40, 0.2, 3),
                      // Wide queries: candidates past 64 vertices, so
                      // multiword adjacency rows.
                      std::make_tuple(11, 150, 0.05, 13), std::make_tuple(12, 180, 0.12, 16),
                      std::make_tuple(13, 220, 0.04, 20), std::make_tuple(14, 300, 0.03, 16),
                      std::make_tuple(15, 160, 0.2, 13)));

TEST(CtcPropertyTest, SingleQueryVertexAlwaysFound) {
  util::Rng rng(77);
  const Graph g = RandomConnectedGraph(20, 0.2, rng);
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto community = algo::FindClosestTrussCommunity(g, {v});
    EXPECT_TRUE(community.found);
    EXPECT_NE(std::find(community.vertices.begin(), community.vertices.end(), v),
              community.vertices.end());
  }
}

// ---------------------------------------------------------------------
// Suggestion Satisfaction bounds (Eq. 19): both terms are normalized, so
// 0 < SS <= 1 for any suggestion on any signed graph, for any alpha.
// ---------------------------------------------------------------------

class SsBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(SsBoundsTest, AlwaysInUnitInterval) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  const int n = 12 + static_cast<int>(rng.NextBelow(10));
  std::vector<graph::SignedEdge> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(0.25)) {
        edges.push_back({u, v,
                         rng.Bernoulli(0.3) ? graph::EdgeSign::kSynergistic
                                            : graph::EdgeSign::kAntagonistic});
      }
    }
  }
  const graph::SignedGraph ddi(n, std::move(edges));

  for (double alpha : {0.1, 0.5, 0.9}) {
    const core::MsModule ms(ddi, alpha);
    for (int trial = 0; trial < 8; ++trial) {
      const int k = 2 + static_cast<int>(rng.NextBelow(4));
      std::set<int> suggestion;
      while (static_cast<int>(suggestion.size()) < k) {
        suggestion.insert(static_cast<int>(rng.NextBelow(n)));
      }
      const double ss =
          ms.SuggestionSatisfaction({suggestion.begin(), suggestion.end()});
      EXPECT_GT(ss, 0.0) << "alpha=" << alpha;
      EXPECT_LE(ss, 1.0) << "alpha=" << alpha;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSignedGraphs, SsBoundsTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace dssddi
