#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <string>
#include <tuple>

#include "algo/bfs.h"
#include "algo/ctc.h"
#include "algo/steiner.h"
#include "algo/truss.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace dssddi::algo {
namespace {

using graph::Graph;

Graph PathGraph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::FromEdges(n, edges);
}

Graph RandomConnectedGraph(int n, double p, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<int>(rng.NextBelow(v)), v);  // spanning tree
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

TEST(BfsTest, DistancesOnPath) {
  Graph g = PathGraph(5);
  const auto dist = BfsDistances(g, 0);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, RespectsAliveMask) {
  Graph g = PathGraph(5);
  std::vector<char> alive(5, 1);
  alive[2] = 0;  // break the path
  const auto dist = BfsDistances(g, 0, alive);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[3], kUnreachable);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(ConnectedComponentsTest, CountsComponents) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(AllConnectedTest, DetectsDisconnection) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {2, 3}});
  EXPECT_TRUE(AllConnected(g, {0, 1}));
  EXPECT_FALSE(AllConnected(g, {0, 2}));
  EXPECT_TRUE(AllConnected(g, {}));
}

TEST(DiameterTest, PathAndCompleteGraph) {
  EXPECT_EQ(Diameter(PathGraph(6)), 5);
  Graph k4 = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(Diameter(k4), 1);
}

TEST(DijkstraTest, MatchesBfsOnUnitWeights) {
  Graph g = RandomConnectedGraph(20, 0.15, 5);
  std::vector<double> weights(g.num_edges(), 1.0);
  const auto bfs = BfsDistances(g, 0);
  const auto dij = DijkstraDistances(g, 0, weights);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(dij[v], static_cast<double>(bfs[v]), 1e-9);
  }
}

TEST(DijkstraTest, PrefersLightPath) {
  // 0-1-2 with cheap edges vs direct heavy 0-2.
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  std::vector<double> weights(3);
  weights[g.EdgeId(0, 1)] = 1.0;
  weights[g.EdgeId(1, 2)] = 1.0;
  weights[g.EdgeId(0, 2)] = 5.0;
  const auto dist = DijkstraDistances(g, 0, weights);
  EXPECT_NEAR(dist[2], 2.0, 1e-9);
}

// ---------- Steiner tree ----------

bool TreeSpansTerminals(const Graph& g, const SteinerTree& tree,
                        const std::vector<int>& terminals) {
  if (!tree.connected) return false;
  std::set<int> vertices(tree.vertices.begin(), tree.vertices.end());
  for (int t : terminals) {
    if (vertices.count(t) == 0) return false;
  }
  // Check connectivity over tree edges.
  if (tree.vertices.size() <= 1) return true;
  std::vector<std::pair<int, int>> edges;
  for (int e : tree.edge_ids) edges.push_back(g.Edge(e));
  std::vector<int> remap(g.num_vertices(), -1);
  int next = 0;
  for (int v : tree.vertices) remap[v] = next++;
  for (auto& [u, v] : edges) {
    u = remap[u];
    v = remap[v];
  }
  Graph tree_graph = Graph::FromEdges(next, edges);
  std::vector<int> all(next);
  for (int i = 0; i < next; ++i) all[i] = i;
  return AllConnected(tree_graph, all);
}

TEST(SteinerTest, SingleTerminalIsTrivial) {
  Graph g = PathGraph(4);
  const auto tree = MehlhornSteinerTree(g, {2});
  EXPECT_TRUE(tree.connected);
  EXPECT_TRUE(tree.edge_ids.empty());
  EXPECT_EQ(tree.vertices, (std::vector<int>{2}));
}

TEST(SteinerTest, PathEndpointsUseWholePath) {
  Graph g = PathGraph(5);
  const auto tree = MehlhornSteinerTree(g, {0, 4});
  EXPECT_TRUE(tree.connected);
  EXPECT_EQ(tree.edge_ids.size(), 4u);
  EXPECT_NEAR(tree.total_weight, 4.0, 1e-9);
}

TEST(SteinerTest, DisconnectedTerminalsReported) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto tree = MehlhornSteinerTree(g, {0, 2});
  EXPECT_FALSE(tree.connected);
}

TEST(SteinerTest, StarCenterJoinsThreeTerminals) {
  // Star: center 0, leaves 1..3. Optimal Steiner tree = the star itself.
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  const auto tree = MehlhornSteinerTree(g, {1, 2, 3});
  EXPECT_TRUE(tree.connected);
  EXPECT_EQ(tree.edge_ids.size(), 3u);
  EXPECT_TRUE(TreeSpansTerminals(g, tree, {1, 2, 3}));
}

class SteinerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SteinerPropertyTest, SpansTerminalsAndIsAcyclicOnRandomGraphs) {
  Graph g = RandomConnectedGraph(24, 0.12, GetParam());
  util::Rng rng(GetParam() + 1000);
  std::vector<int> terminals;
  for (int t : rng.SampleWithoutReplacement(24, 4)) terminals.push_back(t);
  const auto tree = MehlhornSteinerTree(g, terminals);
  EXPECT_TRUE(TreeSpansTerminals(g, tree, terminals));
  // Tree property: |E| = |V| - 1 when it spans its vertex set connectedly.
  EXPECT_EQ(tree.edge_ids.size() + 1, tree.vertices.size());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SteinerPropertyTest,
                         ::testing::Values(2, 4, 6, 10, 12, 14, 18, 20));

/// Union-find root of x, halving paths.
int FindRoot(std::vector<int>& parent, int x) {
  while (parent[x] != x) x = parent[x] = parent[parent[x]];
  return x;
}

/// Mehlhorn's tree on a binary-heap multi-source Dijkstra over double
/// weights: the reference the bucket queue must reproduce exactly. A
/// heap pops by (distance, vertex) and a label changes on strict <.
SteinerTree HeapSteinerTree(const Graph& g, const std::vector<int>& terminals,
                            const std::vector<double>& weights) {
  SteinerTree result;
  if (terminals.size() <= 1) {
    result.connected = true;
    result.vertices = terminals;
    return result;
  }
  const int n = g.num_vertices();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<int> cell(n, -1);
  std::vector<int> pred_vertex(n, -1);
  std::vector<int> pred_edge(n, -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  for (size_t t = 0; t < terminals.size(); ++t) {
    dist[terminals[t]] = 0.0;
    cell[terminals[t]] = static_cast<int>(t);
    heap.emplace(0.0, terminals[t]);
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (int i = 0; i < g.Neighbors(v).size(); ++i) {
      const int u = g.Neighbors(v).begin()[i];
      const int e = g.IncidentEdges(v).begin()[i];
      if (dist[v] + weights[e] < dist[u]) {
        dist[u] = dist[v] + weights[e];
        cell[u] = cell[v];
        pred_vertex[u] = v;
        pred_edge[u] = e;
        heap.emplace(dist[u], u);
      }
    }
  }
  // Cheapest bridge (lowest edge id among equals) per pair of cells.
  const int k = static_cast<int>(terminals.size());
  std::map<std::pair<int, int>, std::pair<double, int>> bridges;
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.Edge(e);
    if (cell[u] < 0 || cell[v] < 0 || cell[u] == cell[v]) continue;
    const std::pair<int, int> cells = std::minmax(cell[u], cell[v]);
    const double d = dist[u] + weights[e] + dist[v];
    const auto it = bridges.find(cells);
    if (it == bridges.end() || d < it->second.first) bridges[cells] = {d, e};
  }
  std::vector<std::tuple<double, int, int, int>> order;  // (dist, a, b, edge)
  for (const auto& [cells, bridge] : bridges) {
    order.emplace_back(bridge.first, cells.first, cells.second, bridge.second);
  }
  std::sort(order.begin(), order.end());
  std::vector<int> terminal_parent(k);
  std::iota(terminal_parent.begin(), terminal_parent.end(), 0);
  std::vector<int> tree_edges;
  int merged = 0;
  for (const auto& [d, a, b, edge] : order) {
    if (merged + 1 == k) break;
    const int ra = FindRoot(terminal_parent, a);
    const int rb = FindRoot(terminal_parent, b);
    if (ra == rb) continue;
    terminal_parent[ra] = rb;
    ++merged;
    tree_edges.push_back(edge);
    for (int v : {g.Edge(edge).first, g.Edge(edge).second}) {
      for (; pred_edge[v] >= 0; v = pred_vertex[v]) tree_edges.push_back(pred_edge[v]);
    }
  }
  if (merged + 1 < k) return result;
  // MST of the collected edges, then prune non-terminal leaves.
  std::vector<std::pair<double, int>> sub_edges;
  for (int e : tree_edges) sub_edges.emplace_back(weights[e], e);
  std::sort(sub_edges.begin(), sub_edges.end());
  sub_edges.erase(std::unique(sub_edges.begin(), sub_edges.end()), sub_edges.end());
  std::vector<int> vertex_parent(n);
  std::iota(vertex_parent.begin(), vertex_parent.end(), 0);
  std::vector<int> mst;
  for (const auto& [w, e] : sub_edges) {
    const int ru = FindRoot(vertex_parent, g.Edge(e).first);
    const int rv = FindRoot(vertex_parent, g.Edge(e).second);
    if (ru != rv) {
      vertex_parent[ru] = rv;
      mst.push_back(e);
    }
  }
  std::vector<char> is_terminal(n, 0);
  for (int t : terminals) is_terminal[t] = 1;
  std::vector<int> degree(n, 0);
  for (int e : mst) {
    ++degree[g.Edge(e).first];
    ++degree[g.Edge(e).second];
  }
  std::vector<char> alive(mst.size(), 1);
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < mst.size(); ++i) {
      const auto [u, v] = g.Edge(mst[i]);
      if (alive[i] && ((degree[u] == 1 && !is_terminal[u]) ||
                       (degree[v] == 1 && !is_terminal[v]))) {
        alive[i] = 0;
        --degree[u];
        --degree[v];
        changed = true;
      }
    }
  }
  result.connected = true;
  result.vertices = terminals;
  for (size_t i = 0; i < mst.size(); ++i) {
    if (!alive[i]) continue;
    result.edge_ids.push_back(mst[i]);
    result.total_weight += weights[mst[i]];
    result.vertices.push_back(g.Edge(mst[i]).first);
    result.vertices.push_back(g.Edge(mst[i]).second);
  }
  std::sort(result.vertices.begin(), result.vertices.end());
  result.vertices.erase(std::unique(result.vertices.begin(), result.vertices.end()),
                        result.vertices.end());
  return result;
}

void ExpectSameTree(const SteinerTree& got, const SteinerTree& want) {
  EXPECT_EQ(got.connected, want.connected);
  EXPECT_EQ(got.edge_ids, want.edge_ids);
  EXPECT_EQ(got.vertices, want.vertices);
  EXPECT_EQ(got.total_weight, want.total_weight);
}

/// Graph as the CTC golden suite draws it: a random spanning tree (left
/// out when `spanning_tree` is false, so some terminal sets are
/// disconnected) plus Bernoulli(p) extra edges.
Graph GoldenRandomGraph(int n, double p, bool spanning_tree, util::Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  if (spanning_tree) {
    for (int v = 1; v < n; ++v) edges.emplace_back(static_cast<int>(rng.NextBelow(v)), v);
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

/// Weights in {1..4}, so equal distances are common, and 1-6 terminals
/// in draw order with repeats left in: the bucket queue must reproduce
/// the heap's tree under each weighting. Returns whether it connected.
bool ExpectBucketTreesMatchHeap(const Graph& g, util::Rng& rng) {
  std::vector<int> weights(g.num_edges());
  for (int& w : weights) w = static_cast<int>(rng.UniformInt(1, 4));
  std::vector<int> terminals(static_cast<size_t>(rng.UniformInt(1, 6)));
  for (int& t : terminals) t = static_cast<int>(rng.NextBelow(g.num_vertices()));

  const SteinerTree want =
      HeapSteinerTree(g, terminals, std::vector<double>(weights.begin(), weights.end()));
  ExpectSameTree(MehlhornSteinerTree(g, terminals, weights), want);
  ExpectSameTree(MehlhornSteinerTree(g, terminals),
                 HeapSteinerTree(g, terminals, std::vector<double>(g.num_edges(), 1.0)));

  // Truss distance: the CTC's weights, with no weight vector built.
  const std::vector<int> truss = TrussDecomposition(g);
  const int max_truss = truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  std::vector<double> truss_weights(g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) truss_weights[e] = 1 + max_truss - truss[e];
  ExpectSameTree(TrussDistanceSteinerTree(g, terminals, truss, max_truss),
                 HeapSteinerTree(g, terminals, truss_weights));
  return want.connected;
}

TEST(SteinerTest, BucketQueueMatchesHeapReferenceOnTieHeavyWeights) {
  // The golden suite's graph sizes: 8-48 vertices (one bitset word),
  // then its wide ones, 150-300 vertices (several words).
  int disconnected = 0;
  for (int seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(static_cast<uint64_t>(seed));
    const int n = static_cast<int>(rng.UniformInt(8, 48));
    const double p = rng.Uniform(0.05, 0.5);
    disconnected += ExpectBucketTreesMatchHeap(GoldenRandomGraph(n, p, seed % 5 != 0, rng), rng)
                        ? 0
                        : 1;
  }
  for (int seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("wide seed " + std::to_string(seed));
    util::Rng rng(static_cast<uint64_t>(1000 + seed));
    const int n = static_cast<int>(rng.UniformInt(150, 300));
    const double p = rng.Uniform(0.03, 0.2);
    ExpectBucketTreesMatchHeap(GoldenRandomGraph(n, p, seed % 5 != 0, rng), rng);
  }
  EXPECT_GT(disconnected, 0);
}

TEST(SteinerTest, RejectsNonPositiveWeights) {
  const Graph g = PathGraph(3);
  EXPECT_DEATH(MehlhornSteinerTree(g, {0, 2}, {1, 0}), "edge weights must be >= 1");
}

// ---------- Closest truss community ----------

TEST(CtcTest, TriangleQueryReturnsTriangle) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}});
  const auto ctc = FindClosestTrussCommunity(g, {0, 1});
  EXPECT_TRUE(ctc.found);
  EXPECT_GE(ctc.trussness, 3);
  std::set<int> vertices(ctc.vertices.begin(), ctc.vertices.end());
  EXPECT_TRUE(vertices.count(0) == 1 && vertices.count(1) == 1);
  EXPECT_TRUE(vertices.count(2) == 1);  // triangle completion
  EXPECT_EQ(vertices.count(5), 0u);     // far tail pruned
}

TEST(CtcTest, DisconnectedQueryNotFound) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto ctc = FindClosestTrussCommunity(g, {0, 2});
  EXPECT_FALSE(ctc.found);
}

TEST(CtcTest, IsolatedSingleQueryVertex) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  const auto ctc = FindClosestTrussCommunity(g, {2});
  EXPECT_TRUE(ctc.found);
  EXPECT_EQ(ctc.vertices, (std::vector<int>{2}));
}

TEST(CtcTest, CommunityContainsQueryAndIsConnected) {
  Graph g = RandomConnectedGraph(40, 0.1, 123);
  util::Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> query;
    for (int q : rng.SampleWithoutReplacement(40, 3)) query.push_back(q);
    const auto ctc = FindClosestTrussCommunity(g, query);
    ASSERT_TRUE(ctc.found);
    std::set<int> vertices(ctc.vertices.begin(), ctc.vertices.end());
    for (int q : query) EXPECT_EQ(vertices.count(q), 1u) << "missing query " << q;
    // Connectivity over community edges.
    std::vector<std::pair<int, int>> edges;
    for (int e : ctc.edge_ids) edges.push_back(g.Edge(e));
    std::vector<int> remap(g.num_vertices(), -1);
    int next = 0;
    for (int v : ctc.vertices) remap[v] = next++;
    for (auto& [u, v] : edges) {
      u = remap[u];
      v = remap[v];
    }
    Graph community = Graph::FromEdges(next, edges);
    std::vector<int> remapped_query;
    for (int q : query) remapped_query.push_back(remap[q]);
    EXPECT_TRUE(AllConnected(community, remapped_query));
  }
}

TEST(CtcTest, DenseCoreBeatsLooseAttachment) {
  // K5 core (0..4) + pendant chain 4-5-6. Query inside the core should
  // return (a subset of) the core without the chain.
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(4, 5);
  edges.emplace_back(5, 6);
  Graph g = Graph::FromEdges(7, edges);
  const auto ctc = FindClosestTrussCommunity(g, {0, 3});
  EXPECT_TRUE(ctc.found);
  EXPECT_EQ(ctc.trussness, 5);
  std::set<int> vertices(ctc.vertices.begin(), ctc.vertices.end());
  EXPECT_EQ(vertices.count(5), 0u);
  EXPECT_EQ(vertices.count(6), 0u);
}

}  // namespace
}  // namespace dssddi::algo
