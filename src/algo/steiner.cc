#include "algo/steiner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>

#include "algo/bits.h"
#include "util/logging.h"

namespace dssddi::algo {

namespace {

constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();

/// Union-find for Kruskal.
class DisjointSets {
 public:
  explicit DisjointSets(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) parent_[i] = i;
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<int> parent_;
};

struct VoronoiResult {
  std::vector<int64_t> dist;
  std::vector<int> nearest_terminal;  // index into `terminals`
  std::vector<int> pred_vertex;
  std::vector<int> pred_edge;
};

/// Multi-source Dijkstra on a Dial bucket queue. While distance d is
/// popped, every queued distance lies in [d, d + max_weight], so a ring
/// of max_weight + 1 vertex bitsets, one per distance modulo the ring
/// size, holds the queue; a relaxation moves the vertex's bit from its
/// old slot to its new one. Weights >= 1 never touch the slot being
/// drained, so it is taken whole and popped lowest vertex id first.
template <typename Weight>
VoronoiResult MultiSourceDijkstra(const graph::Graph& g, const std::vector<int>& terminals,
                                  int max_weight, const Weight& weight) {
  const int n = g.num_vertices();
  VoronoiResult r;
  r.dist.assign(n, kUnreached);
  r.nearest_terminal.assign(n, -1);
  r.pred_vertex.assign(n, -1);
  r.pred_edge.assign(n, -1);
  const int words = (n + 63) / 64;
  const int64_t ring = max_weight + 1;
  std::vector<uint64_t> buckets(static_cast<size_t>(ring) * words, 0);
  auto bucket_at = [&](int64_t d) {
    return buckets.data() + static_cast<size_t>(d % ring) * words;
  };
  int queued = 0;
  for (size_t t = 0; t < terminals.size(); ++t) {
    const int v = terminals[t];
    if (r.dist[v] != 0) {
      r.dist[v] = 0;
      SetBit(bucket_at(0), v);
      ++queued;
    }
    r.nearest_terminal[v] = static_cast<int>(t);
  }
  for (int64_t d = 0; queued > 0; ++d) {
    uint64_t* bucket = bucket_at(d);
    ForEachBit(words, [&](int w) { return std::exchange(bucket[w], 0); }, [&](int v) {
      --queued;
      const auto nbrs = g.Neighbors(v);
      const auto eids = g.IncidentEdges(v);
      for (int i = 0; i < nbrs.size(); ++i) {
        const int u = nbrs.begin()[i];
        const int e = eids.begin()[i];
        const int64_t du = d + weight(e);
        if (du < r.dist[u]) {
          if (r.dist[u] == kUnreached) {
            ++queued;
          } else {
            ClearBit(bucket_at(r.dist[u]), u);
          }
          r.dist[u] = du;
          r.nearest_terminal[u] = r.nearest_terminal[v];
          r.pred_vertex[u] = v;
          r.pred_edge[u] = e;
          SetBit(bucket_at(du), u);
        }
      }
    });
  }
  return r;
}

/// Walks predecessor pointers from `v` back to its Voronoi center,
/// collecting edge ids.
void CollectPathToCenter(const VoronoiResult& voronoi, int v, std::vector<int>* edges) {
  while (voronoi.pred_edge[v] >= 0) {
    edges->push_back(voronoi.pred_edge[v]);
    v = voronoi.pred_vertex[v];
  }
}

/// Mehlhorn's algorithm with edge e weighing weight(e), an integer in
/// [1, max_weight].
template <typename Weight>
SteinerTree SteinerTreeOf(const graph::Graph& g, const std::vector<int>& terminals,
                          int max_weight, const Weight& weight) {
  SteinerTree result;
  if (terminals.empty()) {
    result.connected = true;
    return result;
  }
  for (int t : terminals) {
    DSSDDI_CHECK(t >= 0 && t < g.num_vertices()) << "terminal out of range";
  }
  if (terminals.size() == 1) {
    result.connected = true;
    result.vertices = {terminals.front()};
    return result;
  }

  const VoronoiResult voronoi = MultiSourceDijkstra(g, terminals, max_weight, weight);

  // Terminal distance graph: the cheapest edge between two Voronoi cells
  // (lowest edge id among equals) bridges their terminals a < b.
  // `slot` is a flat |terminals|^2 index into `bridges` by (a, b).
  struct Bridge {
    int64_t dist;
    int a;
    int b;
    int edge;
  };
  const int num_terminals = static_cast<int>(terminals.size());
  std::vector<int> slot(static_cast<size_t>(num_terminals) * num_terminals, -1);
  std::vector<Bridge> bridges;
  for (int e = 0; e < g.num_edges(); ++e) {
    auto [u, v] = g.Edge(e);
    const int su = voronoi.nearest_terminal[u];
    const int sv = voronoi.nearest_terminal[v];
    if (su < 0 || sv < 0 || su == sv) continue;
    const Bridge bridge{voronoi.dist[u] + weight(e) + voronoi.dist[v],
                        std::min(su, sv), std::max(su, sv), e};
    int& index = slot[static_cast<size_t>(bridge.a) * num_terminals + bridge.b];
    if (index < 0) {
      index = static_cast<int>(bridges.size());
      bridges.push_back(bridge);
    } else if (bridge.dist < bridges[index].dist) {
      bridges[index] = bridge;
    }
  }

  // Kruskal MST over the terminal graph.
  std::sort(bridges.begin(), bridges.end(), [](const Bridge& x, const Bridge& y) {
    return std::tie(x.dist, x.a, x.b) < std::tie(y.dist, y.a, y.b);
  });
  DisjointSets terminal_sets(num_terminals);
  std::vector<int> tree_edges;
  int merged = 0;
  for (const Bridge& bridge : bridges) {
    if (merged + 1 == num_terminals) break;
    if (!terminal_sets.Union(bridge.a, bridge.b)) continue;
    ++merged;
    // Expand the bridge into actual graph edges.
    auto [u, v] = g.Edge(bridge.edge);
    tree_edges.push_back(bridge.edge);
    CollectPathToCenter(voronoi, u, &tree_edges);
    CollectPathToCenter(voronoi, v, &tree_edges);
  }
  if (merged + 1 < num_terminals) {
    result.connected = false;  // terminals span multiple components
    return result;
  }

  // Final cleanup: MST of the collected subgraph, then prune non-terminal
  // leaves repeatedly.
  std::vector<std::pair<int, int>> sub_edges;
  sub_edges.reserve(tree_edges.size());
  for (int e : tree_edges) sub_edges.push_back({weight(e), e});
  std::sort(sub_edges.begin(), sub_edges.end());
  sub_edges.erase(std::unique(sub_edges.begin(), sub_edges.end()), sub_edges.end());
  DisjointSets vertex_sets(g.num_vertices());
  std::vector<int> mst_edges;
  for (const auto& [w, e] : sub_edges) {
    auto [u, v] = g.Edge(e);
    if (vertex_sets.Union(u, v)) mst_edges.push_back(e);
  }

  // Prune degree-1 non-terminal vertices until fixpoint.
  std::vector<char> is_terminal(g.num_vertices(), 0);
  for (int t : terminals) is_terminal[t] = 1;
  std::vector<char> mst_alive(mst_edges.size(), 1);
  std::vector<int> degree(g.num_vertices(), 0);
  for (int e : mst_edges) {
    auto [u, v] = g.Edge(e);
    ++degree[u];
    ++degree[v];
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < mst_edges.size(); ++i) {
      if (!mst_alive[i]) continue;
      auto [u, v] = g.Edge(mst_edges[i]);
      const bool u_leaf = degree[u] == 1 && !is_terminal[u];
      const bool v_leaf = degree[v] == 1 && !is_terminal[v];
      if (u_leaf || v_leaf) {
        mst_alive[i] = 0;
        --degree[u];
        --degree[v];
        changed = true;
      }
    }
  }

  result.connected = true;
  for (size_t i = 0; i < mst_edges.size(); ++i) {
    if (!mst_alive[i]) continue;
    const int e = mst_edges[i];
    result.edge_ids.push_back(e);
    result.total_weight += weight(e);
    auto [u, v] = g.Edge(e);
    result.vertices.push_back(u);
    result.vertices.push_back(v);
  }
  result.vertices.insert(result.vertices.end(), terminals.begin(), terminals.end());
  std::sort(result.vertices.begin(), result.vertices.end());
  result.vertices.erase(std::unique(result.vertices.begin(), result.vertices.end()),
                        result.vertices.end());
  return result;
}

}  // namespace

SteinerTree MehlhornSteinerTree(const graph::Graph& g,
                                const std::vector<int>& terminals,
                                const std::vector<int>& edge_weights) {
  DSSDDI_CHECK(static_cast<int>(edge_weights.size()) == g.num_edges())
      << "edge weight size mismatch";
  int max_weight = 1;
  for (int w : edge_weights) {
    DSSDDI_CHECK(w >= 1) << "edge weights must be >= 1";
    max_weight = std::max(max_weight, w);
  }
  return SteinerTreeOf(g, terminals, max_weight, [&](int e) { return edge_weights[e]; });
}

SteinerTree MehlhornSteinerTree(const graph::Graph& g, const std::vector<int>& terminals) {
  return SteinerTreeOf(g, terminals, 1, [](int) { return 1; });
}

SteinerTree TrussDistanceSteinerTree(const graph::Graph& g,
                                     const std::vector<int>& terminals,
                                     const std::vector<int>& edge_truss,
                                     int max_truss) {
  DSSDDI_CHECK(static_cast<int>(edge_truss.size()) == g.num_edges())
      << "edge_truss is not parallel to the graph's edges";
  int min_truss = max_truss;
  for (int t : edge_truss) {
    DSSDDI_CHECK(t <= max_truss) << "edge truss above max_truss";
    min_truss = std::min(min_truss, t);
  }
  return SteinerTreeOf(g, terminals, 1 + max_truss - min_truss,
                       [&](int e) { return 1 + max_truss - edge_truss[e]; });
}

}  // namespace dssddi::algo
