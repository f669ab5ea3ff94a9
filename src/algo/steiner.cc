#include "algo/steiner.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "util/logging.h"

namespace dssddi::algo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  std::vector<double> dist;
  std::vector<int> nearest_terminal;  // index into `terminals`
  std::vector<int> pred_vertex;
  std::vector<int> pred_edge;
};

VoronoiResult MultiSourceDijkstra(const graph::Graph& g,
                                  const std::vector<int>& terminals,
                                  const std::vector<double>& edge_weights) {
  VoronoiResult r;
  r.dist.assign(g.num_vertices(), kInf);
  r.nearest_terminal.assign(g.num_vertices(), -1);
  r.pred_vertex.assign(g.num_vertices(), -1);
  r.pred_edge.assign(g.num_vertices(), -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  for (size_t t = 0; t < terminals.size(); ++t) {
    const int v = terminals[t];
    r.dist[v] = 0.0;
    r.nearest_terminal[v] = static_cast<int>(t);
    heap.emplace(0.0, v);
  }
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d > r.dist[v]) continue;
    const auto nbrs = g.Neighbors(v);
    const auto eids = g.IncidentEdges(v);
    for (int i = 0; i < nbrs.size(); ++i) {
      const int u = nbrs.begin()[i];
      const int e = eids.begin()[i];
      const double w = edge_weights[e];
      if (r.dist[v] + w < r.dist[u]) {
        r.dist[u] = r.dist[v] + w;
        r.nearest_terminal[u] = r.nearest_terminal[v];
        r.pred_vertex[u] = v;
        r.pred_edge[u] = e;
        heap.emplace(r.dist[u], u);
      }
    }
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

}  // namespace

SteinerTree MehlhornSteinerTree(const graph::Graph& g,
                                const std::vector<int>& terminals,
                                const std::vector<double>& edge_weights) {
  DSSDDI_CHECK(static_cast<int>(edge_weights.size()) == g.num_edges())
      << "edge weight size mismatch";
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

  const VoronoiResult voronoi = MultiSourceDijkstra(g, terminals, edge_weights);

  // Terminal distance graph: the cheapest edge between two Voronoi cells
  // (lowest edge id among equals) bridges their terminals a < b.
  // `slot` is a flat |terminals|^2 index into `bridges` by (a, b).
  struct Bridge {
    double dist;
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
    const Bridge bridge{voronoi.dist[u] + edge_weights[e] + voronoi.dist[v],
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
  std::vector<std::pair<double, int>> sub_edges;
  sub_edges.reserve(tree_edges.size());
  for (int e : tree_edges) sub_edges.push_back({edge_weights[e], e});
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
    result.total_weight += edge_weights[e];
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

SteinerTree MehlhornSteinerTree(const graph::Graph& g, const std::vector<int>& terminals) {
  return MehlhornSteinerTree(g, terminals, std::vector<double>(g.num_edges(), 1.0));
}

}  // namespace dssddi::algo
