#include "algo/truss.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace dssddi::algo {

namespace {

/// Calls visit(e_uw, e_vw) for every triangle {u, v, w} on edge (u, v),
/// by merging the sorted neighbor lists of u and v; the parallel
/// IncidentEdges lists hand over both edge ids without a lookup.
template <typename Visit>
void ForEachTriangle(const graph::Graph& g, int u, int v, Visit&& visit) {
  const auto nu = g.Neighbors(u);
  const auto nv = g.Neighbors(v);
  const int* eu = g.IncidentEdges(u).begin();
  const int* ev = g.IncidentEdges(v).begin();
  int i = 0;
  int j = 0;
  while (i < nu.size() && j < nv.size()) {
    const int a = nu.begin()[i];
    const int b = nv.begin()[j];
    if (a < b) ++i;
    else if (b < a) ++j;
    else visit(eu[i++], ev[j++]);
  }
}

}  // namespace

std::vector<int> EdgeSupport(const graph::Graph& g) {
  std::vector<int> support(g.num_edges(), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    auto [u, v] = g.Edge(e);
    ForEachTriangle(g, u, v, [&](int, int) { ++support[e]; });
  }
  return support;
}

std::vector<int> TrussDecomposition(const graph::Graph& g) {
  const int m = g.num_edges();
  std::vector<int> truss(m, 2);
  if (m == 0) return truss;

  // Every triangle on every edge, listed once up front as the ids of its
  // other two edges: edge e's triangles are the pairs at
  // tri[2 * tri_start[e] ..), so the peel below never searches for one.
  std::vector<int> tri_start(m + 1, 0);
  std::vector<int> tri;
  std::vector<int> support(m);
  for (int e = 0; e < m; ++e) {
    auto [u, v] = g.Edge(e);
    ForEachTriangle(g, u, v, [&](int e_uw, int e_vw) {
      tri.push_back(e_uw);
      tri.push_back(e_vw);
    });
    tri_start[e + 1] = static_cast<int>(tri.size() / 2);
    support[e] = tri_start[e + 1] - tri_start[e];
  }

  // Bin sort of edges by support (Batagelj & Zaversnik): order[] lists
  // edges by ascending current support, pos[] is each edge's index in
  // it, bin[s] is where the run of support-s edges starts.
  const int max_support = *std::max_element(support.begin(), support.end());
  std::vector<int> bin(max_support + 2, 0);
  for (int s : support) ++bin[s + 1];
  for (int s = 1; s <= max_support + 1; ++s) bin[s] += bin[s - 1];
  std::vector<int> order(m);
  std::vector<int> pos(m);
  {
    std::vector<int> next(bin.begin(), bin.end() - 1);
    for (int e = 0; e < m; ++e) {
      pos[e] = next[support[e]]++;
      order[pos[e]] = e;
    }
  }

  std::vector<char> removed(m, 0);
  for (int i = 0; i < m; ++i) {
    // order[i] has the smallest support of the edges left; its support
    // never drops below that floor again, so truss = support + 2.
    const int e = order[i];
    const int floor = support[e];
    truss[e] = floor + 2;
    removed[e] = 1;
    for (int t = tri_start[e]; t < tri_start[e + 1]; ++t) {
      const int e_uw = tri[2 * t];
      const int e_vw = tri[2 * t + 1];
      if (removed[e_uw] || removed[e_vw]) continue;
      for (int f : {e_uw, e_vw}) {
        if (support[f] <= floor) continue;
        // Move f to the front of its bin, then shrink the bin by one:
        // f now ends the run of support[f] - 1.
        const int s = support[f];
        const int first = order[bin[s]];
        std::swap(order[pos[f]], order[bin[s]]);
        std::swap(pos[f], pos[first]);
        ++bin[s];
        --support[f];
      }
    }
  }
  return truss;
}

std::vector<char> PTrussEdges(const graph::Graph& g, int p) {
  std::vector<int> support = EdgeSupport(g);
  std::vector<char> alive(g.num_edges(), 1);
  std::queue<int> to_remove;
  for (int e = 0; e < g.num_edges(); ++e) {
    if (support[e] < p - 2) to_remove.push(e);
  }
  while (!to_remove.empty()) {
    const int e = to_remove.front();
    to_remove.pop();
    if (!alive[e]) continue;
    alive[e] = 0;
    auto [u, v] = g.Edge(e);
    if (g.Degree(u) > g.Degree(v)) std::swap(u, v);
    for (int w : g.Neighbors(u)) {
      if (w == v) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw < 0 || !alive[e_uw] || !alive[e_vw]) continue;
      for (int edge : {e_uw, e_vw}) {
        if (--support[edge] < p - 2 && alive[edge]) to_remove.push(edge);
      }
    }
  }
  return alive;
}

int MaxQueryTrussness(const graph::Graph& g, const std::vector<int>& query) {
  if (query.empty()) return 0;
  return MaxQueryTrussness(g, TrussDecomposition(g), query);
}

int MaxQueryTrussness(const graph::Graph& g, const std::vector<int>& edge_truss,
                      const std::vector<int>& query) {
  if (query.empty()) return 0;
  const int max_p = edge_truss.empty()
      ? 2
      : *std::max_element(edge_truss.begin(), edge_truss.end());
  // Add edges in descending truss order to a union-find; the first level
  // at which every query vertex shares a root is the answer, since the
  // maximal p-truss is exactly {e : truss(e) >= p}.
  std::vector<int> by_truss(edge_truss.size());
  std::iota(by_truss.begin(), by_truss.end(), 0);
  std::sort(by_truss.begin(), by_truss.end(),
            [&](int a, int b) { return edge_truss[a] > edge_truss[b]; });
  std::vector<int> parent(g.num_vertices());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  size_t next = 0;
  for (int p = max_p; p >= 2; --p) {
    for (; next < by_truss.size() && edge_truss[by_truss[next]] >= p; ++next) {
      auto [u, v] = g.Edge(by_truss[next]);
      parent[find(u)] = find(v);
    }
    const int root = find(query.front());
    bool connected = true;
    for (int q : query) connected = connected && find(q) == root;
    if (connected) return p;
  }
  return 0;
}

bool IsPTruss(const graph::Graph& g, const std::vector<char>& alive_edges, int p) {
  // Count triangles restricted to alive edges.
  for (int e = 0; e < g.num_edges(); ++e) {
    if (!alive_edges[e]) continue;
    auto [u, v] = g.Edge(e);
    int support = 0;
    for (int w : g.Neighbors(u)) {
      if (w == v) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw >= 0 && alive_edges[e_uw] && alive_edges[e_vw]) ++support;
    }
    if (support < p - 2) return false;
  }
  return true;
}

}  // namespace dssddi::algo
