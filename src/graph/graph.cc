#include "graph/graph.h"

#include <algorithm>

#include "util/logging.h"

namespace dssddi::graph {

Graph Graph::FromEdges(int num_vertices, const std::vector<std::pair<int, int>>& edges) {
  Graph g;
  g.num_vertices_ = num_vertices;
  g.edges_.reserve(edges.size());
  for (auto [u, v] : edges) {
    DSSDDI_CHECK(u >= 0 && u < num_vertices && v >= 0 && v < num_vertices)
        << "edge (" << u << "," << v << ") out of range";
    DSSDDI_CHECK(u != v) << "self-loop at vertex " << u;
    if (u > v) std::swap(u, v);
    g.edges_.emplace_back(u, v);
  }
  std::sort(g.edges_.begin(), g.edges_.end());
  g.edges_.erase(std::unique(g.edges_.begin(), g.edges_.end()), g.edges_.end());

  g.adj_offsets_.assign(num_vertices + 1, 0);
  for (auto [u, v] : g.edges_) {
    ++g.adj_offsets_[u + 1];
    ++g.adj_offsets_[v + 1];
  }
  for (int v = 0; v < num_vertices; ++v) g.adj_offsets_[v + 1] += g.adj_offsets_[v];
  g.adj_neighbors_.resize(g.edges_.size() * 2);
  g.adj_edge_ids_.resize(g.edges_.size() * 2);
  std::vector<int> cursor(g.adj_offsets_.begin(), g.adj_offsets_.end() - 1);
  for (int e = 0; e < static_cast<int>(g.edges_.size()); ++e) {
    auto [u, v] = g.edges_[e];
    g.adj_neighbors_[cursor[u]] = v;
    g.adj_edge_ids_[cursor[u]++] = e;
    g.adj_neighbors_[cursor[v]] = u;
    g.adj_edge_ids_[cursor[v]++] = e;
  }
  // Neighbors within each vertex bucket are already ascending because the
  // edge list is sorted lexicographically and buckets fill in order — but
  // the (v, u) reversed insertions break that for the second endpoint, so
  // sort each bucket (with the edge ids following along).
  for (int v = 0; v < num_vertices; ++v) {
    const int begin = g.adj_offsets_[v];
    const int end = g.adj_offsets_[v + 1];
    std::vector<std::pair<int, int>> bucket;
    bucket.reserve(end - begin);
    for (int i = begin; i < end; ++i) {
      bucket.emplace_back(g.adj_neighbors_[i], g.adj_edge_ids_[i]);
    }
    std::sort(bucket.begin(), bucket.end());
    for (int i = begin; i < end; ++i) {
      g.adj_neighbors_[i] = bucket[i - begin].first;
      g.adj_edge_ids_[i] = bucket[i - begin].second;
    }
  }
  return g;
}

bool Graph::FromCsrView(int num_vertices, int num_edges, const int* endpoints,
                        const int* adj_offsets, const int* adj_neighbors,
                        const int* adj_edge_ids, Graph* out,
                        std::string* error) {
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (num_vertices < 0 || num_edges < 0) return fail("negative graph size");
  if (num_edges > 0 && num_vertices < 2) return fail("edges without vertices");
  // The validation below is every invariant FromEdges establishes by
  // construction; a view that passes is indistinguishable from a heap
  // build to every algorithm. Hostile bytes must fail here, not crash
  // a truss decomposition later.
  const int half_edges = 2 * num_edges;
  if (adj_offsets[0] != 0 || adj_offsets[num_vertices] != half_edges) {
    return fail("CSR offsets do not cover the adjacency");
  }
  for (int v = 0; v < num_vertices; ++v) {
    if (adj_offsets[v + 1] < adj_offsets[v]) {
      return fail("CSR offsets not monotone");
    }
  }
  for (int e = 0; e < num_edges; ++e) {
    const int u = endpoints[2 * e];
    const int v = endpoints[2 * e + 1];
    if (u < 0 || v < 0 || u >= num_vertices || v >= num_vertices) {
      return fail("edge endpoint out of range");
    }
    if (u >= v) return fail("edge endpoints not ordered u < v");
    if (e > 0) {
      const int pu = endpoints[2 * e - 2];
      const int pv = endpoints[2 * e - 1];
      if (std::pair<int, int>(pu, pv) >= std::pair<int, int>(u, v)) {
        return fail("edge list not strictly ascending");
      }
    }
  }
  // Each adjacency slot must name a valid edge that actually joins this
  // vertex and its listed neighbor, each bucket must be strictly
  // ascending (sorted, no duplicates), and every edge must appear in
  // exactly two slots — counted, not assumed.
  std::vector<int> slots_per_edge(static_cast<size_t>(num_edges), 0);
  for (int v = 0; v < num_vertices; ++v) {
    for (int i = adj_offsets[v]; i < adj_offsets[v + 1]; ++i) {
      const int neighbor = adj_neighbors[i];
      const int e = adj_edge_ids[i];
      if (neighbor < 0 || neighbor >= num_vertices || neighbor == v) {
        return fail("adjacency neighbor out of range");
      }
      if (i > adj_offsets[v] && adj_neighbors[i - 1] >= neighbor) {
        return fail("adjacency bucket not strictly ascending");
      }
      if (e < 0 || e >= num_edges) return fail("adjacency edge id out of range");
      const int u = endpoints[2 * e];
      const int w = endpoints[2 * e + 1];
      if (!((u == v && w == neighbor) || (u == neighbor && w == v))) {
        return fail("adjacency edge id disagrees with endpoints");
      }
      ++slots_per_edge[e];
    }
  }
  for (int e = 0; e < num_edges; ++e) {
    if (slots_per_edge[e] != 2) return fail("edge not listed exactly twice");
  }
  Graph g;
  g.num_vertices_ = num_vertices;
  g.num_edges_ = num_edges;
  g.view_endpoints_ = endpoints;
  g.view_offsets_ = adj_offsets;
  g.view_neighbors_ = adj_neighbors;
  g.view_edge_ids_ = adj_edge_ids;
  *out = std::move(g);
  return true;
}

const std::vector<std::pair<int, int>>& Graph::edges() const {
  DSSDDI_CHECK(view_endpoints_ == nullptr)
      << "edges() on a CSR-view graph — iterate Edge(e) instead";
  return edges_;
}

Graph::NeighborRange Graph::Neighbors(int v) const {
  const int* offsets = offsets_ptr();
  const int* neighbors = neighbors_ptr();
  return {neighbors + offsets[v], neighbors + offsets[v + 1]};
}

Graph::NeighborRange Graph::IncidentEdges(int v) const {
  const int* offsets = offsets_ptr();
  const int* edge_ids = edge_ids_ptr();
  return {edge_ids + offsets[v], edge_ids + offsets[v + 1]};
}

int Graph::EdgeId(int u, int v) const {
  if (u < 0 || v < 0 || u >= num_vertices_ || v >= num_vertices_ || u == v) return -1;
  // Search from the lower-degree endpoint.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const int* offsets = offsets_ptr();
  const int* neighbors = neighbors_ptr();
  const int begin = offsets[u];
  const int end = offsets[u + 1];
  const int* it = std::lower_bound(neighbors + begin, neighbors + end, v);
  if (it == neighbors + end || *it != v) return -1;
  return edge_ids_ptr()[it - neighbors];
}

}  // namespace dssddi::graph
