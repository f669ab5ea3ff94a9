#ifndef DSSDDI_GRAPH_GRAPH_H_
#define DSSDDI_GRAPH_GRAPH_H_

#include <string>
#include <utility>
#include <vector>

namespace dssddi::graph {

/// Undirected simple graph with contiguous vertex ids [0, n) and stable
/// edge ids [0, m). Built once, then immutable; the community-search
/// algorithms in src/algo operate on this type.
///
/// Two storage modes share one read API:
///   * owning (FromEdges) — heap vectors, the historical mode;
///   * CSR view (FromCsrView) — non-owning pointers into externally
///     owned flat arrays, e.g. a bundle-v4 mmap'd graph section. The
///     arrays must outlive the Graph; copies of a view alias the same
///     memory (the serving snapshot pins the mapping alongside it).
class Graph {
 public:
  Graph() = default;

  /// Builds from an edge list; self-loops are rejected, duplicate edges
  /// (in either orientation) are merged.
  static Graph FromEdges(int num_vertices, const std::vector<std::pair<int, int>>& edges);

  /// Non-owning view over prebuilt CSR arrays laid out exactly as
  /// FromEdges builds them:
  ///   endpoints     2E ints: edge e = (endpoints[2e], endpoints[2e+1]),
  ///                 u < v, lexicographically ascending and unique;
  ///   adj_offsets   V+1 monotone ints, adj_offsets[V] == 2E;
  ///   adj_neighbors 2E ints, strictly ascending within each bucket;
  ///   adj_edge_ids  2E ints parallel to adj_neighbors.
  /// Every CSR invariant is re-validated here (O(V + E) integer checks)
  /// so corrupt or hostile mapped bytes fail cleanly instead of
  /// crashing an algorithm later. Returns false with `error` filled on
  /// any violation.
  static bool FromCsrView(int num_vertices, int num_edges,
                          const int* endpoints, const int* adj_offsets,
                          const int* adj_neighbors, const int* adj_edge_ids,
                          Graph* out, std::string* error);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const {
    return view_endpoints_ != nullptr ? num_edges_
                                      : static_cast<int>(edges_.size());
  }
  bool is_view() const { return view_endpoints_ != nullptr; }

  /// Endpoints of edge `e`, with first < second.
  std::pair<int, int> Edge(int e) const {
    if (view_endpoints_ != nullptr) {
      return {view_endpoints_[2 * e], view_endpoints_[2 * e + 1]};
    }
    return edges_[e];
  }
  /// Owning mode only (aborts on a view): the raw edge vector. Callers
  /// that must work in both modes iterate Edge(e) instead.
  const std::vector<std::pair<int, int>>& edges() const;

  int Degree(int v) const {
    const int* offsets = offsets_ptr();
    return offsets[v + 1] - offsets[v];
  }

  /// Neighbors of v in ascending order.
  struct NeighborRange {
    const int* begin_ptr;
    const int* end_ptr;
    const int* begin() const { return begin_ptr; }
    const int* end() const { return end_ptr; }
    int size() const { return static_cast<int>(end_ptr - begin_ptr); }
  };
  NeighborRange Neighbors(int v) const;

  /// Edge ids parallel to Neighbors(v).
  NeighborRange IncidentEdges(int v) const;

  /// Edge id of {u, v}, or -1 if absent. O(log deg).
  int EdgeId(int u, int v) const;

  bool HasEdge(int u, int v) const { return EdgeId(u, v) >= 0; }

  // ---- Flat CSR access (both modes) — what the bundle-v4 writer
  // serializes so a later FromCsrView reconstructs this exact graph. ----
  const int* adj_offsets_data() const { return offsets_ptr(); }
  const int* adj_neighbors_data() const { return neighbors_ptr(); }
  const int* adj_edge_ids_data() const { return edge_ids_ptr(); }

 private:
  const int* offsets_ptr() const {
    return view_offsets_ != nullptr ? view_offsets_ : adj_offsets_.data();
  }
  const int* neighbors_ptr() const {
    return view_neighbors_ != nullptr ? view_neighbors_
                                      : adj_neighbors_.data();
  }
  const int* edge_ids_ptr() const {
    return view_edge_ids_ != nullptr ? view_edge_ids_ : adj_edge_ids_.data();
  }

  int num_vertices_ = 0;
  std::vector<std::pair<int, int>> edges_;
  std::vector<int> adj_offsets_;
  std::vector<int> adj_neighbors_;
  std::vector<int> adj_edge_ids_;

  /// View mode: all four non-null, owning vectors empty.
  int num_edges_ = 0;
  const int* view_endpoints_ = nullptr;
  const int* view_offsets_ = nullptr;
  const int* view_neighbors_ = nullptr;
  const int* view_edge_ids_ = nullptr;
};

}  // namespace dssddi::graph

#endif  // DSSDDI_GRAPH_GRAPH_H_
