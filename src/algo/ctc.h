#ifndef DSSDDI_ALGO_CTC_H_
#define DSSDDI_ALGO_CTC_H_

#include <vector>

#include "graph/graph.h"

namespace dssddi::algo {

/// Result of a closest-truss-community query (paper Definition 6 /
/// Algorithm 1): the vertices/edges of the returned subgraph, its
/// trussness p, diameter, and query distance.
struct ClosestTrussCommunity {
  std::vector<int> vertices;
  std::vector<int> edge_ids;  // into the *input* graph's edge list
  int trussness = 0;
  int diameter = 0;
  /// max over community vertices of max BFS distance to a query vertex.
  int query_distance = 0;
  /// False when the query vertices are not connected in g.
  bool found = false;
};

struct CtcOptions {
  /// Expansion budget for growing the Steiner tree into a dense candidate
  /// (Algorithm 1's n0). <= 0 means 4 * |Q| + 16.
  int expansion_limit = 0;
  /// Cap on shrink iterations (safety valve; the loop is finite anyway).
  int max_shrink_iterations = 1 << 20;
};

/// Closest Truss Community search (Huang et al., VLDBJ'15), the subgraph
/// querying algorithm of the Medical Support module. Steps: (1) truss
/// decomposition of g; (2) Steiner tree over the
/// query with truss distance (edges of high trussness are cheap); (3)
/// greedy expansion by incident edges of truss >= p'; (4) local truss
/// decomposition and maximal connected p-truss extraction; (5) iterative
/// deletion of the vertices furthest from the query while maintaining the
/// p-truss property; returns the iterate with the smallest query distance.
///
/// Steps (4)-(5) and the result run on the induced candidate subgraph as
/// word-packed adjacency rows: n candidate vertices, in ascending input
/// id, each row ceil(n / 64) uint64_t words, so n^2 / 8 bytes per copy
/// (a few are live: the working rows, the best iterate, one truss level).
/// An edge's support is popcount(row[u] & row[v]); BFS levels are ORs of
/// the frontier's rows. Steps (2)-(3) run on integer bucket queues:
/// the Steiner tree's truss distance (1 + max truss - truss) is a small
/// integer, so its Dijkstra is a Dial ring of vertex bitsets, and the
/// expansion frontier is one edge bitset per truss level from p' up.
/// The tie-breaks that fix the answer are kept: Steiner's Dijkstra pops
/// by (distance, lowest vertex id) and relaxes on strict <, each
/// Voronoi-cell pair is bridged by its cheapest edge (lowest id among
/// equals), the expansion pops the highest edge id of the highest
/// non-empty truss level, i.e. the largest (truss, edge id), the shrink
/// loop keeps the last iterate among equal query distances, and
/// edge_ids come out in the input graph's (u < v) edge order.
ClosestTrussCommunity FindClosestTrussCommunity(const graph::Graph& g,
                                                const std::vector<int>& query,
                                                const CtcOptions& options = {});

/// Same, given g's truss numbers (TrussDecomposition(g)), for callers
/// that query one fixed graph many times: step (1) is then skipped.
ClosestTrussCommunity FindClosestTrussCommunity(const graph::Graph& g,
                                                const std::vector<int>& edge_truss,
                                                const std::vector<int>& query,
                                                const CtcOptions& options = {});

}  // namespace dssddi::algo

#endif  // DSSDDI_ALGO_CTC_H_
