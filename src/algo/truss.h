#ifndef DSSDDI_ALGO_TRUSS_H_
#define DSSDDI_ALGO_TRUSS_H_

#include <vector>

#include "graph/graph.h"

namespace dssddi::algo {

/// Number of triangles containing each edge (paper Definition 5's
/// sup(e, G)). Index parallel to g.edges().
std::vector<int> EdgeSupport(const graph::Graph& g);

/// Truss decomposition via support peeling (Wang & Cheng, PVLDB'12):
/// repeatedly removes the edge of minimum support; the truss number of an
/// edge is (its support at removal time) + 2. Every edge has truss >= 2.
/// Edges are kept bin-sorted by support, so the peel is one pass.
std::vector<int> TrussDecomposition(const graph::Graph& g);

/// Maximum p such that a connected p-truss containing all of `query`
/// exists in g; 0 if the query vertices are not connected at all.
int MaxQueryTrussness(const graph::Graph& g, const std::vector<int>& query);

/// Same, given g's truss numbers (TrussDecomposition(g)): the largest p
/// at which the query is connected over edges with truss >= p.
int MaxQueryTrussness(const graph::Graph& g, const std::vector<int>& edge_truss,
                      const std::vector<int>& query);

/// Edges of the maximal subgraph in which every edge has truss >= p
/// ("the p-truss of G"). Returned as alive-edge flags parallel to edges().
std::vector<char> PTrussEdges(const graph::Graph& g, int p);

/// True iff, restricted to alive edges/vertices, every edge has support
/// >= p - 2 (invariant checked by tests and the CTC shrink loop).
bool IsPTruss(const graph::Graph& g, const std::vector<char>& alive_edges, int p);

}  // namespace dssddi::algo

#endif  // DSSDDI_ALGO_TRUSS_H_
