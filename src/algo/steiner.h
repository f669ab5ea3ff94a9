#ifndef DSSDDI_ALGO_STEINER_H_
#define DSSDDI_ALGO_STEINER_H_

#include <vector>

#include "graph/graph.h"

namespace dssddi::algo {

/// Result of an approximate Steiner tree computation: edge ids of the tree
/// and the vertices it spans (terminals included).
struct SteinerTree {
  std::vector<int> edge_ids;
  std::vector<int> vertices;
  double total_weight = 0.0;
  /// False when the terminals are not all in one connected component.
  bool connected = false;
};

/// Mehlhorn's 2-approximation for the Steiner tree problem (Information
/// Processing Letters 1988), as used by the CTC search (paper Section
/// IV-C2a): multi-source shortest paths from the terminals induce a Voronoi
/// partition; an MST over the induced terminal distance graph expands into
/// graph paths; a final MST + leaf pruning yields the tree.
///
/// Edge weights are integers, each >= 1 (checked). The shortest paths run
/// on a Dial bucket queue: a ring of max weight + 1 vertex bitsets, so it
/// suits small weights. Within a distance, vertices pop lowest id first and
/// a label changes only on a strictly shorter path, which is the (distance,
/// vertex) order of a binary heap: the Voronoi cells, predecessors and
/// bridges do not depend on the queue. Each pair of cells is bridged by its
/// cheapest edge (lowest id among equals).
SteinerTree MehlhornSteinerTree(const graph::Graph& g,
                                const std::vector<int>& terminals,
                                const std::vector<int>& edge_weights);

/// Convenience overload with unit edge weights.
SteinerTree MehlhornSteinerTree(const graph::Graph& g,
                                const std::vector<int>& terminals);

/// The CTC's truss distance: edge e weighs 1 + max_truss - edge_truss[e],
/// so high-truss edges are cheap (each edge_truss[e] <= max_truss, checked).
/// Equal to the weighted overload given those weights, without building
/// them.
SteinerTree TrussDistanceSteinerTree(const graph::Graph& g,
                                     const std::vector<int>& terminals,
                                     const std::vector<int>& edge_truss,
                                     int max_truss);

}  // namespace dssddi::algo

#endif  // DSSDDI_ALGO_STEINER_H_
