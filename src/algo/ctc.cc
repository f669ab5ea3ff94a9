#include "algo/ctc.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "algo/steiner.h"
#include "algo/truss.h"
#include "util/logging.h"

namespace dssddi::algo {

namespace {

constexpr int kInfDist = std::numeric_limits<int>::max() / 2;

/// BFS over edges that are alive and whose endpoints are alive, into
/// `dist` (kInfDist where unreached); `queue` is a reusable work buffer.
void BfsAliveEdges(const graph::Graph& g, int source,
                   const std::vector<char>& alive_vertex,
                   const std::vector<char>& alive_edge, std::vector<int>& dist,
                   std::vector<int>& queue) {
  dist.assign(g.num_vertices(), kInfDist);
  if (!alive_vertex[source]) return;
  queue.clear();
  dist[source] = 0;
  queue.push_back(source);
  for (size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    const auto nbrs = g.Neighbors(v);
    const auto eids = g.IncidentEdges(v);
    for (int i = 0; i < nbrs.size(); ++i) {
      const int u = nbrs.begin()[i];
      if (!alive_edge[eids.begin()[i]] || !alive_vertex[u]) continue;
      if (dist[u] == kInfDist) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }
}

/// Per-vertex query distance into `result`: max BFS distance to any
/// query vertex. Returns whether the query is connected, i.e. every
/// query vertex is reachable from every other.
bool QueryDistances(const graph::Graph& g, const std::vector<int>& query,
                    const std::vector<char>& alive_vertex,
                    const std::vector<char>& alive_edge, std::vector<int>& result,
                    std::vector<int>& dist, std::vector<int>& queue) {
  result.assign(g.num_vertices(), 0);
  for (int q : query) {
    BfsAliveEdges(g, q, alive_vertex, alive_edge, dist, queue);
    for (int v = 0; v < g.num_vertices(); ++v) {
      result[v] = std::max(result[v], dist[v]);
    }
  }
  for (int q : query) {
    if (result[q] >= kInfDist) return false;
  }
  return true;
}

/// Removes edges whose alive support drops below p-2 (cascading), then
/// kills vertices with no alive incident edges. Query vertices are never
/// killed here; if one ends up isolated the caller detects disconnection.
/// The alive edges plus `removed` must have formed a p-truss, so only
/// edges that shared a triangle with a removed edge can have fallen
/// below p-2; the maximal p-truss left is the same whatever the order.
void MaintainPTruss(const graph::Graph& g, int p, std::vector<char>& alive_vertex,
                    std::vector<char>& alive_edge, const std::vector<char>& is_query,
                    const std::vector<int>& removed, std::vector<int>& to_check) {
  auto edge_alive = [&](int e) {
    auto [u, v] = g.Edge(e);
    return alive_edge[e] && alive_vertex[u] && alive_vertex[v];
  };
  auto support_of = [&](int e) {
    auto [u, v] = g.Edge(e);
    if (g.Degree(u) > g.Degree(v)) std::swap(u, v);
    int support = 0;
    for (int w : g.Neighbors(u)) {
      if (w == v || !alive_vertex[w]) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw >= 0 && edge_alive(e_uw) && edge_alive(e_vw)) ++support;
    }
    return support;
  };
  // Queues the alive edges that shared a triangle with dead edge e.
  auto push_partners = [&](int e) {
    auto [u, v] = g.Edge(e);
    if (g.Degree(u) > g.Degree(v)) std::swap(u, v);
    for (int w : g.Neighbors(u)) {
      if (w == v) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw >= 0) {
        if (edge_alive(e_uw)) to_check.push_back(e_uw);
        if (edge_alive(e_vw)) to_check.push_back(e_vw);
      }
    }
  };

  to_check.clear();
  for (int e : removed) push_partners(e);
  for (size_t head = 0; head < to_check.size(); ++head) {
    const int e = to_check[head];
    if (!edge_alive(e)) continue;
    if (support_of(e) >= p - 2) continue;
    alive_edge[e] = 0;
    push_partners(e);
  }
  // Kill isolated non-query vertices.
  std::vector<int> alive_degree(g.num_vertices(), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    if (!edge_alive(e)) continue;
    auto [u, v] = g.Edge(e);
    ++alive_degree[u];
    ++alive_degree[v];
  }
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (alive_vertex[v] && alive_degree[v] == 0 && !is_query[v]) alive_vertex[v] = 0;
  }
}

}  // namespace

ClosestTrussCommunity FindClosestTrussCommunity(const graph::Graph& g,
                                                const std::vector<int>& query,
                                                const CtcOptions& options) {
  return FindClosestTrussCommunity(g, TrussDecomposition(g), query, options);
}

ClosestTrussCommunity FindClosestTrussCommunity(const graph::Graph& g,
                                                const std::vector<int>& truss,
                                                const std::vector<int>& query,
                                                const CtcOptions& options) {
  ClosestTrussCommunity result;
  if (query.empty()) return result;
  for (int q : query) {
    DSSDDI_CHECK(q >= 0 && q < g.num_vertices()) << "query vertex out of range";
  }
  std::vector<int> unique_query = query;
  std::sort(unique_query.begin(), unique_query.end());
  unique_query.erase(std::unique(unique_query.begin(), unique_query.end()),
                     unique_query.end());

  if (unique_query.size() == 1 && g.Degree(unique_query.front()) == 0) {
    result.found = true;
    result.vertices = unique_query;
    return result;
  }

  // Step 1: truss numbers of g (the caller's); truss distance makes
  // high-truss edges cheap so the Steiner tree prefers dense regions.
  DSSDDI_CHECK(static_cast<int>(truss.size()) == g.num_edges())
      << "edge_truss is not parallel to the graph's edges";
  const int max_truss =
      truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  std::vector<double> weights(g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    weights[e] = 1.0 + static_cast<double>(max_truss - truss[e]);
  }

  // Step 2: Steiner tree over the query.
  const SteinerTree steiner = MehlhornSteinerTree(g, unique_query, weights);
  if (!steiner.connected) return result;  // found = false

  // Step 3: expand G'0 by adjacent edges with truss >= p'.
  int p_prime = max_truss;
  for (int e : steiner.edge_ids) p_prime = std::min(p_prime, truss[e]);
  if (steiner.edge_ids.empty()) p_prime = 2;

  std::vector<char> in_candidate(g.num_vertices(), 0);
  int candidate_size = 0;
  const int expansion_limit = options.expansion_limit > 0
      ? options.expansion_limit
      : 4 * static_cast<int>(unique_query.size()) + 16;
  // Greedy frontier of incident edges, highest truss first. Pops depend
  // only on the frontier's contents, never on push order.
  using Item = std::pair<int, int>;  // (truss, edge)
  std::priority_queue<Item> frontier;
  std::vector<char> edge_seen(g.num_edges(), 0);
  auto add_vertex = [&](int v) {
    if (in_candidate[v]) return;
    in_candidate[v] = 1;
    ++candidate_size;
    for (int e : g.IncidentEdges(v)) {
      if (!edge_seen[e] && truss[e] >= p_prime) {
        edge_seen[e] = 1;
        frontier.emplace(truss[e], e);
      }
    }
  };
  for (int v : steiner.vertices) add_vertex(v);
  while (candidate_size < expansion_limit && !frontier.empty()) {
    auto [t, e] = frontier.top();
    frontier.pop();
    auto [u, v] = g.Edge(e);
    add_vertex(u);
    add_vertex(v);
  }

  // Step 4: local truss decomposition on the induced candidate. One
  // decomposition gives both the query's trussness p and the maximal
  // p-truss, which is exactly {e : truss(e) >= p}.
  std::vector<int> new_to_old;
  std::vector<int> candidate_vertices;
  candidate_vertices.reserve(candidate_size);
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (in_candidate[v]) candidate_vertices.push_back(v);
  }
  const graph::Graph sub = g.InducedSubgraph(candidate_vertices, &new_to_old);
  std::vector<int> old_to_new(g.num_vertices(), -1);
  for (size_t i = 0; i < new_to_old.size(); ++i) old_to_new[new_to_old[i]] = static_cast<int>(i);
  std::vector<int> sub_query;
  sub_query.reserve(unique_query.size());
  for (int q : unique_query) sub_query.push_back(old_to_new[q]);

  // The Steiner tree lies inside the candidate, so the query is connected
  // in sub (p >= 2), and by the definition of p it stays connected over
  // the edges with truss >= p.
  const std::vector<int> sub_truss = TrussDecomposition(sub);
  const int p = MaxQueryTrussness(sub, sub_truss, sub_query);
  DSSDDI_CHECK(p >= 2) << "query disconnected inside its own Steiner tree";
  std::vector<char> alive_edge(sub.num_edges());
  for (int e = 0; e < sub.num_edges(); ++e) alive_edge[e] = sub_truss[e] >= p;
  std::vector<char> alive_vertex(sub.num_vertices(), 0);
  std::vector<char> is_query(sub.num_vertices(), 0);
  for (int q : sub_query) is_query[q] = 1;
  {
    std::vector<int> alive_degree(sub.num_vertices(), 0);
    for (int e = 0; e < sub.num_edges(); ++e) {
      if (!alive_edge[e]) continue;
      auto [u, v] = sub.Edge(e);
      ++alive_degree[u];
      ++alive_degree[v];
    }
    for (int v = 0; v < sub.num_vertices(); ++v) {
      alive_vertex[v] = alive_degree[v] > 0 || is_query[v];
    }
  }
  // Restrict to the component containing the query.
  std::vector<int> dist;
  std::vector<int> queue;
  BfsAliveEdges(sub, sub_query.front(), alive_vertex, alive_edge, dist, queue);
  for (int v = 0; v < sub.num_vertices(); ++v) {
    if (dist[v] >= kInfDist) alive_vertex[v] = 0;
  }
  for (int e = 0; e < sub.num_edges(); ++e) {
    auto [u, v] = sub.Edge(e);
    if (!alive_vertex[u] || !alive_vertex[v]) alive_edge[e] = 0;
  }

  // Step 5: shrink — delete furthest vertices, maintain p-truss, keep the
  // iterate with the smallest query distance. Each iteration's query
  // distances are computed once and serve the next iteration's deletion.
  std::vector<int> qd;
  QueryDistances(sub, sub_query, alive_vertex, alive_edge, qd, dist, queue);
  std::vector<char> best_vertex = alive_vertex;
  std::vector<char> best_edge = alive_edge;
  int best_distance = 0;
  for (int v = 0; v < sub.num_vertices(); ++v) {
    if (alive_vertex[v] && qd[v] < kInfDist) best_distance = std::max(best_distance, qd[v]);
  }

  std::vector<int> removed_edges;
  std::vector<int> to_check;
  for (int iter = 0; iter < options.max_shrink_iterations; ++iter) {
    int community_distance = 0;
    for (int v = 0; v < sub.num_vertices(); ++v) {
      if (alive_vertex[v]) community_distance = std::max(community_distance, qd[v]);
    }
    // Delete all non-query vertices at the current maximum distance.
    bool deleted = false;
    if (community_distance > 0) {
      for (int v = 0; v < sub.num_vertices(); ++v) {
        if (alive_vertex[v] && !is_query[v] && qd[v] >= community_distance) {
          alive_vertex[v] = 0;
          deleted = true;
        }
      }
    }
    if (!deleted) break;
    removed_edges.clear();
    for (int e = 0; e < sub.num_edges(); ++e) {
      auto [u, v] = sub.Edge(e);
      if (alive_edge[e] && (!alive_vertex[u] || !alive_vertex[v])) {
        alive_edge[e] = 0;
        removed_edges.push_back(e);
      }
    }
    MaintainPTruss(sub, p, alive_vertex, alive_edge, is_query, removed_edges, to_check);
    if (!QueryDistances(sub, sub_query, alive_vertex, alive_edge, qd, dist, queue)) break;

    int distance_after = 0;
    for (int v = 0; v < sub.num_vertices(); ++v) {
      if (alive_vertex[v] && qd[v] < kInfDist) {
        distance_after = std::max(distance_after, qd[v]);
      }
    }
    if (distance_after <= best_distance) {
      best_distance = distance_after;
      best_vertex = alive_vertex;
      best_edge = alive_edge;
    }
  }

  // Materialize the result in original ids.
  result.found = true;
  result.trussness = p;
  result.query_distance = best_distance;
  for (int v = 0; v < sub.num_vertices(); ++v) {
    if (best_vertex[v]) result.vertices.push_back(new_to_old[v]);
  }
  for (int e = 0; e < sub.num_edges(); ++e) {
    auto [u, v] = sub.Edge(e);
    if (best_edge[e] && best_vertex[u] && best_vertex[v]) {
      result.edge_ids.push_back(g.EdgeId(new_to_old[u], new_to_old[v]));
    }
  }
  // Diameter of the returned community: its largest finite BFS distance.
  for (int source = 0; source < sub.num_vertices(); ++source) {
    if (!best_vertex[source]) continue;
    BfsAliveEdges(sub, source, best_vertex, best_edge, dist, queue);
    for (int d : dist) {
      if (d < kInfDist) result.diameter = std::max(result.diameter, d);
    }
  }
  return result;
}

}  // namespace dssddi::algo
