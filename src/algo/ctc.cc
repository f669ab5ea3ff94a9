#include "algo/ctc.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "algo/bits.h"
#include "algo/steiner.h"
#include "algo/truss.h"
#include "util/logging.h"

namespace dssddi::algo {

namespace {

constexpr int kInfDist = std::numeric_limits<int>::max() / 2;

using Bits = std::vector<uint64_t>;

/// The candidate subgraph as word-packed adjacency rows: bit v of row u
/// is set iff edge {u, v} is alive. A dead vertex has an empty row and
/// no bit in any other row, so edges need no alive flags of their own.
class BitRows {
 public:
  explicit BitRows(int n)
      : n_(n), words_((n + 63) / 64), bits_(static_cast<size_t>(n) * words_, 0) {}

  int words() const { return words_; }
  const uint64_t* Row(int u) const { return bits_.data() + static_cast<size_t>(u) * words_; }
  bool Has(int u, int v) const { return TestBit(Row(u), v); }
  void Add(int u, int v) {
    SetBit(MutableRow(u), v);
    SetBit(MutableRow(v), u);
  }
  void Remove(int u, int v) {
    ClearBit(MutableRow(u), v);
    ClearBit(MutableRow(v), u);
  }
  /// Drops every edge at u.
  void Isolate(int u) {
    ForEachBit(words_, [&](int w) { return Row(u)[w]; },
               [&](int v) { ClearBit(MutableRow(v), u); });
    std::fill_n(MutableRow(u), words_, 0);
  }
  bool Isolated(int u) const {
    const uint64_t* row = Row(u);
    return std::all_of(row, row + words_, [](uint64_t w) { return w == 0; });
  }
  bool Empty() const {
    return std::all_of(bits_.begin(), bits_.end(), [](uint64_t w) { return w == 0; });
  }
  /// sup({u, v}): the common neighbors of u and v.
  int Support(int u, int v) const {
    int support = 0;
    for (int w = 0; w < words_; ++w) support += __builtin_popcountll(Row(u)[w] & Row(v)[w]);
    return support;
  }
  /// Calls visit(w) for every common neighbor w of u and v.
  template <typename Visit>
  void ForEachCommon(int u, int v, Visit&& visit) const {
    ForEachBit(words_, [&](int w) { return Row(u)[w] & Row(v)[w]; }, visit);
  }
  /// Calls visit(u, v) for every alive edge, u < v, in lexicographic order.
  template <typename Visit>
  void ForEachEdge(Visit&& visit) const {
    for (int u = 0; u < n_; ++u) {
      ForEachBit(words_, [&](int w) { return Row(u)[w]; }, [&](int v) {
        if (u < v) visit(u, v);
      });
    }
  }

 private:
  uint64_t* MutableRow(int u) { return bits_.data() + static_cast<size_t>(u) * words_; }

  int n_;
  int words_;
  Bits bits_;
};

/// Breadth-first search over BitRows: each level is the OR of the
/// frontier's rows minus what was already seen.
class BitBfs {
 public:
  explicit BitBfs(int words) : seen_(words), frontier_(words), next_(words) {}

  /// Calls visit(v, depth) for every vertex reachable from `source`
  /// (source first, at depth 0), level by level. Returns the largest
  /// depth reached; seen() is then the reached set.
  template <typename Visit>
  int Run(const BitRows& rows, int source, Visit&& visit) {
    const int words = rows.words();
    std::fill(seen_.begin(), seen_.end(), 0);
    std::fill(frontier_.begin(), frontier_.end(), 0);
    SetBit(seen_.data(), source);
    SetBit(frontier_.data(), source);
    visit(source, 0);
    for (int depth = 1;; ++depth) {
      std::fill(next_.begin(), next_.end(), 0);
      ForEachBit(words, [&](int w) { return frontier_[w]; }, [&](int v) {
        const uint64_t* row = rows.Row(v);
        for (int w = 0; w < words; ++w) next_[w] |= row[w];
      });
      bool grew = false;
      for (int w = 0; w < words; ++w) {
        next_[w] &= ~seen_[w];
        seen_[w] |= next_[w];
        grew = grew || next_[w] != 0;
      }
      if (!grew) return depth - 1;
      ForEachBit(words, [&](int w) { return next_[w]; },
                 [&](int v) { visit(v, depth); });
      frontier_.swap(next_);
    }
  }
  const Bits& seen() const { return seen_; }

 private:
  Bits seen_;
  Bits frontier_;
  Bits next_;
};

/// Peels `rows` down to its maximal k-truss: edges in fewer than k - 2
/// triangles are dropped, cascading. The maximal k-truss is unique, so
/// neither the scan order nor the cascade order matters.
void PeelToTruss(BitRows& rows, int k, std::vector<std::pair<int, int>>& stack) {
  stack.clear();
  rows.ForEachEdge([&](int u, int v) {
    if (rows.Support(u, v) < k - 2) stack.emplace_back(u, v);
  });
  while (!stack.empty()) {
    const auto [u, v] = stack.back();
    stack.pop_back();
    if (!rows.Has(u, v) || rows.Support(u, v) >= k - 2) continue;
    rows.Remove(u, v);
    rows.ForEachCommon(u, v, [&](int w) {
      stack.emplace_back(u, w);
      stack.emplace_back(v, w);
    });
  }
}

/// Whether every query vertex is reachable from the first one.
bool QueryConnected(const BitRows& rows, const std::vector<int>& query, BitBfs& bfs) {
  bfs.Run(rows, query.front(), [](int, int) {});
  return std::all_of(query.begin(), query.end(),
                     [&](int q) { return TestBit(bfs.seen().data(), q); });
}

/// Query distance of each alive vertex into `qd`: its largest BFS
/// distance to a query vertex, kInfDist if some query vertex cannot
/// reach it. Returns whether the query is connected.
bool QueryDistances(const BitRows& rows, const std::vector<int>& query,
                    const Bits& alive, std::vector<int>& qd, BitBfs& bfs) {
  std::fill(qd.begin(), qd.end(), 0);
  bool connected = true;
  for (int q : query) {
    bfs.Run(rows, q, [&](int v, int depth) { qd[v] = std::max(qd[v], depth); });
    const Bits& seen = bfs.seen();
    ForEachBit(rows.words(), [&](int w) { return alive[w] & ~seen[w]; },
               [&](int v) { qd[v] = kInfDist; });
    for (int other : query) connected = connected && TestBit(seen.data(), other);
  }
  return connected;
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

  // Step 2: Steiner tree over the query under truss distance.
  const SteinerTree steiner = TrussDistanceSteinerTree(g, unique_query, truss, max_truss);
  if (!steiner.connected) return result;  // found = false

  // Step 3: expand G'0 by adjacent edges with truss >= p'.
  int p_prime = max_truss;
  for (int e : steiner.edge_ids) p_prime = std::min(p_prime, truss[e]);
  if (steiner.edge_ids.empty()) p_prime = 2;

  // Candidate membership; after the expansion, each member's local id.
  std::vector<int> local_id(g.num_vertices(), -1);
  std::vector<int> candidate;
  const int expansion_limit = options.expansion_limit > 0
      ? options.expansion_limit
      : 4 * static_cast<int>(unique_query.size()) + 16;
  // Greedy frontier of incident edges, highest truss first: one edge
  // bitset per truss level p'..max_truss, and a pop takes the highest
  // edge id of the highest non-empty level, i.e. the largest (truss,
  // edge id). An edge whose far end is already a candidate would add
  // nothing when popped, so it is never pushed, and no edge is pushed
  // twice.
  const int edge_words = (g.num_edges() + 63) / 64;
  Bits frontier(static_cast<size_t>(max_truss - p_prime + 1) * edge_words, 0);
  auto level = [&](int t) {
    return frontier.data() + static_cast<size_t>(t - p_prime) * edge_words;
  };
  int top = p_prime - 1;  // no level above `top` holds an edge
  auto add_vertex = [&](int v) {
    if (local_id[v] >= 0) return;
    local_id[v] = 0;
    candidate.push_back(v);
    const auto nbrs = g.Neighbors(v);
    const auto eids = g.IncidentEdges(v);
    for (int i = 0; i < nbrs.size(); ++i) {
      const int e = eids.begin()[i];
      if (local_id[nbrs.begin()[i]] < 0 && truss[e] >= p_prime) {
        SetBit(level(truss[e]), e);
        top = std::max(top, truss[e]);
      }
    }
  };
  // Pops the largest (truss, edge id) into `e`; false when empty.
  auto pop = [&](int& e) {
    for (; top >= p_prime; --top) {
      uint64_t* bits = level(top);
      for (int w = edge_words - 1; w >= 0; --w) {
        if (bits[w] == 0) continue;
        e = 64 * w + 63 - __builtin_clzll(bits[w]);
        ClearBit(bits, e);
        return true;
      }
    }
    return false;
  };
  for (int v : steiner.vertices) add_vertex(v);
  int e = -1;
  while (static_cast<int>(candidate.size()) < expansion_limit && pop(e)) {
    auto [u, v] = g.Edge(e);
    add_vertex(u);
    add_vertex(v);
  }

  // The induced candidate as bitset rows, local ids in ascending
  // original id, so local edge order is the input graph's edge order.
  std::sort(candidate.begin(), candidate.end());
  const int n = static_cast<int>(candidate.size());
  for (int i = 0; i < n; ++i) local_id[candidate[i]] = i;
  BitRows rows(n);
  for (int i = 0; i < n; ++i) {
    for (int w : g.Neighbors(candidate[i])) {
      if (local_id[w] > i) rows.Add(i, local_id[w]);
    }
  }
  std::vector<int> sub_query;
  sub_query.reserve(unique_query.size());
  for (int q : unique_query) sub_query.push_back(local_id[q]);
  std::vector<char> is_query(n, 0);
  for (int q : sub_query) is_query[q] = 1;

  // Step 4: the query's trussness p is the largest k whose maximal
  // k-truss (every edge in >= k - 2 triangles, i.e. {e : truss(e) >= k})
  // is non-empty and connects the query; k-trusses nest, so peel level
  // by level until the next one fails. The Steiner tree lies inside
  // the candidate, so the 2-truss (every edge) connects the query.
  BitBfs bfs(rows.words());
  DSSDDI_CHECK(QueryConnected(rows, sub_query, bfs))
      << "query disconnected inside its own Steiner tree";
  std::vector<std::pair<int, int>> stack;
  int p = 2;
  for (BitRows next = rows;; rows = next, ++p) {
    PeelToTruss(next, p + 1, stack);
    if (next.Empty() || !QueryConnected(next, sub_query, bfs)) break;
  }
  // Restrict the maximal p-truss to the component containing the query.
  bfs.Run(rows, sub_query.front(), [](int, int) {});
  Bits alive = bfs.seen();
  for (int v = 0; v < n; ++v) {
    if (!TestBit(alive.data(), v)) rows.Isolate(v);
  }

  // Step 5: shrink — delete furthest vertices, maintain p-truss, keep the
  // iterate with the smallest query distance. Each iteration's query
  // distances are computed once and serve the next iteration's deletion.
  std::vector<int> qd(n, 0);
  auto for_each_alive = [&](auto&& visit) {
    ForEachBit(rows.words(), [&](int w) { return alive[w]; }, visit);
  };
  // Largest finite query distance over the alive vertices.
  auto finite_query_distance = [&] {
    int distance = 0;
    for_each_alive([&](int v) {
      if (qd[v] < kInfDist) distance = std::max(distance, qd[v]);
    });
    return distance;
  };
  QueryDistances(rows, sub_query, alive, qd, bfs);
  BitRows best_rows = rows;
  Bits best_alive = alive;
  int best_distance = finite_query_distance();

  for (int iter = 0; iter < options.max_shrink_iterations; ++iter) {
    int community_distance = 0;
    for_each_alive([&](int v) { community_distance = std::max(community_distance, qd[v]); });
    // Delete all non-query vertices at the current maximum distance.
    bool deleted = false;
    if (community_distance > 0) {
      for_each_alive([&](int v) {
        if (!is_query[v] && qd[v] >= community_distance) {
          ClearBit(alive.data(), v);
          rows.Isolate(v);
          deleted = true;
        }
      });
    }
    if (!deleted) break;
    // What is left of a p-truss after the deletion: peel it back to one,
    // then drop the non-query vertices that lost every edge. A query
    // vertex left isolated disconnects the query.
    PeelToTruss(rows, p, stack);
    for_each_alive([&](int v) {
      if (!is_query[v] && rows.Isolated(v)) ClearBit(alive.data(), v);
    });
    if (!QueryDistances(rows, sub_query, alive, qd, bfs)) break;

    const int distance_after = finite_query_distance();
    if (distance_after <= best_distance) {
      best_distance = distance_after;
      best_rows = rows;
      best_alive = alive;
    }
  }

  // Materialize the result in original ids; edges come out in the
  // input graph's (u < v) lexicographic order.
  result.found = true;
  result.trussness = p;
  result.query_distance = best_distance;
  ForEachBit(best_rows.words(), [&](int w) { return best_alive[w]; },
             [&](int v) { result.vertices.push_back(candidate[v]); });
  best_rows.ForEachEdge([&](int u, int v) {
    result.edge_ids.push_back(g.EdgeId(candidate[u], candidate[v]));
  });
  // Diameter of the returned community: its largest eccentricity.
  ForEachBit(best_rows.words(), [&](int w) { return best_alive[w]; }, [&](int source) {
    result.diameter = std::max(result.diameter, bfs.Run(best_rows, source, [](int, int) {}));
  });
  return result;
}

}  // namespace dssddi::algo
