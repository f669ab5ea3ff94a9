// Golden digests for the closest-truss-community explainer. CTC output
// is what a doctor reads, so any change to the truss or CTC code must
// leave every explanation byte-identical: same found flag, vertices,
// edge ids, trussness, diameter and query distance. The first two
// digests below were captured from the original (pre-index, per-query
// global decomposition) implementation, the wide-query ones from the
// truss-indexed implementation with a CSR local search; a faster
// rewrite must reproduce them unchanged. If one fails, the explanations
// changed: fix the code, do not re-capture the digest.

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/ctc.h"
#include "algo/truss.h"
#include "data/catalog.h"
#include "data/ddi_database.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace dssddi {
namespace {

using graph::Graph;

/// 64-bit FNV-1a over a stream of ints.
class Fnv1a {
 public:
  void Add(int64_t value) {
    const uint64_t bits = static_cast<uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::vector<int>& values) {
    Add(static_cast<int64_t>(values.size()));
    for (int v : values) Add(v);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddCommunity(Fnv1a& digest, const algo::ClosestTrussCommunity& c) {
  digest.Add(c.found ? 1 : 0);
  digest.Add(c.vertices);
  digest.Add(c.edge_ids);
  digest.Add(c.trussness);
  digest.Add(c.diameter);
  digest.Add(c.query_distance);
}

/// Random graph as the CTC property suite builds it: a random spanning
/// tree plus Bernoulli(p) extra edges. Every fifth graph skips the tree,
/// so disconnected queries and isolated vertices are covered too.
Graph RandomGraph(int n, double p, bool spanning_tree, util::Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  if (spanning_tree) {
    for (int v = 1; v < n; ++v) {
      edges.emplace_back(static_cast<int>(rng.NextBelow(v)), v);
    }
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

/// 1-6 query vertices in draw order; repeats are left in (CTC
/// deduplicates them).
std::vector<int> RandomQuery(int n, util::Rng& rng) {
  const int q = static_cast<int>(rng.UniformInt(1, 6));
  std::vector<int> query;
  for (int i = 0; i < q; ++i) query.push_back(static_cast<int>(rng.NextBelow(n)));
  return query;
}

struct RandomDigests {
  uint64_t ctc = 0;
  uint64_t truss = 0;
};

RandomDigests DigestRandomGraphs() {
  Fnv1a ctc;
  Fnv1a truss;
  for (int seed = 1; seed <= 300; ++seed) {
    util::Rng rng(static_cast<uint64_t>(seed));
    const int n = static_cast<int>(rng.UniformInt(8, 48));
    const double p = rng.Uniform(0.05, 0.5);
    const Graph g = RandomGraph(n, p, seed % 5 != 0, rng);
    const std::vector<int> query = RandomQuery(n, rng);
    AddCommunity(ctc, algo::FindClosestTrussCommunity(g, query));
    truss.Add(algo::TrussDecomposition(g));
    truss.Add(algo::MaxQueryTrussness(g, query));
  }
  return {ctc.value(), truss.value()};
}

TEST(CtcGoldenTest, RandomGraphsMatchCapturedDigest) {
  const RandomDigests digests = DigestRandomGraphs();
  EXPECT_EQ(digests.ctc, 0xf2b468fed4c558f4ULL);
  EXPECT_EQ(digests.truss, 0xb96fd8b109342b53ULL);
}

TEST(CtcGoldenTest, DdiSkeletonQueriesMatchCapturedDigest) {
  // The served graph: the 86-drug interaction skeleton, queried with
  // 3-drug sets drawn exactly as bench_micro's BM_CtcQuery draws them.
  const graph::SignedGraph ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  const Graph skeleton = ddi.InteractionSkeleton();
  util::Rng rng(5);
  Fnv1a digest;
  for (int i = 0; i < 2000; ++i) {
    std::vector<int> query;
    for (int q : rng.SampleWithoutReplacement(skeleton.num_vertices(), 3)) {
      query.push_back(q);
    }
    AddCommunity(digest, algo::FindClosestTrussCommunity(skeleton, query));
  }
  EXPECT_EQ(digest.value(), 0x32ec67e7b1f04fbaULL);
}

// Wide queries: the expansion limit 4|Q| + 16 exceeds 64, so the
// candidate subgraph needs more than one 64-bit word per adjacency row.

/// |Q| distinct query vertices in draw order.
std::vector<int> WideQuery(int n, int q, util::Rng& rng) {
  std::vector<int> query;
  for (int v : rng.SampleWithoutReplacement(n, q)) query.push_back(v);
  return query;
}

TEST(CtcGoldenTest, WideQueriesOnRandomGraphsMatchCapturedDigest) {
  constexpr int kQuerySizes[] = {13, 16, 20};
  Fnv1a digest;
  for (int seed = 1; seed <= 60; ++seed) {
    util::Rng rng(static_cast<uint64_t>(1000 + seed));
    const int n = static_cast<int>(rng.UniformInt(150, 300));
    const double p = rng.Uniform(0.03, 0.2);
    const Graph g = RandomGraph(n, p, seed % 5 != 0, rng);
    const std::vector<int> query = WideQuery(n, kQuerySizes[seed % 3], rng);
    AddCommunity(digest, algo::FindClosestTrussCommunity(g, query));
  }
  EXPECT_EQ(digest.value(), 0xdcab0d2cbe866150ULL);
}

TEST(CtcGoldenTest, WideDdiSkeletonQueriesMatchCapturedDigest) {
  // 16-drug sets on the served skeleton, as bench_micro's
  // BM_CtcQueryWide draws them: an 80-vertex expansion limit on 86 drugs.
  const graph::SignedGraph ddi = data::GenerateDdiDatabase(data::Catalog::Instance());
  const Graph skeleton = ddi.InteractionSkeleton();
  const std::vector<int> truss = algo::TrussDecomposition(skeleton);
  util::Rng rng(5);
  Fnv1a digest;
  for (int i = 0; i < 300; ++i) {
    const std::vector<int> query = WideQuery(skeleton.num_vertices(), 16, rng);
    AddCommunity(digest, algo::FindClosestTrussCommunity(skeleton, truss, query));
  }
  EXPECT_EQ(digest.value(), 0x8177b00212789d31ULL);
}

}  // namespace
}  // namespace dssddi
