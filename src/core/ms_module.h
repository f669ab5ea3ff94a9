#ifndef DSSDDI_CORE_MS_MODULE_H_
#define DSSDDI_CORE_MS_MODULE_H_

#include <string>
#include <vector>

#include "algo/ctc.h"
#include "graph/signed_graph.h"

namespace dssddi::core {

/// One interaction surfaced by an explanation.
struct InteractionEdge {
  int drug_u = 0;
  int drug_v = 0;
  graph::EdgeSign sign = graph::EdgeSign::kNone;
};

/// Explanation of a drug suggestion (paper Section IV-C): the closest
/// dense DDI subgraph around the suggested drugs, the interactions it
/// exposes, and the Suggestion Satisfaction score.
struct Explanation {
  std::vector<int> suggested_drugs;
  std::vector<int> subgraph_drugs;  // includes the suggested drugs
  /// All synergistic/antagonistic edges inside the subgraph.
  std::vector<InteractionEdge> subgraph_edges;
  /// Interactions among the suggested drugs themselves.
  std::vector<InteractionEdge> synergies_within;
  std::vector<InteractionEdge> antagonisms_within;
  /// Antagonisms between suggested and non-suggested subgraph drugs
  /// (evidence the system steered away from bad partners).
  std::vector<InteractionEdge> antagonisms_outward;
  double suggestion_satisfaction = 0.0;
  /// Truss number of the extracted community (0 under the
  /// densest-subgraph explainer, which does not compute truss).
  int trussness = 0;
  int diameter = 0;
  /// |E| / |V| of the subgraph (filled by the densest-subgraph explainer;
  /// 0 under CTC).
  double density = 0.0;
};

/// Subgraph-extraction backend for explanations. The paper uses the
/// closest truss community; the anchored densest subgraph is an ablation
/// alternative (compared in bench_ms_explainers).
enum class ExplainerKind {
  kClosestTrussCommunity,
  kDensestSubgraph,
};

std::string ExplainerKindName(ExplainerKind kind);

/// The Medical Support module: subgraph querying (closest truss
/// community) + the Suggestion Satisfaction measure (Definition 7).
class MsModule {
 public:
  /// `alpha` balances within-suggestion synergy against outward
  /// antagonism in SS (Eq. 19). The skeleton's sign table, and the CTC
  /// explainer's truss index over it, are built here, once per module.
  explicit MsModule(const graph::SignedGraph& ddi, double alpha = 0.5,
                    ExplainerKind explainer = ExplainerKind::kClosestTrussCommunity);

  /// Same, with a prebuilt interaction skeleton instead of deriving it
  /// from `ddi` — the bundle-v4 path hands over a zero-copy CSR view of
  /// the file's graph section (which must equal ddi.InteractionSkeleton()
  /// and outlive this module; the loader validates the former, the
  /// serving snapshot guarantees the latter).
  MsModule(const graph::SignedGraph& ddi, graph::Graph skeleton, double alpha,
           ExplainerKind explainer);

  /// Full explanation for a suggested drug set.
  Explanation Explain(const std::vector<int>& suggested_drugs) const;

  /// Just the SS value (Eq. 19) for a suggested drug set.
  double SuggestionSatisfaction(const std::vector<int>& suggested_drugs) const;

  /// Renders an explanation like the paper's system-output panel
  /// ("Suggestion: ... Explanation: Synergism: ... Antagonism: ...").
  std::string Render(const Explanation& explanation,
                     const std::vector<std::string>& drug_names) const;

  double alpha() const { return alpha_; }
  ExplainerKind explainer() const { return explainer_; }

 private:
  const graph::SignedGraph& ddi_;
  graph::Graph skeleton_;
  double alpha_;
  ExplainerKind explainer_;
  /// Truss number of every skeleton edge, computed once here (CTC
  /// explainer only; empty otherwise) so a query never re-peels the
  /// fixed skeleton.
  std::vector<int> skeleton_truss_;
  /// Sign of every skeleton edge, parallel to its edges: what
  /// ddi.SignOf returns for the pair. The skeleton is exactly the pairs
  /// whose sign is not kNone, so a pair that is not an edge has kNone.
  std::vector<graph::EdgeSign> skeleton_sign_;

  /// ddi.SignOf(u, v), read from the sign table.
  graph::EdgeSign SignOf(int u, int v) const;
};

}  // namespace dssddi::core

#endif  // DSSDDI_CORE_MS_MODULE_H_
