#include "core/ms_module.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "algo/bfs.h"
#include "algo/densest.h"
#include "algo/truss.h"
#include "util/logging.h"

namespace dssddi::core {

std::string ExplainerKindName(ExplainerKind kind) {
  switch (kind) {
    case ExplainerKind::kClosestTrussCommunity: return "closest-truss-community";
    case ExplainerKind::kDensestSubgraph: return "densest-subgraph";
  }
  return "unknown";
}

MsModule::MsModule(const graph::SignedGraph& ddi, double alpha,
                   ExplainerKind explainer)
    : MsModule(ddi, ddi.InteractionSkeleton(), alpha, explainer) {}

MsModule::MsModule(const graph::SignedGraph& ddi, graph::Graph skeleton,
                   double alpha, ExplainerKind explainer)
    : ddi_(ddi),
      skeleton_(std::move(skeleton)),
      alpha_(alpha),
      explainer_(explainer) {
  DSSDDI_CHECK(alpha > 0.0 && alpha < 1.0) << "alpha must lie in (0, 1)";
  DSSDDI_CHECK(skeleton_.num_vertices() == ddi.num_vertices())
      << "skeleton vertex count disagrees with the DDI graph";
  if (explainer_ == ExplainerKind::kClosestTrussCommunity) {
    skeleton_truss_ = algo::TrussDecomposition(skeleton_);
  }
  // One pass over the DDI edges. A pair listed more than once keeps its
  // smallest sign, as SignedGraph::SignOf does.
  skeleton_sign_.assign(skeleton_.num_edges(), graph::EdgeSign::kSynergistic);
  for (const graph::SignedEdge& edge : ddi.edges()) {
    const int e = skeleton_.EdgeId(edge.u, edge.v);
    if (e >= 0) skeleton_sign_[e] = std::min(skeleton_sign_[e], edge.sign);
  }
}

graph::EdgeSign MsModule::SignOf(int u, int v) const {
  const int e = skeleton_.EdgeId(u, v);
  return e < 0 ? graph::EdgeSign::kNone : skeleton_sign_[e];
}

Explanation MsModule::Explain(const std::vector<int>& suggested_drugs) const {
  Explanation exp;
  exp.suggested_drugs = suggested_drugs;
  std::vector<char> is_suggested(ddi_.num_vertices(), 0);
  for (int d : suggested_drugs) {
    DSSDDI_CHECK(d >= 0 && d < ddi_.num_vertices()) << "drug id out of range";
    is_suggested[d] = 1;
  }

  // Interactions among the suggested drugs come straight from the DDI
  // graph (they exist whether or not the dense subgraph retains them).
  for (size_t a = 0; a < suggested_drugs.size(); ++a) {
    for (size_t b = a + 1; b < suggested_drugs.size(); ++b) {
      const int u = suggested_drugs[a];
      const int v = suggested_drugs[b];
      const auto sign = SignOf(u, v);
      if (sign == graph::EdgeSign::kSynergistic) {
        exp.synergies_within.push_back({u, v, sign});
      } else if (sign == graph::EdgeSign::kAntagonistic) {
        exp.antagonisms_within.push_back({u, v, sign});
      }
    }
  }

  // Dense subgraph around the suggestion, via the configured backend.
  // Query vertices isolated in the skeleton cannot be connected; fall
  // back to the suggestion itself in that case.
  if (explainer_ == ExplainerKind::kClosestTrussCommunity) {
    const algo::ClosestTrussCommunity ctc =
        algo::FindClosestTrussCommunity(skeleton_, skeleton_truss_, suggested_drugs);
    if (ctc.found) {
      exp.subgraph_drugs = ctc.vertices;
      exp.trussness = ctc.trussness;
      exp.diameter = ctc.diameter;
      for (int e : ctc.edge_ids) {
        auto [u, v] = skeleton_.Edge(e);
        exp.subgraph_edges.push_back({u, v, skeleton_sign_[e]});
      }
    } else {
      exp.subgraph_drugs = suggested_drugs;
    }
  } else {
    const algo::DenseSubgraph dense =
        algo::AnchoredDensestSubgraph(skeleton_, suggested_drugs);
    exp.subgraph_drugs = dense.vertices;
    exp.density = dense.density;
    for (int e : dense.edge_ids) {
      auto [u, v] = skeleton_.Edge(e);
      exp.subgraph_edges.push_back({u, v, skeleton_sign_[e]});
    }
    std::vector<char> alive(skeleton_.num_vertices(), 0);
    for (int v : dense.vertices) alive[v] = 1;
    exp.diameter = algo::Diameter(skeleton_, alive);
  }
  // Make sure every suggested drug is in the reported subgraph.
  for (int d : suggested_drugs) {
    if (std::find(exp.subgraph_drugs.begin(), exp.subgraph_drugs.end(), d) ==
        exp.subgraph_drugs.end()) {
      exp.subgraph_drugs.push_back(d);
    }
  }

  // Outward antagonisms: suggested vs non-suggested drugs of the subgraph.
  for (int u : suggested_drugs) {
    for (int w : exp.subgraph_drugs) {
      if (is_suggested[w]) continue;
      if (SignOf(u, w) == graph::EdgeSign::kAntagonistic) {
        exp.antagonisms_outward.push_back({u, w, graph::EdgeSign::kAntagonistic});
      }
    }
  }

  // Suggestion Satisfaction (Eq. 19).
  const double k = static_cast<double>(suggested_drugs.size());
  const double n_prime = static_cast<double>(exp.subgraph_drugs.size());
  const double r_in_pos = static_cast<double>(exp.synergies_within.size());
  const double r_in_neg = static_cast<double>(exp.antagonisms_within.size());
  const double r_out_neg = static_cast<double>(exp.antagonisms_outward.size());
  const double first =
      alpha_ * 2.0 * (r_in_pos + 1.0) / ((r_in_neg + 1.0) * (k * (k - 1.0) + 2.0));
  const double second =
      n_prime > k ? (1.0 - alpha_) * r_out_neg / (k * (n_prime - k)) : 0.0;
  exp.suggestion_satisfaction = first + second;
  return exp;
}

double MsModule::SuggestionSatisfaction(const std::vector<int>& suggested_drugs) const {
  return Explain(suggested_drugs).suggestion_satisfaction;
}

std::string MsModule::Render(const Explanation& exp,
                             const std::vector<std::string>& drug_names) const {
  auto name = [&](int d) {
    return d < static_cast<int>(drug_names.size())
               ? drug_names[d] + " (DID " + std::to_string(d) + ")"
               : "DID " + std::to_string(d);
  };
  std::ostringstream out;
  out << "Suggestion:";
  for (int d : exp.suggested_drugs) out << " " << name(d) << ";";
  out << "\nExplanation subgraph: " << exp.subgraph_drugs.size()
      << " drugs, trussness " << exp.trussness << ", diameter " << exp.diameter
      << "\n  Synergism:";
  if (exp.synergies_within.empty()) out << " (none among suggested)";
  for (const auto& e : exp.synergies_within) {
    out << "\n    " << name(e.drug_u) << " + " << name(e.drug_v);
  }
  out << "\n  Antagonism (within suggestion):";
  if (exp.antagonisms_within.empty()) out << " (none)";
  for (const auto& e : exp.antagonisms_within) {
    out << "\n    " << name(e.drug_u) << " x " << name(e.drug_v);
  }
  out << "\n  Antagonism (avoided partners):";
  if (exp.antagonisms_outward.empty()) out << " (none)";
  for (const auto& e : exp.antagonisms_outward) {
    out << "\n    " << name(e.drug_u) << " x " << name(e.drug_v);
  }
  out << "\n  Suggestion Satisfaction: " << exp.suggestion_satisfaction << "\n";
  return out.str();
}

}  // namespace dssddi::core
