#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ssmst {

/// Output of the tau-path transformation of Section 9 (Figures 10-11).
struct TauTransform {
  WeightedGraph graph;        ///< G'
  std::vector<bool> in_tree;  ///< H(G') as an edge bitmap over graph.edges()
  /// Original node behind each G' node; kNoNode for path-filler nodes.
  std::vector<NodeId> origin;
  std::uint32_t tau = 0;
};

/// Replaces every edge (u,v) of G by a simple path of 2*tau+2 nodes.
/// For a candidate-tree edge, the whole path chain joins H(G'); for a
/// non-tree edge, the middle path edge stays out of H(G') and carries the
/// original weight omega(u,v) (this placement is what makes Lemma 9.1's
/// equivalence hold: H(G') is an MST of G' iff H(G) is an MST of G).
/// Filler edges receive small distinct weights so the result keeps the
/// library's distinct-weight invariant; the equivalence is unaffected
/// because fillers are never maximal on any cycle.
TauTransform tau_transform(const WeightedGraph& g,
                           const std::vector<bool>& in_tree,
                           std::uint32_t tau);

/// A synthetic "hard family" standing in for the (h, mu)-hypertrees of
/// [54], which Section 9 uses as a black box without constructing them:
/// a complete binary tree of depth h whose sibling leaves are joined by
/// heavy cross edges, so MST verification has to reason about Theta(2^h)
/// independent cut decisions. Every node is adjacent to at most one
/// non-tree edge, as the paper requires of the family.
WeightedGraph hard_family(std::uint32_t h, Rng& rng);

}  // namespace ssmst
