#pragma once

#include <memory>
#include <vector>

#include "hierarchy/fragment.hpp"
#include "labels/arena.hpp"
#include "labels/labels.hpp"
#include "mstalgo/reference_hierarchy.hpp"
#include "partition/partitions.hpp"

namespace ssmst {

/// Complete marker output for a graph: the MST, its hierarchy, the two
/// partitions, and per-node labels.
///
/// Distribution note: the labels are *computed* here, centrally, from the
/// hierarchy that SYNC_MST produces — exactly the data the paper's
/// distributed marker would install in O(n) time (Lemma 5.4, Claims
/// 6.9/6.10, Corollary 6.11); `schedule_rounds` carries the simulated-time
/// charge. The Multi_Wave primitive the distributed marker relies on is
/// implemented and measured separately (partition/multiwave).
struct MarkerOutput {
  std::unique_ptr<RootedTree> tree;
  std::unique_ptr<FragmentHierarchy> hierarchy;
  Partitions partitions;
  /// Owns the stripe payload of `labels` (and of the on-demand KKP base
  /// labels, which alias the same slices). The pristine marker copy:
  /// simulations clone it into their own per-simulation arenas at
  /// construction, so nothing that mutates registers ever writes through
  /// to these labels.
  std::shared_ptr<LabelArena> arena;
  std::vector<NodeLabels> labels;
  std::uint64_t schedule_rounds = 0;  ///< simulated marker time, O(n)

  /// Component (parent port) vector representing the tree distributively.
  std::vector<std::uint32_t> parent_ports() const;

  /// Node v's KKP baseline label ([54,55]): the base label (a header copy
  /// aliasing this marker's arena) plus the *full* per-level piece table.
  /// Built on demand from the hierarchy — the Theta(log^2 n)-bit tables
  /// belong in the KKP verifier's registers (that is the baseline's cost
  /// being measured), not duplicated in every marker; the scale benches
  /// only ever need one node's table at a time.
  KkpLabels kkp_label(NodeId v) const;
  /// All n KKP labels at once (the KKP verifier's initial register
  /// payload and the classic-size test fixture).
  std::vector<KkpLabels> kkp_label_vector() const;
};

/// Runs the construction + marker pipeline on a correct instance.
/// `pack` (>= 2) is the number of pieces stored per node: the paper's
/// scheme uses 2; larger values implement the Section 1.3 extension that
/// shortens trains (and hence detection time) for some extra memory.
MarkerOutput make_labels(const WeightedGraph& g, std::uint32_t pack = 2);

/// Computes labels for an arbitrary *given* spanning tree (used to test
/// soundness: labels marked for a non-MST tree must be rejected). The
/// hierarchy is built by re-running the fragment dynamics restricted to the
/// given tree's edges, so everything is well-formed except minimality.
MarkerOutput make_labels_for_tree(const WeightedGraph& g,
                                  const std::vector<bool>& in_tree,
                                  std::uint32_t pack = 2);

}  // namespace ssmst
