#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/tree.hpp"

namespace ssmst {

inline constexpr std::uint32_t kNoFragment =
    std::numeric_limits<std::uint32_t>::max();

/// One fragment of a hierarchy (Definition 5.1): a subtree of the spanning
/// tree T, with the level SYNC_MST assigned to it, its root (the member
/// closest to T's root) and its candidate edge chi(F) (Definition 5.2) —
/// the selected outgoing edge through which the fragment merged. Only the
/// top fragment (all of T) has no candidate.
struct Fragment {
  /// The node of F closest to T's root (Section 5's r(F); this is the node
  /// whose ID forms the fragment identifier ID(F) = ID(r(F)) ∘ lev(F)).
  NodeId root = kNoNode;
  /// The fragment's root at construction time, before later root
  /// transfers re-oriented its edges. Only used for differential tests
  /// against the distributed SYNC_MST trace.
  NodeId build_root = kNoNode;
  int level = 0;
  std::vector<NodeId> nodes;  ///< members, sorted by node index

  std::uint32_t parent = kNoFragment;    ///< containing fragment in H
  std::vector<std::uint32_t> children;   ///< fragments directly contained

  bool has_candidate = false;
  NodeId cand_inside = kNoNode;   ///< endpoint of chi(F) inside F
  NodeId cand_outside = kNoNode;  ///< endpoint of chi(F) outside F
  Weight cand_weight = 0;

  std::size_t size() const { return nodes.size(); }
  bool contains(NodeId v) const;  ///< binary search over `nodes`
};

/// The laminar family of active fragments produced by SYNC_MST (Section 4,
/// Comment 4.1), organised as the hierarchy-tree H_M of Section 5, plus the
/// candidate function chi_M.
class FragmentHierarchy {
 public:
  /// `fragments` must come in nondecreasing level order, each with its
  /// `nodes` sorted by node index (throws std::invalid_argument otherwise),
  /// as SYNC_MST records them phase by phase. `parent` and `children` are
  /// derived here; whatever the caller left in them is replaced.
  FragmentHierarchy(const RootedTree& tree, std::vector<Fragment> fragments);

  const RootedTree& tree() const { return *tree_; }
  const WeightedGraph& graph() const { return tree_->graph(); }

  std::size_t fragment_count() const { return fragments_.size(); }
  const Fragment& fragment(std::uint32_t f) const { return fragments_[f]; }
  const std::vector<Fragment>& fragments() const { return fragments_; }

  /// Index of the top fragment (the whole tree T).
  std::uint32_t top() const { return top_; }

  /// Height ell of the hierarchy: the level of the top fragment.
  int height() const { return height_; }

  /// Fragment of level `level` containing v, or kNoFragment ("*" entries in
  /// the Roots strings correspond to exactly these gaps).
  std::uint32_t fragment_at(NodeId v, int level) const;

  /// All fragments containing v, as (level, fragment index), ascending.
  std::span<const std::pair<int, std::uint32_t>> membership(NodeId v) const {
    return {members_of_.data() + member_off_[v],
            member_off_[v + 1] - member_off_[v]};
  }

  /// The true minimum outgoing edge of fragment f in G (centralized oracle;
  /// used by the marker to stamp omega(F) and by tests as ground truth).
  /// Returns nullopt if the fragment has no outgoing edge (spans G).
  struct OutgoingEdge {
    NodeId inside = kNoNode;
    NodeId outside = kNoNode;
    Weight w = 0;
  };
  std::optional<OutgoingEdge> min_outgoing_edge(std::uint32_t f) const;

  /// Structural validation used by tests: laminarity, levels strictly
  /// increasing along containment chains, per-node level-0 singleton,
  /// top fragment = V, candidate edges outgoing and forming a candidate
  /// function (Definition 5.2). Returns an error string, empty if valid.
  std::string validate() const;

 private:
  const RootedTree* tree_;
  std::vector<Fragment> fragments_;
  std::uint32_t top_ = kNoFragment;
  int height_ = 0;
  // CSR membership: members_of_[member_off_[v] .. member_off_[v+1]) are
  // the (level, fragment) pairs containing v, ascending.
  std::vector<std::uint32_t> member_off_;
  std::vector<std::pair<int, std::uint32_t>> members_of_;
};

}  // namespace ssmst
