#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ssmst {

/// A spanning tree of a WeightedGraph represented distributively the way the
/// paper's components c(v) do: each non-root node stores the port of the
/// edge to its parent (Section 2.1). The class precomputes the derived views
/// every module needs: children lists, depths, subtree sizes, DFS pre-order.
/// Children are stored in CSR form like the graph's adjacency: one flat
/// array indexed by per-node offsets.
class RootedTree {
 public:
  /// Builds from per-node parent pointers (kNoNode for the root).
  /// Validates that the structure is a spanning tree of g rooted at `root`
  /// and that every parent edge exists in g.
  static RootedTree from_parents(const WeightedGraph& g, NodeId root,
                                 const std::vector<NodeId>& parent);

  const WeightedGraph& graph() const { return *g_; }
  NodeId root() const { return root_; }
  NodeId n() const { return static_cast<NodeId>(parent_.size()); }

  NodeId parent(NodeId v) const { return parent_[v]; }
  /// Port at v of the edge to its parent. Undefined for the root.
  std::uint32_t parent_port(NodeId v) const { return parent_port_[v]; }
  Weight parent_edge_weight(NodeId v) const { return parent_weight_[v]; }

  /// Children of v in port order at v.
  std::span<const NodeId> children(NodeId v) const {
    return {children_.data() + child_off_[v],
            child_off_[v + 1] - child_off_[v]};
  }
  std::uint32_t depth(NodeId v) const { return depth_[v]; }
  std::uint32_t height() const { return height_; }
  std::uint32_t subtree_size(NodeId v) const { return subtree_size_[v]; }

  /// DFS pre-order starting at the root; children visited in port order.
  const std::vector<NodeId>& dfs_preorder() const { return dfs_pre_; }
  /// Position of v in dfs_preorder().
  std::uint32_t dfs_index(NodeId v) const { return dfs_index_[v]; }

  /// True if `anc` is an ancestor of v (inclusive).
  bool is_ancestor(NodeId anc, NodeId v) const;

  /// True if edge index e of the underlying graph is a tree edge.
  bool edge_in_tree(std::uint32_t edge_index) const {
    return edge_in_tree_[edge_index];
  }
  /// Bitmap over graph edge indices.
  const std::vector<bool>& tree_edge_bitmap() const { return edge_in_tree_; }

  /// Sum of tree edge weights.
  Weight total_weight() const;

  /// Tree-only hop distance between two nodes (via LCA).
  std::uint32_t tree_distance(NodeId a, NodeId b) const;

 private:
  const WeightedGraph* g_ = nullptr;
  NodeId root_ = kNoNode;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> parent_port_;
  std::vector<Weight> parent_weight_;
  // CSR children: children_[child_off_[v] .. child_off_[v+1]).
  std::vector<std::uint32_t> child_off_;
  std::vector<NodeId> children_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> subtree_size_;
  std::vector<NodeId> dfs_pre_;
  std::vector<std::uint32_t> dfs_index_;
  std::vector<bool> edge_in_tree_;
  std::uint32_t height_ = 0;

  // DFS enter/exit times for is_ancestor.
  std::vector<std::uint32_t> tin_, tout_;
};

}  // namespace ssmst
