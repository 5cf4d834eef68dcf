#include "graph/tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ssmst {

RootedTree RootedTree::from_parents(const WeightedGraph& g, NodeId root,
                                    const std::vector<NodeId>& parent) {
  const NodeId n = g.n();
  if (parent.size() != n) {
    throw std::invalid_argument("parent vector size mismatch");
  }
  if (root >= n || parent[root] != kNoNode) {
    throw std::invalid_argument("invalid root");
  }
  RootedTree t;
  t.g_ = &g;
  t.root_ = root;
  t.parent_ = parent;
  t.parent_port_.assign(n, 0);
  t.parent_weight_.assign(n, 0);
  t.depth_.assign(n, 0);
  t.subtree_size_.assign(n, 1);
  t.edge_in_tree_.assign(g.m(), false);

  // CSR children: count, prefix-sum, then one port-order scan of every
  // node's neighbours. Scanning by port keeps each child list in port order
  // at the parent, so DFS order is locally computable from ports alone (the
  // train's DFS pipeline relies on this, Section 6.2); the same scan reads
  // each child's parent port off the half-edge.
  t.child_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    if (parent[v] >= n) throw std::invalid_argument("parent out of range");
    ++t.child_off_[parent[v] + 1];
  }
  for (NodeId v = 0; v < n; ++v) t.child_off_[v + 1] += t.child_off_[v];
  t.children_.resize(static_cast<std::size_t>(n) - 1);
  std::uint32_t fill = 0;
  for (NodeId p = 0; p < n; ++p) {
    for (const HalfEdge& he : g.neighbors(p)) {
      if (parent[he.to] != p) continue;
      t.children_[fill++] = he.to;
      t.parent_port_[he.to] = he.rev_port;
      t.parent_weight_[he.to] = he.w;
      t.edge_in_tree_[he.edge_index] = true;
    }
    // A child not found among p's neighbours has no edge to its parent.
    if (fill != t.child_off_[p + 1]) {
      throw std::invalid_argument("parent edge not in graph");
    }
  }
  // Iterative DFS computing order, depth, subtree sizes, tin/tout. The
  // stack holds (node, next child slot in children_).
  t.dfs_pre_.reserve(n);
  t.dfs_index_.assign(n, 0);
  t.tin_.assign(n, 0);
  t.tout_.assign(n, 0);
  std::uint32_t timer = 0;
  std::size_t visited = 0;
  std::vector<std::pair<NodeId, std::uint32_t>> st;
  st.emplace_back(root, t.child_off_[root]);
  t.tin_[root] = timer++;
  t.dfs_index_[root] = static_cast<std::uint32_t>(t.dfs_pre_.size());
  t.dfs_pre_.push_back(root);
  ++visited;
  while (!st.empty()) {
    const NodeId v = st.back().first;
    std::uint32_t& next = st.back().second;
    if (next < t.child_off_[v + 1]) {
      const NodeId c = t.children_[next++];
      t.depth_[c] = t.depth_[v] + 1;
      t.height_ = std::max(t.height_, t.depth_[c]);
      t.tin_[c] = timer++;
      t.dfs_index_[c] = static_cast<std::uint32_t>(t.dfs_pre_.size());
      t.dfs_pre_.push_back(c);
      ++visited;
      st.emplace_back(c, t.child_off_[c]);
    } else {
      t.tout_[v] = timer++;
      st.pop_back();
      if (!st.empty()) {
        t.subtree_size_[st.back().first] += t.subtree_size_[v];
      }
    }
  }
  if (visited != n) {
    throw std::invalid_argument("parent pointers contain a cycle");
  }
  return t;
}

bool RootedTree::is_ancestor(NodeId anc, NodeId v) const {
  return tin_[anc] <= tin_[v] && tout_[v] <= tout_[anc];
}

Weight RootedTree::total_weight() const {
  Weight sum = 0;
  for (NodeId v = 0; v < n(); ++v) {
    if (v != root_) sum += parent_weight_[v];
  }
  return sum;
}

std::uint32_t RootedTree::tree_distance(NodeId a, NodeId b) const {
  // Walk up from the deeper node; O(depth), fine for analysis code.
  std::uint32_t dist = 0;
  NodeId x = a;
  NodeId y = b;
  while (depth_[x] > depth_[y]) {
    x = parent_[x];
    ++dist;
  }
  while (depth_[y] > depth_[x]) {
    y = parent_[y];
    ++dist;
  }
  while (x != y) {
    x = parent_[x];
    y = parent_[y];
    dist += 2;
  }
  return dist;
}

}  // namespace ssmst
