#include "hierarchy/fragment.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

namespace ssmst {

bool Fragment::contains(NodeId v) const {
  return std::binary_search(nodes.begin(), nodes.end(), v);
}

FragmentHierarchy::FragmentHierarchy(const RootedTree& tree,
                                     std::vector<Fragment> fragments)
    : tree_(&tree), fragments_(std::move(fragments)) {
  const NodeId n = tree.n();
  const auto fc = static_cast<std::uint32_t>(fragments_.size());
  // CSR membership: count per node, prefix-sum, then fill in fragment
  // order. Fragments come by level, so every node's list comes out
  // ascending in (level, index) without a per-node sort.
  member_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint32_t f = 0; f < fc; ++f) {
    Fragment& frag = fragments_[f];
    if ((f > 0 && frag.level < fragments_[f - 1].level) ||
        !std::is_sorted(frag.nodes.begin(), frag.nodes.end())) {
      throw std::invalid_argument(
          "fragments must come by level, members sorted by node index");
    }
    frag.parent = kNoFragment;  // derived below
    frag.children.clear();
    if (frag.nodes.size() == n) top_ = f;
    height_ = std::max(height_, frag.level);
    for (NodeId v : frag.nodes) ++member_off_[v + 1];
  }
  for (NodeId v = 0; v < n; ++v) member_off_[v + 1] += member_off_[v];
  members_of_.resize(member_off_[n]);
  std::vector<std::uint32_t> cursor(member_off_.begin(),
                                    member_off_.end() - 1);
  for (std::uint32_t f = 0; f < fc; ++f) {
    for (NodeId v : fragments_[f].nodes) {
      members_of_[cursor[v]++] = {fragments_[f].level, f};
    }
  }
  // Containment parents: for each fragment, the smallest strictly larger
  // fragment containing its root. Memberships are sorted by level and
  // levels strictly increase along chains, so the next entry after this
  // fragment in its root's membership list is the parent.
  for (std::uint32_t f = 0; f < fc; ++f) {
    const auto mem = membership(fragments_[f].root);
    const auto it = std::find_if(
        mem.begin(), mem.end(),
        [f](const auto& lv) { return lv.second == f; });
    if (it != mem.end() && std::next(it) != mem.end()) {
      fragments_[f].parent = std::next(it)->second;
      fragments_[std::next(it)->second].children.push_back(f);
    }
  }
}

std::uint32_t FragmentHierarchy::fragment_at(NodeId v, int level) const {
  for (const auto& [lev, f] : membership(v)) {
    if (lev == level) return f;
    if (lev > level) break;
  }
  return kNoFragment;
}

std::optional<FragmentHierarchy::OutgoingEdge>
FragmentHierarchy::min_outgoing_edge(std::uint32_t f) const {
  const Fragment& frag = fragments_[f];
  const WeightedGraph& g = graph();
  std::optional<OutgoingEdge> best;
  for (NodeId v : frag.nodes) {
    for (const HalfEdge& he : g.neighbors(v)) {
      if (frag.contains(he.to)) continue;
      if (!best || he.w < best->w) {
        best = OutgoingEdge{v, he.to, he.w};
      }
    }
  }
  return best;
}

std::string FragmentHierarchy::validate() const {
  std::ostringstream err;
  const NodeId n = tree_->n();
  if (top_ == kNoFragment) return "no top fragment spanning all nodes";

  // Per-node: exactly one level-0 singleton; levels strictly increasing;
  // outermost fragment is the top one.
  for (NodeId v = 0; v < n; ++v) {
    const auto mem = membership(v);
    if (mem.empty() || mem.front().first != 0 ||
        fragments_[mem.front().second].size() != 1) {
      err << "node " << v << " lacks a level-0 singleton fragment";
      return err.str();
    }
    for (std::size_t i = 1; i < mem.size(); ++i) {
      if (mem[i].first <= mem[i - 1].first) {
        err << "node " << v << " has two fragments at level "
            << mem[i].first;
        return err.str();
      }
    }
    if (mem.back().second != top_) {
      err << "node " << v << " not contained in the top fragment";
      return err.str();
    }
  }

  for (std::uint32_t f = 0; f < fragments_.size(); ++f) {
    const Fragment& frag = fragments_[f];
    // Laminarity against every other fragment.
    for (std::uint32_t g2 = f + 1; g2 < fragments_.size(); ++g2) {
      const Fragment& other = fragments_[g2];
      std::size_t common = 0;
      for (NodeId v : frag.nodes) {
        if (other.contains(v)) ++common;
      }
      if (common != 0 && common != frag.size() && common != other.size()) {
        err << "fragments " << f << " and " << g2 << " cross";
        return err.str();
      }
    }
    // Fragment must induce a connected subtree with `root` topmost.
    for (NodeId v : frag.nodes) {
      if (v == frag.root) continue;
      if (!frag.contains(tree_->parent(v))) {
        err << "fragment " << f << " is not a rooted subtree at node " << v;
        return err.str();
      }
    }
    if (!frag.contains(frag.root)) {
      err << "fragment " << f << " does not contain its root";
      return err.str();
    }
    // Candidate sanity.
    if (f == top_) {
      if (frag.has_candidate) {
        return "top fragment must not have a candidate edge";
      }
    } else {
      if (!frag.has_candidate) {
        err << "fragment " << f << " lacks a candidate edge";
        return err.str();
      }
      if (!frag.contains(frag.cand_inside) ||
          frag.contains(frag.cand_outside)) {
        err << "candidate of fragment " << f << " is not outgoing";
        return err.str();
      }
    }
  }

  // Candidate function (Definition 5.2): for every fragment F, the tree
  // edges inside F are exactly the candidates of fragments strictly
  // contained in F. We check it for the top fragment and the edge counts
  // for all others (sufficient given laminarity + outgoingness).
  std::map<std::pair<NodeId, NodeId>, int> tree_edges;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree_->root()) continue;
    const NodeId p = tree_->parent(v);
    tree_edges[{std::min(v, p), std::max(v, p)}] = 0;
  }
  for (std::uint32_t f = 0; f < fragments_.size(); ++f) {
    if (f == top_) continue;
    const Fragment& frag = fragments_[f];
    const auto key = std::pair{std::min(frag.cand_inside, frag.cand_outside),
                               std::max(frag.cand_inside, frag.cand_outside)};
    const auto it = tree_edges.find(key);
    if (it == tree_edges.end()) {
      err << "candidate of fragment " << f << " is not a tree edge";
      return err.str();
    }
    ++it->second;
  }
  for (const auto& [edge, count] : tree_edges) {
    if (count == 0) {
      err << "tree edge (" << edge.first << "," << edge.second
          << ") is no fragment's candidate";
      return err.str();
    }
  }
  return {};
}

}  // namespace ssmst
