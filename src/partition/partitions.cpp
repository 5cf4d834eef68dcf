#include "partition/partitions.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/bits.hpp"

namespace ssmst {

namespace {

Piece piece_of(const FragmentHierarchy& h, std::uint32_t f) {
  const Fragment& frag = h.fragment(f);
  Piece p;
  p.root_id = h.graph().id(frag.root);
  p.level = static_cast<std::uint32_t>(frag.level);
  p.min_out_w = frag.has_candidate ? frag.cand_weight : Piece::kNoOutgoing;
  return p;
}

/// Computes DFS pre-order indices of the members of part `pid` within the
/// part, following the tree's child order restricted to part members
/// (`part_of` maps each node to its part).
void fill_dfs_indices(const RootedTree& t, const Partitions::Part& part,
                      std::uint32_t pid,
                      const std::vector<std::uint32_t>& part_of,
                      std::vector<std::uint32_t>& out) {
  std::uint32_t idx = 0;
  // Iterative DFS over members only.
  std::vector<NodeId> stack = {part.root};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    out[v] = idx++;
    const auto kids = t.children(v);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      if (part_of[*it] == pid) stack.push_back(*it);
    }
  }
}

/// The `pack` pieces of `part` starting at position pack * dfs.
std::span<const Piece> perm_pieces(const Partitions::Part& part,
                                   std::uint32_t pack, std::uint32_t dfs) {
  const std::span<const Piece> all(part.pieces);
  const std::size_t lo = std::min<std::size_t>(std::size_t{pack} * dfs,
                                               all.size());
  return all.subspan(lo, std::min<std::size_t>(pack, all.size() - lo));
}

}  // namespace

std::uint32_t top_threshold(NodeId n) {
  return std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(ceil_log2(std::max<NodeId>(n, 2))) + 1);
}

std::span<const Piece> Partitions::perm_top_pieces(NodeId v) const {
  return perm_pieces(top_parts[top_part_of[v]], pack, top_dfs_[v]);
}

std::span<const Piece> Partitions::perm_bot_pieces(NodeId v) const {
  return perm_pieces(bot_parts[bot_part_of[v]], pack, bot_dfs_[v]);
}

Partitions build_partitions(const FragmentHierarchy& h, std::uint32_t pack) {
  const RootedTree& t = h.tree();
  const NodeId n = t.n();
  const std::size_t fc = h.fragment_count();

  Partitions out;
  out.theta = top_threshold(n);
  out.pack = std::max<std::uint32_t>(pack, 2);
  const std::uint32_t theta = out.theta;

  // --- Classify fragments: top / red / blue (Section 6.1) -----------------
  out.frag_is_top.assign(fc, 0);
  out.frag_is_red.assign(fc, 0);
  out.frag_is_blue.assign(fc, 0);
  for (std::uint32_t f = 0; f < fc; ++f) {
    out.frag_is_top[f] =
        h.fragment(f).size() >= theta || f == h.top() ? 1 : 0;
  }
  for (std::uint32_t f = 0; f < fc; ++f) {
    if (!out.frag_is_top[f]) continue;
    bool has_top_child = false;
    for (std::uint32_t c : h.fragment(f).children) {
      if (out.frag_is_top[c]) has_top_child = true;
    }
    if (!has_top_child) out.frag_is_red[f] = 1;  // leaf of T_Top
  }
  for (std::uint32_t f = 0; f < fc; ++f) {
    if (out.frag_is_top[f]) continue;
    const std::uint32_t par = h.fragment(f).parent;
    if (par != kNoFragment && out.frag_is_top[par] && !out.frag_is_red[par]) {
      out.frag_is_blue[f] = 1;
    }
  }

  // --- Procedure Merge: partition P'' (Section 6.1.1) ---------------------
  // part_of: P'' part index per node; parts seeded by the red fragments.
  std::vector<std::uint32_t> part_of(n, kNoFragment);
  std::vector<std::uint32_t> part_red;  // red fragment of each P'' part
  for (std::uint32_t f = 0; f < fc; ++f) {
    if (!out.frag_is_red[f]) continue;
    const auto pid = static_cast<std::uint32_t>(part_red.size());
    part_red.push_back(f);
    for (NodeId v : h.fragment(f).nodes) part_of[v] = pid;
  }
  // Large fragments bottom-up: merge each blue child into a touching part
  // inside the same large fragment (keeps every part's nodes inside
  // ancestor fragments of its red fragment -> Claim 6.3).
  std::vector<std::uint32_t> larges;
  for (std::uint32_t f = 0; f < fc; ++f) {
    if (out.frag_is_top[f] && !out.frag_is_red[f]) larges.push_back(f);
  }
  std::sort(larges.begin(), larges.end(), [&](std::uint32_t a,
                                              std::uint32_t b) {
    return h.fragment(a).level < h.fragment(b).level;
  });
  for (std::uint32_t big : larges) {
    const Fragment& big_frag = h.fragment(big);
    std::vector<std::uint32_t> pending;
    for (std::uint32_t c : big_frag.children) {
      if (out.frag_is_blue[c]) pending.push_back(c);
    }
    while (!pending.empty()) {
      bool progress = false;
      for (std::size_t idx = 0; idx < pending.size(); ++idx) {
        const Fragment& blue = h.fragment(pending[idx]);
        std::uint32_t target = kNoFragment;
        for (NodeId b : blue.nodes) {
          auto consider = [&](NodeId w) {
            if (target != kNoFragment) return;
            if (blue.contains(w)) return;          // internal
            if (!big_frag.contains(w)) return;     // stay inside the large
            if (part_of[w] == kNoFragment) return; // not yet covered
            target = part_of[w];
          };
          if (b != t.root()) consider(t.parent(b));
          for (NodeId c : t.children(b)) consider(c);
          if (target != kNoFragment) break;
        }
        if (target == kNoFragment) continue;
        for (NodeId b : blue.nodes) part_of[b] = target;
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(idx));
        progress = true;
        break;
      }
      if (!progress) {
        throw std::logic_error("Procedure Merge made no progress");
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (part_of[v] == kNoFragment) {
      throw std::logic_error("Procedure Merge left a node uncovered");
    }
  }

  // --- Split each P'' part into Top parts (Section 6.1.1, via [57]) -------
  out.top_part_of.assign(n, kNoFragment);
  // Members of every P'' part, bucketed in one pass (node-index order), and
  // per-node scratch reused across parts: resetting only the slots a part
  // touched keeps the whole split O(n) overall instead of O(parts * n).
  std::vector<std::vector<NodeId>> pp_members(part_red.size());
  for (NodeId v = 0; v < n; ++v) pp_members[part_of[v]].push_back(v);
  std::vector<std::uint8_t> in_part(n, 0);
  std::vector<std::uint32_t> residual(n, 0);
  std::vector<NodeId> cluster_root_of(n, kNoNode);
  for (std::uint32_t pid = 0; pid < part_red.size(); ++pid) {
    const std::vector<NodeId>& members = pp_members[pid];
    for (NodeId v : members) in_part[v] = 1;
    auto mem_count = [&](NodeId v) -> bool { return in_part[v]; };
    // Part root: the member whose tree parent is outside the part.
    NodeId proot = kNoNode;
    for (NodeId v : members) {
      if (v == t.root() || !mem_count(t.parent(v))) {
        if (proot != kNoNode) {
          throw std::logic_error("P'' part is not a subtree");
        }
        proot = v;
      }
    }
    // Bottom-up clustering: cut a cluster whenever the residual subtree
    // reaches theta nodes. Residual subtrees have < theta nodes, so each
    // cluster has diameter O(theta) and >= theta nodes.
    std::vector<NodeId> order;  // members in DFS post-order
    {
      std::vector<NodeId> stack = {proot};
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        order.push_back(v);
        for (NodeId c : t.children(v)) {
          if (mem_count(c)) stack.push_back(c);
        }
      }
      std::reverse(order.begin(), order.end());  // children before parents
    }
    std::vector<NodeId> cluster_heads;
    for (NodeId v : order) {
      std::uint32_t r = 1;
      for (NodeId c : t.children(v)) {
        if (mem_count(c) && cluster_root_of[c] == kNoNode) {
          r += residual[c];
        }
      }
      residual[v] = r;
      if (r >= theta || v == proot) {
        // Close a cluster at v: v plus all residual descendants.
        cluster_root_of[v] = v;
        cluster_heads.push_back(v);
        std::vector<NodeId> stack = {v};
        while (!stack.empty()) {
          const NodeId x = stack.back();
          stack.pop_back();
          for (NodeId c : t.children(x)) {
            if (mem_count(c) && cluster_root_of[c] == kNoNode) {
              cluster_root_of[c] = v;
              stack.push_back(c);
            }
          }
        }
      }
    }
    // If the root's own cluster is undersized, merge it into a child
    // cluster hanging directly below it (keeps diameter O(theta)).
    if (residual[proot] < theta && cluster_heads.size() > 1) {
      NodeId absorb = kNoNode;
      for (NodeId head : cluster_heads) {
        if (head == proot) continue;
        if (cluster_root_of[t.parent(head)] == proot) {
          absorb = head;
          break;
        }
      }
      if (absorb != kNoNode) {
        for (NodeId v : members) {
          if (cluster_root_of[v] == proot) cluster_root_of[v] = absorb;
        }
        // The merged cluster's topmost node is proot.
        std::erase(cluster_heads, proot);
        for (NodeId v : members) {
          if (cluster_root_of[v] == absorb) cluster_root_of[v] = proot;
        }
        std::erase(cluster_heads, absorb);
        cluster_heads.push_back(proot);
      }
    }
    // Pieces carried by every Top part of this P'' part: I(F) for the red
    // fragment and all its ancestors, in level order.
    std::vector<Piece> pieces;
    for (std::uint32_t f = part_red[pid]; f != kNoFragment;
         f = h.fragment(f).parent) {
      pieces.push_back(piece_of(h, f));
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) { return a.key() < b.key(); });
    for (NodeId head : cluster_heads) {
      Partitions::Part part;
      // The cluster root is the topmost node of the cluster.
      part.root = head;
      for (NodeId v : members) {
        if (cluster_root_of[v] == head ||
            (head == proot && cluster_root_of[v] == proot)) {
          part.nodes.push_back(v);
        }
      }
      part.pieces = pieces;
      const auto tidx = static_cast<std::uint32_t>(out.top_parts.size());
      for (NodeId v : part.nodes) out.top_part_of[v] = tidx;
      out.top_parts.push_back(std::move(part));
    }
    // Reset only the slots this part touched; the scratch arrays are
    // shared across all parts.
    for (NodeId v : members) {
      in_part[v] = 0;
      residual[v] = 0;
      cluster_root_of[v] = kNoNode;
    }
  }

  // --- Bottom partition: maximal bottom fragments (Section 6.1.2) ---------
  out.bot_part_of.assign(n, kNoFragment);
  for (std::uint32_t f = 0; f < fc; ++f) {
    if (out.frag_is_top[f]) continue;
    const std::uint32_t par = h.fragment(f).parent;
    const bool maximal = par != kNoFragment && out.frag_is_top[par];
    if (!maximal) continue;
    Partitions::Part part;
    part.root = h.fragment(f).root;
    part.nodes = h.fragment(f).nodes;
    // Pieces: this fragment and every hierarchy descendant (all bottom).
    std::vector<std::uint32_t> stack = {f};
    while (!stack.empty()) {
      const std::uint32_t x = stack.back();
      stack.pop_back();
      part.pieces.push_back(piece_of(h, x));
      for (std::uint32_t c : h.fragment(x).children) stack.push_back(c);
    }
    std::sort(part.pieces.begin(), part.pieces.end(),
              [](const Piece& a, const Piece& b) { return a.key() < b.key(); });
    const auto bidx = static_cast<std::uint32_t>(out.bot_parts.size());
    for (NodeId v : part.nodes) out.bot_part_of[v] = bidx;
    out.bot_parts.push_back(std::move(part));
  }
  // Degenerate coverage: nodes with no bottom fragment (their singleton is
  // already top; happens only for tiny n) get an empty singleton part.
  for (NodeId v = 0; v < n; ++v) {
    if (out.bot_part_of[v] != kNoFragment) continue;
    Partitions::Part part;
    part.root = v;
    part.nodes = {v};
    out.bot_part_of[v] = static_cast<std::uint32_t>(out.bot_parts.size());
    out.bot_parts.push_back(std::move(part));
  }

  // --- Delimiters (Section 8) ---------------------------------------------
  out.delim.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [lev, f] : h.membership(v)) {
      if (out.frag_is_top[f]) {
        out.delim[v] = static_cast<std::uint32_t>(lev);
        break;
      }
    }
  }

  // --- DFS placement indices ----------------------------------------------
  out.top_dfs_.assign(n, 0);
  out.bot_dfs_.assign(n, 0);
  for (std::uint32_t i = 0; i < out.top_parts.size(); ++i) {
    fill_dfs_indices(t, out.top_parts[i], i, out.top_part_of, out.top_dfs_);
  }
  for (std::uint32_t i = 0; i < out.bot_parts.size(); ++i) {
    fill_dfs_indices(t, out.bot_parts[i], i, out.bot_part_of, out.bot_dfs_);
  }
  return out;
}

std::string validate_partitions(const FragmentHierarchy& h,
                                const Partitions& p) {
  std::ostringstream err;
  const RootedTree& t = h.tree();
  const NodeId n = t.n();
  const std::uint32_t theta = p.theta;

  auto check_part = [&](const Partitions::Part& part, bool is_top,
                        std::string_view kind) -> bool {
    // Subtree: every member except the root has its parent in the part.
    std::set<NodeId> mem(part.nodes.begin(), part.nodes.end());
    if (!mem.count(part.root)) {
      err << kind << " part missing its root";
      return false;
    }
    std::uint32_t max_depth = 0;
    for (NodeId v : part.nodes) {
      if (v == part.root) continue;
      if (v == t.root() || !mem.count(t.parent(v))) {
        err << kind << " part is not a subtree at node " << v;
        return false;
      }
    }
    for (NodeId v : part.nodes) {
      std::uint32_t d = 0;
      NodeId x = v;
      while (x != part.root) {
        x = t.parent(x);
        ++d;
      }
      max_depth = std::max(max_depth, d);
    }
    // Lemma 6.4 / 6.5 shape bounds (constants generous but fixed).
    if (is_top && max_depth > 8 * theta) {
      err << "top part diameter " << max_depth << " exceeds 8*theta";
      return false;
    }
    if (!is_top && part.nodes.size() >= theta && part.pieces.size() > 0) {
      err << "bottom part with >= theta nodes";
      return false;
    }
    if (part.pieces.size() > p.pack * part.nodes.size()) {
      err << kind << " part stores more than pack*|P| pieces";
      return false;
    }
    // Cyclic key order strict.
    for (std::size_t i = 1; i < part.pieces.size(); ++i) {
      if (!(part.pieces[i - 1].key() < part.pieces[i].key())) {
        err << kind << " part pieces not strictly ordered";
        return false;
      }
    }
    return true;
  };

  for (const auto& part : p.top_parts) {
    if (!check_part(part, true, "top")) return err.str();
    // Lemma 6.4: size >= theta (except degenerate whole-graph-small cases).
    if (n >= 2 * theta && part.nodes.size() < theta) {
      err << "top part smaller than theta";
      return err.str();
    }
    // Claim 6.3: at most one *top* fragment piece per level.
    std::set<std::uint32_t> levels;
    for (const Piece& pc : part.pieces) {
      if (!levels.insert(pc.level).second) {
        err << "top part has two pieces at level " << pc.level;
        return err.str();
      }
    }
  }
  for (const auto& part : p.bot_parts) {
    if (!check_part(part, false, "bottom")) return err.str();
  }

  // Every node is in exactly one part of each partition.
  for (NodeId v = 0; v < n; ++v) {
    if (p.top_part_of[v] == kNoFragment || p.bot_part_of[v] == kNoFragment) {
      err << "node " << v << " not covered by both partitions";
      return err.str();
    }
  }

  // Coverage: the union of the two parts' pieces covers all fragments
  // containing each node; and the delimiter splits them correctly.
  for (NodeId v = 0; v < n; ++v) {
    const auto& tp = p.top_parts[p.top_part_of[v]];
    const auto& bp = p.bot_parts[p.bot_part_of[v]];
    for (const auto& [lev, f] : h.membership(v)) {
      const Fragment& frag = h.fragment(f);
      const Piece want = {h.graph().id(frag.root),
                          static_cast<std::uint32_t>(frag.level),
                          frag.has_candidate ? frag.cand_weight
                                             : Piece::kNoOutgoing};
      const auto& pool = p.frag_is_top[f] ? tp.pieces : bp.pieces;
      const bool found =
          std::find(pool.begin(), pool.end(), want) != pool.end();
      if (!found) {
        err << "piece of fragment " << f << " (level " << lev
            << ") missing from node " << v << "'s "
            << (p.frag_is_top[f] ? "top" : "bottom") << " part";
        return err.str();
      }
      const bool is_top_level =
          static_cast<std::uint32_t>(lev) >= p.delim[v];
      if (is_top_level != static_cast<bool>(p.frag_is_top[f])) {
        err << "delimiter of node " << v << " misclassifies level " << lev;
        return err.str();
      }
    }
  }

  // Permanent placement: concatenating the members' pairs in DFS order
  // reproduces each part's piece list.
  auto check_placement = [&](const Partitions::Part& part, bool is_top) {
    std::vector<NodeId> by_dfs(part.nodes);
    std::sort(by_dfs.begin(), by_dfs.end(), [&](NodeId a, NodeId b) {
      return (is_top ? p.top_dfs_index(a) : p.bot_dfs_index(a)) <
             (is_top ? p.top_dfs_index(b) : p.bot_dfs_index(b));
    });
    std::vector<Piece> collected;
    for (NodeId v : by_dfs) {
      const auto pcs = is_top ? p.perm_top_pieces(v) : p.perm_bot_pieces(v);
      collected.insert(collected.end(), pcs.begin(), pcs.end());
    }
    return collected == part.pieces;
  };
  for (const auto& part : p.top_parts) {
    if (!check_placement(part, true)) {
      return "top part DFS placement does not reproduce the piece list";
    }
  }
  for (const auto& part : p.bot_parts) {
    if (!check_placement(part, false)) {
      return "bottom part DFS placement does not reproduce the piece list";
    }
  }
  return {};
}

}  // namespace ssmst
