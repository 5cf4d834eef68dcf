#include "labels/marker.hpp"

#include <algorithm>

namespace ssmst {

KkpLabels MarkerOutput::kkp_label(NodeId v) const {
  const WeightedGraph& g = tree->graph();
  const FragmentHierarchy& h = *hierarchy;
  KkpLabels out;
  out.base = labels[v];
  out.pieces.assign(labels[v].string_length(), std::nullopt);
  for (const auto& [lev, f] : h.membership(v)) {
    const Fragment& frag = h.fragment(f);
    Piece p;
    p.root_id = g.id(frag.root);
    p.level = static_cast<std::uint32_t>(lev);
    p.min_out_w = frag.has_candidate ? frag.cand_weight : Piece::kNoOutgoing;
    out.pieces[static_cast<std::size_t>(lev)] = p;
  }
  return out;
}

std::vector<KkpLabels> MarkerOutput::kkp_label_vector() const {
  std::vector<KkpLabels> out(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) out[v] = kkp_label(v);
  return out;
}

std::vector<std::uint32_t> MarkerOutput::parent_ports() const {
  const WeightedGraph& g = tree->graph();
  std::vector<std::uint32_t> ports(g.n(),
                                   std::numeric_limits<std::uint32_t>::max());
  for (NodeId v = 0; v < g.n(); ++v) {
    if (v != tree->root()) ports[v] = tree->parent_port(v);
  }
  return ports;
}

namespace {

MarkerOutput assemble(const WeightedGraph& g, ReferenceResult ref,
                      std::uint32_t pack) {
  // Historical pack ceiling kept so the ablation suite's axis is stable;
  // the arena itself has no per-node capacity to exceed any more.
  pack = std::min(pack, kLabelPackCap);
  MarkerOutput out;
  out.tree = std::move(ref.tree);
  out.hierarchy = std::move(ref.hierarchy);
  out.schedule_rounds = ref.schedule_rounds;
  out.partitions = build_partitions(*out.hierarchy, pack);

  const RootedTree& t = *out.tree;
  const FragmentHierarchy& h = *out.hierarchy;
  const Partitions& parts = out.partitions;
  const NodeId n = g.n();
  const auto len = static_cast<std::size_t>(h.height()) + 1;

  // Striped-arena install: one bulk reservation, then per-label slices at
  // capacity == live length (a recycled slab when the pool has one).
  out.arena = LabelArenaPool::instance().acquire();
  out.arena->reserve(n, len, pack);

  out.labels.assign(n, {});
  for (NodeId v = 0; v < n; ++v) {
    NodeLabels& l = out.labels[v];
    l.sp_root_id = g.id(t.root());
    l.sp_dist = t.depth(v);
    l.self_id = g.id(v);
    l.parent_id = v == t.root() ? g.id(v) : g.id(t.parent(v));
    l.n_claim = n;
    l.subtree_count = t.subtree_size(v);

    // Value-initialized slices == the kStar/0 defaults the strings start
    // from. Every level with a fragment holding v reads "member, not its
    // root, not an endpoint"; the fragment pass below marks the exceptions.
    l.alloc(*out.arena, static_cast<std::uint32_t>(len), pack);
    const auto roots = l.roots();
    const auto endp = l.endp();
    for (const auto& [lev, f] : h.membership(v)) {
      roots[static_cast<std::size_t>(lev)] = RootsEntry::kZero;
      endp[static_cast<std::size_t>(lev)] = EndpEntry::kNone;
    }

    const auto& tpart = parts.top_parts[parts.top_part_of[v]];
    const auto& bpart = parts.bot_parts[parts.bot_part_of[v]];
    l.top_part_root_id = g.id(tpart.root);
    l.bot_part_root_id = g.id(bpart.root);
    l.top_piece_count = static_cast<std::uint32_t>(tpart.pieces.size());
    l.bot_piece_count = static_cast<std::uint32_t>(bpart.pieces.size());
    l.top_part_depth = t.depth(v) - t.depth(tpart.root);
    l.bot_part_depth = t.depth(v) - t.depth(bpart.root);
    l.delim = parts.delim[v];
    l.pack = parts.pack;
    const auto tp = parts.perm_top_pieces(v);
    const auto bp = parts.perm_bot_pieces(v);
    l.set_top_perm(tp.data(), tp.size());
    l.set_bot_perm(bp.data(), bp.size());
  }

  // The members a fragment singles out: its root (Roots = 1), the inner
  // endpoint of its candidate edge (EndP up or down) and, when that edge
  // leads down the tree, the child it reaches (Parents = 1).
  for (const Fragment& frag : h.fragments()) {
    const auto j = static_cast<std::size_t>(frag.level);
    out.labels[frag.root].roots()[j] = RootsEntry::kOne;
    if (!frag.has_candidate) continue;
    const NodeId x = frag.cand_inside;
    const NodeId o = frag.cand_outside;
    const bool up = x != t.root() && o == t.parent(x);
    out.labels[x].endp()[j] = up ? EndpEntry::kUp : EndpEntry::kDown;
    if (o != t.root() && t.parent(o) == x) out.labels[o].parents()[j] = 1;
  }

  // EPS1 counting sub-scheme: the number of candidate endpoints in each
  // node's fragment-subtree, per level and capped at 2, in one sweep with
  // children before parents. A child c lies in v's level-j fragment exactly
  // when it is a non-root member of a level-j fragment (Roots_c[j] == 0):
  // fragments are subtrees of T, so that fragment then also holds c's
  // parent v. Levels where v has no fragment sum to 0, their default.
  std::vector<std::uint32_t> acc(len);
  const auto& pre = t.dfs_preorder();
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    NodeLabels& l = out.labels[*it];
    const auto endp = l.endp();
    for (std::size_t j = 0; j < len; ++j) {
      acc[j] = endp[j] == EndpEntry::kUp || endp[j] == EndpEntry::kDown;
    }
    for (NodeId c : t.children(*it)) {
      const auto roots_c = out.labels[c].roots();
      const auto cnt_c = out.labels[c].endp_cnt();
      for (std::size_t j = 0; j < len; ++j) {
        if (roots_c[j] == RootsEntry::kZero) acc[j] += cnt_c[j];
      }
    }
    const auto cnt = l.endp_cnt();
    for (std::size_t j = 0; j < len; ++j) {
      cnt[j] = static_cast<std::uint8_t>(std::min(acc[j], 2u));
    }
  }

  // The KKP baseline labels are NOT materialized here: kkp_label(v)
  // builds them on demand from the hierarchy, so a marked instance no
  // longer carries a second, Theta(log^2 n)-bits-per-node copy of the
  // piece tables alongside the compact labels.
  return out;
}

}  // namespace

MarkerOutput make_labels(const WeightedGraph& g, std::uint32_t pack) {
  return assemble(g, build_reference_hierarchy(g), pack);
}

MarkerOutput make_labels_for_tree(const WeightedGraph& g,
                                  const std::vector<bool>& in_tree,
                                  std::uint32_t pack) {
  return assemble(g, build_hierarchy_on_tree(g, in_tree), pack);
}

}  // namespace ssmst
