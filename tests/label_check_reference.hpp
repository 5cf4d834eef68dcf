#pragma once

// The three 1-round label checks as they were written before they returned
// LabelViolation codes: one loop per condition, a std::string per verdict.
// Kept only as the reference the fused checks in labels/verify1.hpp are
// pinned against (tests/test_label_check_diff.cpp): on any register
// contents, describe(new verdict) must equal the text returned here.
//
// The bodies are the old ones verbatim, except that the reader became a
// template parameter (any type with `labels(port)` and `parent_port(port)`),
// the KKP check wraps its reader in BaseView to reach the base labels, and
// its calls are qualified so that argument-dependent lookup cannot pick the
// ssmst:: templates of the same name.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "labels/labels.hpp"
#include "util/bits.hpp"

namespace ssmst::reference {

namespace detail {

inline bool is_endpoint(EndpEntry e) {
  return e == EndpEntry::kUp || e == EndpEntry::kDown;
}

inline std::uint32_t theta_of(std::uint32_t n_claim) {
  return top_threshold(std::max<NodeId>(n_claim, 1));
}

}  // namespace detail

template <typename Reader>
std::string verify_labels_1round(const WeightedGraph& g, NodeId v,
                                 const NodeLabels& own,
                                 std::uint32_t own_parent_port,
                                 const Reader& nbr) {
  using detail::is_endpoint;
  using detail::theta_of;
  const std::uint32_t deg = g.degree(v);
  const bool is_root = own_parent_port == kNoPort;
  const std::size_t len = own.string_length();
  // Hoisted stripe views: one arena dereference per field for the whole
  // check instead of one per element access.
  const auto own_roots = own.roots();
  const auto own_endp = own.endp();
  const auto own_parents = own.parents();
  const auto own_endp_cnt = own.endp_cnt();

  // --- Identity and SP (Example SP + remark) -------------------------------
  if (own.self_id != g.id(v)) return "SP: self_id differs from true identity";
  if (own_parent_port != kNoPort && own_parent_port >= deg) {
    return "component: parent port out of range";
  }
  const NodeLabels* parent = nullptr;
  if (!is_root) {
    parent = &nbr.labels(own_parent_port);
    if (own.parent_id != parent->self_id) {
      return "SP: parent_id does not match the parent's self_id";
    }
    if (own.sp_dist != parent->sp_dist + 1) {
      return "SP: distance is not parent's distance + 1";
    }
  } else {
    if (own.sp_dist != 0) return "SP: root with non-zero distance";
    if (own.sp_root_id != own.self_id) {
      return "SP: root's sp_root_id differs from its identity";
    }
  }
  // One pass over the neighbour headers gathers the SP and NumK facts;
  // the violations are then reported in the historical priority order.
  bool sp_disagree = false;
  bool n_disagree = false;
  std::uint64_t subtree_sum = 1;
  for (std::uint32_t p = 0; p < deg; ++p) {
    const NodeLabels& u = nbr.labels(p);
    sp_disagree |= u.sp_root_id != own.sp_root_id;
    n_disagree |= u.n_claim != own.n_claim;
    if (nbr.parent_port(p) == g.half_edge(v, p).rev_port) {
      subtree_sum += u.subtree_count;
    }
  }
  if (sp_disagree) {
    return "SP: neighbours disagree on the tree root identity";
  }

  // --- NumK (Example NumK) --------------------------------------------------
  if (own.n_claim == 0) return "NumK: zero node count claimed";
  if (n_disagree) return "NumK: neighbours disagree on n";
  if (own.subtree_count != subtree_sum || subtree_sum > own.n_claim) {
    return "NumK: subtree count mismatch";
  }
  if (is_root && own.subtree_count != own.n_claim) {
    return "NumK: root subtree count differs from claimed n";
  }

  // --- String shapes (RS1) --------------------------------------------------
  const auto max_len =
      static_cast<std::size_t>(ceil_log2(std::max<NodeId>(own.n_claim, 2))) +
      2;
  if (len == 0 || len > max_len) return "RS1: bad string length";
  // (The four strings cannot differ in length any more: they share one
  // (offset, length) header in the striped-arena layout, so the historical
  // "string lengths differ" corruption is structurally unrepresentable.)
  for (std::uint32_t p = 0; p < deg; ++p) {
    if (nbr.labels(p).string_length() != len) {
      return "RS1: neighbour string length differs";
    }
  }

  // --- Roots string conditions RS0, RS2–RS5 --------------------------------
  {
    bool seen_zero = false;
    for (std::size_t j = 0; j < len; ++j) {
      if (own_roots[j] == RootsEntry::kZero) seen_zero = true;
      if (own_roots[j] == RootsEntry::kOne && seen_zero) {
        return "RS0: a 1 after a 0 in the Roots string";
      }
    }
  }
  if (is_root) {
    for (std::size_t j = 0; j < len; ++j) {
      if (own_roots[j] == RootsEntry::kZero) {
        return "RS2: tree root with a 0 entry";
      }
    }
    if (own_roots[len - 1] != RootsEntry::kOne) {
      return "RS2: tree root's top entry is not 1";
    }
  }
  if (own_roots[0] != RootsEntry::kOne) return "RS3: level-0 entry is not 1";
  if (!is_root && own_roots[len - 1] != RootsEntry::kZero) {
    return "RS4: non-root top entry is not 0";
  }
  if (!is_root) {
    for (std::size_t j = 0; j < len; ++j) {
      if (own_roots[j] == RootsEntry::kZero &&
          parent->roots()[j] == RootsEntry::kStar) {
        return "RS5: member of a fragment whose parent has no fragment";
      }
    }
  }

  // --- EndP / Parents conditions EPS0, EPS2–EPS5 and coherence -------------
  for (std::size_t j = 0; j < len; ++j) {
    const bool has_frag = own_roots[j] != RootsEntry::kStar;
    if ((own_endp[j] == EndpEntry::kStar) == has_frag) {
      return "EndP: star entries disagree with Roots";
    }
    if (own_endp[j] == EndpEntry::kUp && is_root) {
      return "EndP: tree root claims an up candidate";
    }
  }
  if (!is_root) {
    for (std::size_t j = 0; j < len; ++j) {
      if (own_parents[j] == 1 && parent->endp()[j] != EndpEntry::kDown) {
        return "EPS0: Parents bit without a down candidate at the parent";
      }
    }
  }
  // One contiguous LevelEntry walk per tree child feeds the EPS2 marked-
  // child counts and the EPS1 endpoint sums for every level at once,
  // instead of re-reading each child's stripes once per level. After RS1
  // every neighbour's string length equals len, so the walks are exactly
  // len entries. len <= ceil_log2(n_claim) + 2 <= 34 (checked by RS1), so
  // the kLabelLevelCap-sized stack accumulators always fit.
  std::uint32_t marked[kLabelLevelCap] = {};
  std::uint32_t cnt_sum[kLabelLevelCap] = {};
  for (std::uint32_t p = 0; p < deg; ++p) {
    if (nbr.parent_port(p) != g.half_edge(v, p).rev_port) continue;
    const NodeLabels& c = nbr.labels(p);
    const LevelEntry* ce = c.arena ? c.arena->levels(c.lvl_off) : nullptr;
    for (std::size_t j = 0; j < c.string_length() && j < len; ++j) {
      if (ce[j].parents == 1) ++marked[j];
      if (ce[j].roots == RootsEntry::kZero) cnt_sum[j] += ce[j].endp_cnt;
    }
  }

  for (std::size_t j = 0; j < len; ++j) {
    if (own_endp[j] == EndpEntry::kDown) {
      if (marked[j] != 1) {
        return "EPS2: down candidate without exactly one marked child";
      }
    }
    if (own_endp[j] == EndpEntry::kUp) {
      if (own_roots[j] != RootsEntry::kOne) {
        return "EPS3: up candidate at a non-root of the fragment";
      }
      for (std::size_t i = j + 1; i < len; ++i) {
        if (own_roots[i] == RootsEntry::kOne) {
          return "EPS3: up candidate but root at a higher level";
        }
      }
    }
    if (own_parents[j] == 1) {
      if (own_roots[j] == RootsEntry::kZero) {
        return "EPS4: Parents bit at a fragment member";
      }
      for (std::size_t i = j + 1; i < len; ++i) {
        if (own_roots[i] == RootsEntry::kOne) {
          return "EPS4: Parents bit but root at a higher level";
        }
      }
    }
  }
  if (!is_root) {
    bool attached = false;
    for (std::size_t j = 0; j < len; ++j) {
      if (own_parents[j] == 1 || own_endp[j] == EndpEntry::kUp) {
        attached = true;
      }
    }
    if (!attached) return "EPS5: non-root never merges upward";
  }

  // --- EPS1 counting sub-scheme ---------------------------------------------
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint32_t sum =
        (is_endpoint(own_endp[j]) ? 1u : 0u) + cnt_sum[j];
    if (own_roots[j] == RootsEntry::kStar && sum != 0) {
      return "EPS1: endpoint count without a fragment";
    }
    if (own_endp_cnt[j] != std::min(sum, 2u)) {
      return "EPS1: endpoint count mismatch";
    }
    if (sum > 1) return "EPS1: more than one candidate endpoint";
    if (own_roots[j] == RootsEntry::kOne) {
      const bool is_top_level = j + 1 == len;
      if (is_top_level ? sum != 0 : sum != 1) {
        return "EPS1: fragment root sees wrong endpoint count";
      }
    }
  }

  // --- Partitions (Section 8): existence, shape, permanent pieces ----------
  const std::uint32_t theta = theta_of(own.n_claim);
  auto check_part = [&](std::uint64_t part_root_id, std::uint32_t depth,
                        std::uint32_t piece_count, std::uint64_t parent_root,
                        std::uint32_t parent_depth,
                        std::uint32_t parent_count,
                        std::uint32_t depth_bound) -> const char* {
    const bool part_root = part_root_id == own.self_id;
    if (part_root) {
      if (depth != 0) return "partition: part root with non-zero depth";
    } else {
      if (is_root) return "partition: tree root must head its parts";
      if (parent_root != part_root_id) {
        return "partition: part differs from parent's without being a root";
      }
      if (depth != parent_depth + 1) return "partition: depth mismatch";
      if (piece_count != parent_count) {
        return "partition: piece count differs inside a part";
      }
    }
    if (depth > depth_bound) return "partition: part too deep";
    if (piece_count > 2 * theta + 2) return "partition: too many pieces";
    return nullptr;
  };
  {
    const std::uint64_t ptr = is_root ? 0 : parent->top_part_root_id;
    const std::uint32_t ptd = is_root ? 0 : parent->top_part_depth;
    const std::uint32_t ptc = is_root ? 0 : parent->top_piece_count;
    if (const char* e =
            check_part(own.top_part_root_id, own.top_part_depth,
                       own.top_piece_count, ptr, ptd, ptc, 8 * theta)) {
      return std::string("top ") + e;
    }
    const std::uint64_t pbr = is_root ? 0 : parent->bot_part_root_id;
    const std::uint32_t pbd = is_root ? 0 : parent->bot_part_depth;
    const std::uint32_t pbc = is_root ? 0 : parent->bot_piece_count;
    if (const char* e =
            check_part(own.bot_part_root_id, own.bot_part_depth,
                       own.bot_piece_count, pbr, pbd, pbc, theta + 1)) {
      return std::string("bottom ") + e;
    }
  }
  // Packing claim: consistent across the tree and within sane bounds.
  if (own.pack < 2 || own.pack > 2 * theta + 2) {
    return "pieces: packing constant out of range";
  }
  if (!is_root && parent->pack != own.pack) {
    return "pieces: packing constant differs from the parent's";
  }
  if (own.top_perm().size() > own.pack || own.bot_perm().size() > own.pack) {
    return "pieces: more permanent pieces than the packing allows";
  }
  for (const auto perm : {own.top_perm(), own.bot_perm()}) {
    for (std::size_t i = 1; i < perm.size(); ++i) {
      if (!(perm[i - 1].key() < perm[i].key())) {
        return "pieces: permanent pieces out of order";
      }
    }
    for (const Piece& p : perm) {
      if (p.level >= len) return "pieces: piece level out of range";
    }
  }
  if (own.delim >= len + 1) return "partition: delimiter out of range";
  return {};
}

inline std::string check_pair_event(const WeightedGraph& g, NodeId v,
                                    std::uint32_t port, std::uint32_t j,
                                    const NodeLabels& own,
                                    std::uint32_t own_parent_port,
                                    const NodeLabels& their,
                                    std::uint32_t their_parent_port,
                                    const std::optional<Piece>& mine,
                                    const std::optional<Piece>& theirs) {
  const std::size_t len = own.string_length();
  if (j >= len) return "pair: level out of range";
  const bool have_frag = own.roots()[j] != RootsEntry::kStar;
  if (mine.has_value() != have_frag) {
    return "pair: piece presence disagrees with the Roots string";
  }
  if (mine) {
    if (mine->level != j) return "pair: piece level mismatch";
    if (own.roots()[j] == RootsEntry::kOne &&
        mine->root_id != own.self_id) {
      return "pair: fragment root identity mismatch (Claim 8.3)";
    }
  }
  if (!mine) return {};  // no fragment at this level: nothing outgoing here

  const HalfEdge& he = g.half_edge(v, port);
  const bool same_fragment =
      theirs.has_value() && theirs->root_id == mine->root_id &&
      theirs->level == mine->level;

  // Piece equality inside a fragment (Claim 8.3 transitivity): any
  // neighbour presenting the same fragment identifier must present the
  // exact same piece.
  if (same_fragment && !(*theirs == *mine)) {
    return "pair: two copies of the same fragment's piece differ";
  }

  // Structural cross-check along tree edges: the strings already encode
  // whether a tree neighbour shares the level-j fragment.
  const bool u_is_parent = port == own_parent_port;
  const bool u_is_child = their_parent_port == he.rev_port;
  if (u_is_parent) {
    const bool strings_say_same = own.roots()[j] == RootsEntry::kZero;
    if (strings_say_same != same_fragment) {
      return "pair: parent fragment membership contradicts the strings";
    }
  } else if (u_is_child) {
    const bool strings_say_same = their.string_length() > j &&
                                  their.roots()[j] == RootsEntry::kZero;
    if (strings_say_same != same_fragment) {
      return "pair: child fragment membership contradicts the strings";
    }
  }

  // C1: if this edge is the fragment's selected candidate, it must be
  // outgoing and its weight must equal the claimed minimum.
  const bool candidate_up = own.endp()[j] == EndpEntry::kUp && u_is_parent;
  const bool candidate_down =
      own.endp()[j] == EndpEntry::kDown && u_is_child &&
      their.string_length() > j && their.parents()[j] == 1;
  if (candidate_up || candidate_down) {
    if (same_fragment) return "C1: selected candidate edge is not outgoing";
    if (mine->min_out_w != he.w) {
      return "C1: claimed minimum differs from the candidate edge weight";
    }
  }

  // C2: every outgoing edge must weigh at least the claimed minimum.
  if (!same_fragment) {
    if (mine->min_out_w == Piece::kNoOutgoing || mine->min_out_w > he.w) {
      return "C2: outgoing edge lighter than the claimed minimum";
    }
  }
  return {};
}

/// Base-label view over a KKP reader (for the base checks).
template <typename Reader>
struct BaseView {
  const Reader* r;
  const NodeLabels& labels(std::uint32_t port) const {
    return r->labels(port).base;
  }
  std::uint32_t parent_port(std::uint32_t port) const {
    return r->parent_port(port);
  }
};

template <typename Reader>
std::string verify_kkp_1round(const WeightedGraph& g, NodeId v,
                              const KkpLabels& own,
                              std::uint32_t own_parent_port,
                              const Reader& nbr) {
  BaseView<Reader> base_view{&nbr};
  if (auto e = reference::verify_labels_1round(g, v, own.base,
                                               own_parent_port, base_view);
      !e.empty()) {
    return e;
  }
  const std::size_t len = own.base.string_length();
  if (own.pieces.size() != len) return "KKP: piece table length mismatch";
  for (std::uint32_t p = 0; p < g.degree(v); ++p) {
    const KkpLabels& their = nbr.labels(p);
    if (their.pieces.size() != their.base.string_length()) {
      continue;  // the neighbour's own verifier flags this
    }
    for (std::uint32_t j = 0; j < len; ++j) {
      std::optional<Piece> theirs;
      if (j < their.pieces.size()) theirs = their.pieces[j];
      if (auto e = reference::check_pair_event(
              g, v, p, j, own.base, own_parent_port, their.base,
              nbr.parent_port(p), own.pieces[j], theirs);
          !e.empty()) {
        return "KKP " + e;
      }
    }
  }
  return {};
}

}  // namespace ssmst::reference
