#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>

#include "labels/labels.hpp"
#include "util/bits.hpp"
#include "util/contract.hpp"

namespace ssmst {

// Every verdict of the 1-round label checks, each next to its text, in the
// order verify_labels_1round tests them. The partition list expands once
// for the top and once for the bottom partition; the pair list once for
// check_pair_event and once for verify_kkp_1round, which prefixes "KKP ".
#define SSMST_PART_VIOLATIONS(X, P, pre)                                     \
  X(P##PartRootDepth, pre "partition: part root with non-zero depth")        \
  X(P##TreeRootHeads, pre "partition: tree root must head its parts")        \
  X(P##PartDiffers,                                                          \
    pre "partition: part differs from parent's without being a root")        \
  X(P##Depth, pre "partition: depth mismatch")                               \
  X(P##PieceCount, pre "partition: piece count differs inside a part")       \
  X(P##TooDeep, pre "partition: part too deep")                              \
  X(P##TooManyPieces, pre "partition: too many pieces")

#define SSMST_PAIR_VIOLATIONS(X, P, pre)                                     \
  X(P##PairLevel, pre "pair: level out of range")                            \
  X(P##PairPresence,                                                         \
    pre "pair: piece presence disagrees with the Roots string")              \
  X(P##PairPieceLevel, pre "pair: piece level mismatch")                     \
  X(P##PairRootId, pre "pair: fragment root identity mismatch (Claim 8.3)")  \
  X(P##PairCopies, pre "pair: two copies of the same fragment's piece differ") \
  X(P##PairParent,                                                           \
    pre "pair: parent fragment membership contradicts the strings")          \
  X(P##PairChild,                                                            \
    pre "pair: child fragment membership contradicts the strings")           \
  X(P##C1NotOutgoing, pre "C1: selected candidate edge is not outgoing")     \
  X(P##C1Weight,                                                             \
    pre "C1: claimed minimum differs from the candidate edge weight")        \
  X(P##C2Lighter, pre "C2: outgoing edge lighter than the claimed minimum")

#define SSMST_LABEL_VIOLATIONS(X)                                            \
  X(None, "")                                                                \
  X(SpSelfId, "SP: self_id differs from true identity")                      \
  X(ParentPort, "component: parent port out of range")                       \
  X(SpParentId, "SP: parent_id does not match the parent's self_id")         \
  X(SpDistance, "SP: distance is not parent's distance + 1")                 \
  X(SpRootDistance, "SP: root with non-zero distance")                       \
  X(SpRootId, "SP: root's sp_root_id differs from its identity")             \
  X(SpDisagree, "SP: neighbours disagree on the tree root identity")         \
  X(NumKZero, "NumK: zero node count claimed")                               \
  X(NumKDisagree, "NumK: neighbours disagree on n")                          \
  X(NumKSubtree, "NumK: subtree count mismatch")                             \
  X(NumKRoot, "NumK: root subtree count differs from claimed n")             \
  X(Rs1Length, "RS1: bad string length")                                     \
  X(Rs1Neighbour, "RS1: neighbour string length differs")                    \
  X(Rs0, "RS0: a 1 after a 0 in the Roots string")                           \
  X(Rs2Zero, "RS2: tree root with a 0 entry")                                \
  X(Rs2Top, "RS2: tree root's top entry is not 1")                           \
  X(Rs3, "RS3: level-0 entry is not 1")                                      \
  X(Rs4, "RS4: non-root top entry is not 0")                                 \
  X(Rs5, "RS5: member of a fragment whose parent has no fragment")           \
  X(EndpStar, "EndP: star entries disagree with Roots")                      \
  X(EndpRootUp, "EndP: tree root claims an up candidate")                    \
  X(Eps0, "EPS0: Parents bit without a down candidate at the parent")        \
  X(Eps2, "EPS2: down candidate without exactly one marked child")           \
  X(Eps3Member, "EPS3: up candidate at a non-root of the fragment")          \
  X(Eps3Higher, "EPS3: up candidate but root at a higher level")             \
  X(Eps4Member, "EPS4: Parents bit at a fragment member")                    \
  X(Eps4Higher, "EPS4: Parents bit but root at a higher level")              \
  X(Eps5, "EPS5: non-root never merges upward")                              \
  X(Eps1Star, "EPS1: endpoint count without a fragment")                     \
  X(Eps1Count, "EPS1: endpoint count mismatch")                              \
  X(Eps1Many, "EPS1: more than one candidate endpoint")                      \
  X(Eps1Root, "EPS1: fragment root sees wrong endpoint count")               \
  SSMST_PART_VIOLATIONS(X, Top, "top ")                                      \
  SSMST_PART_VIOLATIONS(X, Bot, "bottom ")                                   \
  X(PackRange, "pieces: packing constant out of range")                      \
  X(PackParent, "pieces: packing constant differs from the parent's")        \
  X(PermCount, "pieces: more permanent pieces than the packing allows")      \
  X(PermOrder, "pieces: permanent pieces out of order")                      \
  X(PermLevel, "pieces: piece level out of range")                           \
  X(Delim, "partition: delimiter out of range")                              \
  SSMST_PAIR_VIOLATIONS(X, , "")                                             \
  X(KkpTableLength, "KKP: piece table length mismatch")                      \
  SSMST_PAIR_VIOLATIONS(X, Kkp, "KKP ")

/// The verdict of a 1-round label check: kNone when every check passes,
/// else the first violated condition. One byte, so a verdict costs nothing
/// to return or store; describe() renders it.
enum class LabelViolation : std::uint8_t {
#define SSMST_VIOLATION_CODE(name, text) k##name,
  SSMST_LABEL_VIOLATIONS(SSMST_VIOLATION_CODE)
#undef SSMST_VIOLATION_CODE
};

/// The condition a verdict names, as static text ("" for kNone).
const char* describe(LabelViolation code);

/// A reader gives port-indexed access to the neighbours' labels and
/// components, as one node sees them through its registers: `labels(port)`
/// (NodeLabels, or KkpLabels for the KKP check) and `parent_port(port)`,
/// the neighbour's claimed parent port (kNoPort for the tree root). This
/// one reads them off an engine NeighborReader whose registers carry
/// `labels` and `parent_port` fields.
template <typename Nbr>
struct RegisterReader {
  const Nbr& nbr;
  const auto& labels(std::uint32_t port) const {
    return nbr.at_port(port).labels;
  }
  std::uint32_t parent_port(std::uint32_t port) const {
    return nbr.at_port(port).parent_port;
  }
};

inline const NodeLabels& base_labels(const NodeLabels& l) { return l; }
inline const NodeLabels& base_labels(const KkpLabels& l) { return l.base; }

/// All 1-round label checks of the scheme: Example SP (+ identity remark),
/// Example NumK, the Roots-string conditions RS0–RS5, the candidate-string
/// conditions EPS0–EPS5 with the EPS1 counting sub-scheme, the
/// partition-existence and part-shape checks of Section 8, and the
/// permanent-piece sanity checks.
///
/// Returns the first violated condition in the order of the code list
/// above (within one per-level condition group, the lowest level), or
/// kNone. Purely local: reads only v's own register and its neighbours'
/// registers, each level string once.
template <typename Reader>
SSMST_HOT_PATH LabelViolation verify_labels_1round(
    const WeightedGraph& g, NodeId v, const NodeLabels& own,
    std::uint32_t own_parent_port, const Reader& nbr) {
  using V = LabelViolation;
  const auto links = g.neighbors(v);
  const auto deg = static_cast<std::uint32_t>(links.size());
  const bool is_root = own_parent_port == kNoPort;
  const std::size_t len = own.string_length();

  // --- Identity and SP (Example SP + remark) -------------------------------
  if (own.self_id != g.id(v)) return V::kSpSelfId;
  if (!is_root && own_parent_port >= deg) return V::kParentPort;
  const NodeLabels* parent = nullptr;
  if (!is_root) {
    parent = &base_labels(nbr.labels(own_parent_port));
    if (own.parent_id != parent->self_id) return V::kSpParentId;
    if (own.sp_dist != parent->sp_dist + 1) return V::kSpDistance;
  } else {
    if (own.sp_dist != 0) return V::kSpRootDistance;
    if (own.sp_root_id != own.self_id) return V::kSpRootId;
  }

  // One pass over the ports gathers the SP, NumK and RS1 facts and walks
  // each tree child's levels once into per-level bit masks: at least one /
  // at least two children with a Parents mark (EPS2), and the same for the
  // member children's EPS1 endpoint counts. The masks are read only after
  // RS1 passes, so a child is walked only when its length equals len and
  // len is within RS1's bound of ceil_log2(n_claim) + 2 <= 34 levels.
  const std::size_t max_len = ceil_log2(std::max<NodeId>(own.n_claim, 2)) + 2;
  const bool len_ok = len != 0 && len <= max_len;
  bool sp_disagree = false;
  bool n_disagree = false;
  bool len_disagree = false;
  std::uint64_t subtree_sum = 1;
  std::uint64_t marked1 = 0, marked2 = 0, cnt1 = 0, cnt2 = 0;
  for (std::uint32_t p = 0; p < deg; ++p) {
    const NodeLabels& u = base_labels(nbr.labels(p));
    sp_disagree |= u.sp_root_id != own.sp_root_id;
    n_disagree |= u.n_claim != own.n_claim;
    len_disagree |= u.string_length() != len;
    if (nbr.parent_port(p) != links[p].rev_port) continue;
    subtree_sum += u.subtree_count;
    if (!len_ok || u.string_length() != len) continue;
    const LevelEntry* ce = u.arena->levels(u.lvl_off);
    std::uint64_t mark = 0, ge1 = 0, ge2 = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint64_t bit = std::uint64_t{1} << j;
      const bool member = ce[j].roots == RootsEntry::kZero;
      if (ce[j].parents == 1) mark |= bit;
      if (member && ce[j].endp_cnt >= 1) ge1 |= bit;
      if (member && ce[j].endp_cnt >= 2) ge2 |= bit;
    }
    marked2 |= marked1 & mark;
    marked1 |= mark;
    cnt2 |= (cnt1 & ge1) | ge2;
    cnt1 |= ge1;
  }
  if (sp_disagree) return V::kSpDisagree;

  // --- NumK (Example NumK) --------------------------------------------------
  if (own.n_claim == 0) return V::kNumKZero;
  if (n_disagree) return V::kNumKDisagree;
  if (own.subtree_count != subtree_sum || subtree_sum > own.n_claim) {
    return V::kNumKSubtree;
  }
  if (is_root && own.subtree_count != own.n_claim) return V::kNumKRoot;

  // --- String shapes (RS1) --------------------------------------------------
  // (The four strings share one (offset, length) header, so they cannot
  // differ in length.)
  if (!len_ok) return V::kRs1Length;
  if (len_disagree) return V::kRs1Neighbour;

  // One pass over the own and the parent's levels (the parent's length is
  // len after RS1) sets one bit per level in one mask per fact.
  std::uint64_t zero = 0, one = 0, star = 0;               // Roots
  std::uint64_t e_star = 0, e_up = 0, e_down = 0;          // EndP
  std::uint64_t mark = 0;                                  // Parents
  std::uint64_t cnt_is0 = 0, cnt_is1 = 0, cnt_is2 = 0;     // EPS1 counts
  std::uint64_t p_star = 0, p_down = 0;                    // the parent's
  const LevelEntry* me = own.arena->levels(own.lvl_off);
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint64_t bit = std::uint64_t{1} << j;
    const LevelEntry e = me[j];
    if (e.roots == RootsEntry::kZero) zero |= bit;
    if (e.roots == RootsEntry::kOne) one |= bit;
    if (e.roots == RootsEntry::kStar) star |= bit;
    if (e.endp == EndpEntry::kStar) e_star |= bit;
    if (e.endp == EndpEntry::kUp) e_up |= bit;
    if (e.endp == EndpEntry::kDown) e_down |= bit;
    if (e.parents == 1) mark |= bit;
    if (e.endp_cnt == 0) cnt_is0 |= bit;
    if (e.endp_cnt == 1) cnt_is1 |= bit;
    if (e.endp_cnt == 2) cnt_is2 |= bit;
  }
  if (!is_root) {
    const LevelEntry* pe = parent->arena->levels(parent->lvl_off);
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint64_t bit = std::uint64_t{1} << j;
      if (pe[j].roots == RootsEntry::kStar) p_star |= bit;
      if (pe[j].endp == EndpEntry::kDown) p_down |= bit;
    }
  }
  const std::uint64_t all = (std::uint64_t{1} << len) - 1;
  const std::uint64_t top = std::uint64_t{1} << (len - 1);
  const auto lowest = [](std::uint64_t m) { return m & (~m + 1); };

  // --- Roots string conditions RS0, RS2–RS5 --------------------------------
  if ((one & ~(lowest(zero) * 2 - 1)) != 0) return V::kRs0;
  if (is_root) {
    if (zero != 0) return V::kRs2Zero;
    if ((one & top) == 0) return V::kRs2Top;
  }
  if ((one & 1) == 0) return V::kRs3;
  if (!is_root && (zero & top) == 0) return V::kRs4;
  if ((zero & p_star) != 0) return V::kRs5;

  // --- EndP / Parents conditions EPS0, EPS2–EPS5 and coherence -------------
  const std::uint64_t endp_star = e_star ^ star;  // (EndP *) != (Roots *)
  const std::uint64_t root_up = is_root ? e_up : 0;
  if (const std::uint64_t m = endp_star | root_up; m != 0) {
    return (endp_star & lowest(m)) != 0 ? V::kEndpStar : V::kEndpRootUp;
  }
  if (!is_root && (mark & ~p_down) != 0) return V::kEps0;
  // Levels with a 1 above them (RS3 passed, so `one` is not empty).
  const std::uint64_t below_one = std::bit_floor(one) - 1;
  const std::uint64_t eps2 = e_down & ~(marked1 & ~marked2);
  const std::uint64_t eps3_member = e_up & ~one;
  const std::uint64_t eps3_higher = e_up & below_one;
  const std::uint64_t eps4_member = mark & zero;
  const std::uint64_t eps4_higher = mark & below_one;
  if (const std::uint64_t m =
          eps2 | eps3_member | eps3_higher | eps4_member | eps4_higher;
      m != 0) {
    const std::uint64_t b = lowest(m);
    if ((eps2 & b) != 0) return V::kEps2;
    if ((eps3_member & b) != 0) return V::kEps3Member;
    if ((eps3_higher & b) != 0) return V::kEps3Higher;
    return (eps4_member & b) != 0 ? V::kEps4Member : V::kEps4Higher;
  }
  if (!is_root && (mark | e_up) == 0) return V::kEps5;

  // --- EPS1 counting sub-scheme ---------------------------------------------
  // sum = own endpoint bit + the member children's counts, as >= 1 / >= 2.
  const std::uint64_t endpoint = e_up | e_down;
  const std::uint64_t sum1 = endpoint | cnt1;
  const std::uint64_t sum2 = (endpoint & cnt1) | cnt2;
  const std::uint64_t eps1_star = star & sum1;
  const std::uint64_t eps1_count =
      ((cnt_is0 & sum1) | (cnt_is1 & (~sum1 | sum2)) | (cnt_is2 & ~sum2) |
       ~(cnt_is0 | cnt_is1 | cnt_is2)) &
      all;  // endp_cnt != min(sum, 2)
  const std::uint64_t eps1_root =  // top level: sum != 0; else sum != 1
      one & ((top & sum1) | (~top & (~sum1 | sum2)));
  if (const std::uint64_t m = eps1_star | eps1_count | sum2 | eps1_root;
      m != 0) {
    const std::uint64_t b = lowest(m);
    if ((eps1_star & b) != 0) return V::kEps1Star;
    if ((eps1_count & b) != 0) return V::kEps1Count;
    return (sum2 & b) != 0 ? V::kEps1Many : V::kEps1Root;
  }

  // --- Partitions (Section 8): existence, shape, permanent pieces ----------
  const std::uint32_t theta = top_threshold(std::max<NodeId>(own.n_claim, 1));
  auto check_part = [&](bool bottom) -> V {
    // Written with the top codes; a bottom code sits as far into its list.
    const auto code = [bottom](V top_code) {
      constexpr auto kShift = static_cast<unsigned>(V::kBotPartRootDepth) -
                              static_cast<unsigned>(V::kTopPartRootDepth);
      return bottom ? static_cast<V>(static_cast<unsigned>(top_code) + kShift)
                    : top_code;
    };
    const auto part = [bottom](const NodeLabels& l) {
      return bottom ? std::tuple{l.bot_part_root_id, l.bot_part_depth,
                                 l.bot_piece_count}
                    : std::tuple{l.top_part_root_id, l.top_part_depth,
                                 l.top_piece_count};
    };
    const auto [part_root_id, depth, piece_count] = part(own);
    if (part_root_id == own.self_id) {
      if (depth != 0) return code(V::kTopPartRootDepth);
    } else {
      if (is_root) return code(V::kTopTreeRootHeads);
      const auto [parent_root, parent_depth, parent_count] = part(*parent);
      if (parent_root != part_root_id) return code(V::kTopPartDiffers);
      if (depth != parent_depth + 1) return code(V::kTopDepth);
      if (piece_count != parent_count) return code(V::kTopPieceCount);
    }
    if (depth > (bottom ? theta + 1 : 8 * theta)) return code(V::kTopTooDeep);
    if (piece_count > 2 * theta + 2) return code(V::kTopTooManyPieces);
    return V::kNone;
  };
  for (const bool bottom : {false, true}) {
    if (const V e = check_part(bottom); e != V::kNone) return e;
  }
  // Packing claim: consistent across the tree and within sane bounds.
  if (own.pack < 2 || own.pack > 2 * theta + 2) return V::kPackRange;
  if (!is_root && parent->pack != own.pack) return V::kPackParent;
  if (own.top_perm().size() > own.pack || own.bot_perm().size() > own.pack) {
    return V::kPermCount;
  }
  for (const auto perm : {own.top_perm(), own.bot_perm()}) {
    for (std::size_t i = 1; i < perm.size(); ++i) {
      if (!(perm[i - 1].key() < perm[i].key())) return V::kPermOrder;
    }
    for (const Piece& p : perm) {
      if (p.level >= len) return V::kPermLevel;
    }
  }
  if (own.delim >= len + 1) return V::kDelim;
  return V::kNone;
}

/// The comparison performed when event E(v, u, j) occurs (Sections 7.2/8):
/// checks C1 and C2 plus the piece-equality and root-identity checks of
/// Claims 8.2/8.3.
///
/// `mine` is the piece I(F_j(v)) currently held by v; `theirs` is I(F_j(u))
/// as shown by the neighbour behind `port`. Null means "no fragment of
/// level j contains the node". Returns the first violated condition or
/// kNone.
SSMST_HOT_PATH inline LabelViolation check_pair_event(
    const WeightedGraph& g, NodeId v, std::uint32_t port, std::uint32_t j,
    const NodeLabels& own, std::uint32_t own_parent_port,
    const NodeLabels& their, std::uint32_t their_parent_port,
    const Piece* mine, const Piece* theirs) {
  using V = LabelViolation;
  if (j >= own.string_length()) return V::kPairLevel;
  const RootsEntry roots = own.roots()[j];
  if ((mine != nullptr) != (roots != RootsEntry::kStar)) {
    return V::kPairPresence;
  }
  if (mine == nullptr) return V::kNone;  // no fragment: nothing outgoing
  if (mine->level != j) return V::kPairPieceLevel;
  if (roots == RootsEntry::kOne && mine->root_id != own.self_id) {
    return V::kPairRootId;
  }

  const HalfEdge& he = g.half_edge(v, port);
  const bool same_fragment = theirs != nullptr &&
                             theirs->root_id == mine->root_id &&
                             theirs->level == mine->level;

  // Piece equality inside a fragment (Claim 8.3 transitivity): any
  // neighbour presenting the same fragment identifier must present the
  // exact same piece.
  if (same_fragment && !(*theirs == *mine)) return V::kPairCopies;

  // Structural cross-check along tree edges: the strings already encode
  // whether a tree neighbour shares the level-j fragment.
  const bool u_is_parent = port == own_parent_port;
  const bool u_is_child = their_parent_port == he.rev_port;
  const bool their_level = their.string_length() > j;
  if (u_is_parent) {
    if ((roots == RootsEntry::kZero) != same_fragment) return V::kPairParent;
  } else if (u_is_child) {
    const bool strings_say_same =
        their_level && their.roots()[j] == RootsEntry::kZero;
    if (strings_say_same != same_fragment) return V::kPairChild;
  }

  // C1: if this edge is the fragment's selected candidate, it must be
  // outgoing and its weight must equal the claimed minimum.
  const EndpEntry endp = own.endp()[j];
  const bool candidate =
      (endp == EndpEntry::kUp && u_is_parent) ||
      (endp == EndpEntry::kDown && u_is_child && their_level &&
       their.parents()[j] == 1);
  if (candidate) {
    if (same_fragment) return V::kC1NotOutgoing;
    if (mine->min_out_w != he.w) return V::kC1Weight;
  }

  // C2: every outgoing edge must weigh at least the claimed minimum.
  if (!same_fragment &&
      (mine->min_out_w == Piece::kNoOutgoing || mine->min_out_w > he.w)) {
    return V::kC2Lighter;
  }
  return V::kNone;
}

/// The KKP 1-round verifier ([54,55]): base checks plus instant pair
/// comparisons for every level against every neighbour, using the full
/// piece tables. Detection time 1, memory O(log^2 n). A failed pair
/// comparison reports the Kkp-prefixed twin of check_pair_event's code.
template <typename Reader>
SSMST_HOT_PATH LabelViolation verify_kkp_1round(const WeightedGraph& g,
                                                NodeId v, const KkpLabels& own,
                                                std::uint32_t own_parent_port,
                                                const Reader& nbr) {
  using V = LabelViolation;
  if (const V e = verify_labels_1round(g, v, own.base, own_parent_port, nbr);
      e != V::kNone) {
    return e;
  }
  const std::size_t len = own.base.string_length();
  if (own.pieces.size() != len) return V::kKkpTableLength;
  constexpr auto kKkpShift = static_cast<unsigned>(V::kKkpPairLevel) -
                             static_cast<unsigned>(V::kPairLevel);
  for (std::uint32_t p = 0; p < g.degree(v); ++p) {
    const KkpLabels& their = nbr.labels(p);
    if (their.pieces.size() != their.base.string_length()) {
      continue;  // the neighbour's own verifier flags this
    }
    const std::uint32_t their_parent_port = nbr.parent_port(p);
    for (std::uint32_t j = 0; j < len; ++j) {
      const auto& mine = own.pieces[j];
      const auto& theirs = their.pieces[j];  // sizes equal len after RS1
      if (const V e = check_pair_event(
              g, v, p, j, own.base, own_parent_port, their.base,
              their_parent_port, mine ? &*mine : nullptr,
              theirs ? &*theirs : nullptr);
          e != V::kNone) {
        return static_cast<V>(static_cast<unsigned>(e) + kKkpShift);
      }
    }
  }
  return V::kNone;
}

}  // namespace ssmst
