#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "labels/arena.hpp"
#include "partition/partitions.hpp"

namespace ssmst {

/// Reference capacity of the per-level hierarchy strings under the *old*
/// fixed-capacity inline layout: live length is ell + 1 <= ceil(log2 n) + 2
/// (condition RS1), at most 34 for 32-bit node indices, and the inline
/// layout padded every node to this cap. The striped arena sizes stripes to
/// the live length instead; the constant remains as the padded-baseline
/// yardstick for the memory benches (bench_labels_memory's waste column).
inline constexpr std::uint32_t kLabelLevelCap = 36;

/// Reference capacity of the permanent-piece packs (same story: the old
/// inline layout padded both packs to this; the arena allocates exactly
/// `pack` slots per pack). The marker still clamps requests to this bound
/// so the ablation suite's pack axis keeps its historical range.
inline constexpr std::uint32_t kLabelPackCap = 8;

/// The complete marker output for one node: all proof labels of the
/// scheme, O(log n) bits in total. A register holding these labels is
/// corruptible by the adversary like any other state.
///
/// Storage is a striped-arena register file (labels/arena.hpp): the struct
/// itself is a small fixed header — the scalar fields plus (offset, length)
/// coordinates into a LabelArena whose per-field stripes hold the
/// variable-length payload at capacity == live length. The header is one
/// contiguous trivially-copyable block, so copying a label is still a flat
/// memcpy — but a copy *aliases* the same stripe slices (it is a view pair,
/// not a deep copy). All copies of one node's register inside one
/// simulation share that node's single payload, which is exactly the
/// double-buffered engine's semantics: the step functions never write the
/// label payload, and external corruption writes through to every buffered
/// copy at once (the next sync round re-seeds the back buffer from the
/// front one, headers included). Contexts that
/// need independent payloads — a second simulation, a mutated scratch copy
/// in a test — clone the content into their own arena via `clone_from`
/// (the engine does this at construction through
/// Protocol::adopt_register_file).
struct NodeLabels {
  // --- Example SP (spanning tree) + the identity remark -------------------
  std::uint64_t sp_root_id = 0;  ///< claimed identity of T's root
  std::uint32_t sp_dist = 0;     ///< claimed hop distance to T's root
  std::uint64_t self_id = 0;     ///< claimed own identity
  std::uint64_t parent_id = 0;   ///< claimed identity of the tree parent

  // --- Example NumK (number of nodes) --------------------------------------
  std::uint32_t n_claim = 0;       ///< claimed n, equal network-wide
  std::uint32_t subtree_count = 0;  ///< nodes in my T-subtree

  // --- Partitions (Section 6) ----------------------------------------------
  std::uint64_t top_part_root_id = 0;
  std::uint32_t top_part_depth = 0;   ///< hop distance to the part root
  std::uint32_t top_piece_count = 0;  ///< pieces circulating in my top part
  std::uint64_t bot_part_root_id = 0;
  std::uint32_t bot_part_depth = 0;
  std::uint32_t bot_piece_count = 0;
  std::uint32_t delim = 0;  ///< J(v) split: levels >= delim are top
  /// Pieces stored per node (the paper's packing constant, 2 by default;
  /// larger trades memory for shorter trains — the Section 1.3 extension).
  std::uint32_t pack = 2;

  // --- Striped-arena header (see labels/arena.hpp) -------------------------
  // The four hierarchy strings (Sections 5.2-5.3, all of length ell+1)
  // share one (offset, length) pair — they are interleaved per level in
  // the arena's LevelEntry stripe, so a node's whole level payload is one
  // contiguous region — and the two permanent packs live at
  // [perm_off, perm_off + perm_cap) and [perm_off + perm_cap,
  // perm_off + 2*perm_cap). Offsets are element indices into the arena's
  // stripes, not pointers, so label installation may grow the stripes
  // without invalidating earlier headers.
  LabelArena* arena = nullptr;  ///< not owned; see the ownership note above
  std::uint32_t lvl_off = 0;    ///< shared offset of the four level stripes
  std::uint32_t perm_off = 0;   ///< offset of the top pack (bot follows)
  std::uint16_t lvl_len = 0;    ///< live string length ell + 1
  std::uint16_t lvl_cap = 0;    ///< allocated level slots (== install length)
  std::uint8_t top_n = 0;       ///< live permanent pieces, top pack
  std::uint8_t bot_n = 0;       ///< live permanent pieces, bottom pack
  std::uint8_t perm_cap = 0;    ///< allocated slots per pack (== pack)

  std::size_t string_length() const { return lvl_len; }

  // --- Field views ---------------------------------------------------------
  // Cheap borrowed views (two loads each); hot loops should hoist them.
  // The level fields stride over the interleaved LevelEntry stripe.
  StripeSpan<RootsEntry, sizeof(LevelEntry)> roots() {
    return {arena ? arena->roots(lvl_off) : nullptr, lvl_len};
  }
  StripeSpan<const RootsEntry, sizeof(LevelEntry)> roots() const {
    return {arena ? arena->roots(lvl_off) : nullptr, lvl_len};
  }
  StripeSpan<EndpEntry, sizeof(LevelEntry)> endp() {
    return {arena ? arena->endp(lvl_off) : nullptr, lvl_len};
  }
  StripeSpan<const EndpEntry, sizeof(LevelEntry)> endp() const {
    return {arena ? arena->endp(lvl_off) : nullptr, lvl_len};
  }
  StripeSpan<std::uint8_t, sizeof(LevelEntry)> parents() {  ///< 0/1 per level
    return {arena ? arena->parents(lvl_off) : nullptr, lvl_len};
  }
  StripeSpan<const std::uint8_t, sizeof(LevelEntry)> parents() const {
    return {arena ? arena->parents(lvl_off) : nullptr, lvl_len};
  }
  /// EPS1 counting sub-scheme (the Or-EndP aggregation of Table 2): number
  /// of candidate-endpoint nodes in my fragment-subtree per level, capped
  /// at 2 ("more than one" is already a violation).
  StripeSpan<std::uint8_t, sizeof(LevelEntry)> endp_cnt() {
    return {arena ? arena->endp_cnt(lvl_off) : nullptr, lvl_len};
  }
  StripeSpan<const std::uint8_t, sizeof(LevelEntry)> endp_cnt() const {
    return {arena ? arena->endp_cnt(lvl_off) : nullptr, lvl_len};
  }
  /// Permanent train pieces (Section 6.2, pair Pc(dfs index)), at most
  /// `pack` per partition.
  StripeSpan<Piece> top_perm() {
    return {arena ? arena->perm(perm_off) : nullptr, top_n};
  }
  StripeSpan<const Piece> top_perm() const {
    return {arena ? arena->perm(perm_off) : nullptr, top_n};
  }
  StripeSpan<Piece> bot_perm() {
    return {arena ? arena->perm(perm_off + perm_cap) : nullptr, bot_n};
  }
  StripeSpan<const Piece> bot_perm() const {
    return {arena ? arena->perm(perm_off + perm_cap) : nullptr, bot_n};
  }

  // --- Installation (single-threaded; see the arena's contract) ------------

  /// Binds this label to `a` and allocates `len` value-initialized level
  /// slots (value-init == the kStar/0 defaults the marker starts from) plus
  /// `pack_slots` piece slots per pack. Any previous binding is abandoned,
  /// not freed — arenas recycle wholesale via reset().
  void alloc(LabelArena& a, std::uint32_t len, std::uint32_t pack_slots) {
    arena = &a;
    lvl_off = a.alloc_levels(len);
    lvl_len = lvl_cap = static_cast<std::uint16_t>(len);
    perm_off = a.alloc_pieces(pack_slots);
    perm_cap = static_cast<std::uint8_t>(pack_slots);
    top_n = bot_n = 0;
  }

  /// Live-length override within the allocated capacity (corruption and
  /// tests; the marker installs at full capacity). Clamped — a corrupted
  /// length claim can never address past the allocation.
  void set_string_length(std::uint32_t len) {
    lvl_len = static_cast<std::uint16_t>(len < lvl_cap ? len : lvl_cap);
  }

  void set_top_perm(const Piece* p, std::size_t n) {
    if (n > perm_cap) n = perm_cap;
    if (n > 0) std::memcpy(arena->perm(perm_off), p, n * sizeof(Piece));
    top_n = static_cast<std::uint8_t>(n);
  }
  void set_bot_perm(const Piece* p, std::size_t n) {
    if (n > perm_cap) n = perm_cap;
    if (n > 0) {
      std::memcpy(arena->perm(perm_off + perm_cap), p, n * sizeof(Piece));
    }
    bot_n = static_cast<std::uint8_t>(n);
  }

  /// Deep copy: allocates fresh slices in `a` and copies src's scalar
  /// fields and live stripe content into them. The independent-payload
  /// hook — per-simulation register files are built with this. `src` is
  /// taken by value (a header copy) so rebinding a label onto a new arena
  /// in place — l.clone_from(l, arena) — is safe.
  void clone_from(const NodeLabels src, LabelArena& a) {
    *this = src;  // scalars (the header part is overwritten below)
    alloc(a, src.lvl_cap, src.perm_cap);
    lvl_len = src.lvl_len;
    if (src.arena != nullptr && src.lvl_cap > 0) {
      std::memcpy(a.levels(lvl_off), src.arena->levels(src.lvl_off),
                  std::size_t{src.lvl_cap} * sizeof(LevelEntry));
    }
    if (src.arena != nullptr && src.perm_cap > 0) {
      std::memcpy(a.perm(perm_off), src.arena->perm(src.perm_off),
                  2 * std::size_t{src.perm_cap} * sizeof(Piece));
    }
    top_n = src.top_n;
    bot_n = src.bot_n;
  }

  /// Live out-of-header payload in bytes: what this label occupies in its
  /// arena's stripes (the physical-footprint accounting the benches and
  /// SimulationStats::peak_register_bytes report).
  std::size_t live_stripe_bytes() const {
    return std::size_t{lvl_cap} * sizeof(LevelEntry) +
           2 * std::size_t{perm_cap} * sizeof(Piece);
  }

  /// Content equality: scalars plus the live stripe slices, never the
  /// arena coordinates — labels in different arenas compare equal iff they
  /// carry the same information (the schedule-equivalence tests compare
  /// registers of independently evolving simulations this way).
  friend bool operator==(const NodeLabels& a, const NodeLabels& b) {
    return a.sp_root_id == b.sp_root_id && a.sp_dist == b.sp_dist &&
           a.self_id == b.self_id && a.parent_id == b.parent_id &&
           a.n_claim == b.n_claim && a.subtree_count == b.subtree_count &&
           a.top_part_root_id == b.top_part_root_id &&
           a.top_part_depth == b.top_part_depth &&
           a.top_piece_count == b.top_piece_count &&
           a.bot_part_root_id == b.bot_part_root_id &&
           a.bot_part_depth == b.bot_part_depth &&
           a.bot_piece_count == b.bot_piece_count && a.delim == b.delim &&
           a.pack == b.pack && a.roots() == b.roots() &&
           a.endp() == b.endp() && a.parents() == b.parents() &&
           a.endp_cnt() == b.endp_cnt() && a.top_perm() == b.top_perm() &&
           a.bot_perm() == b.bot_perm();
  }
};

// The register contract (sim/protocol.hpp): a label header is a single
// trivially-copyable span of memory, so register files built from it copy
// by memcpy (aliasing the stripe payload) and never touch the allocator in
// steady state.
static_assert(std::is_trivially_copyable_v<NodeLabels>);

/// The shared Protocol::adopt_register_file recipe for registers that
/// embed one NodeLabels: acquires a pooled arena, pre-sizes it from the
/// first register's label allocation (all labels of one install share it),
/// and rebinds every register's label onto a private clone. `labels_of`
/// maps a register to its NodeLabels&.
template <typename State, typename LabelsOf>
std::shared_ptr<LabelArena> adopt_labels_into_pooled_arena(
    std::vector<State>& regs, LabelsOf&& labels_of) {
  auto arena = LabelArenaPool::instance().acquire();
  if (!regs.empty()) {
    const NodeLabels& first = labels_of(regs.front());
    arena->reserve(regs.size(), first.lvl_cap, first.perm_cap);
  }
  for (State& s : regs) {
    NodeLabels& l = labels_of(s);
    l.clone_from(l, *arena);
  }
  return arena;
}

/// The natural field widths label_bits costs with. They depend only on n
/// and the heaviest edge weight, so per-activation callers compute them
/// once.
struct LabelWidths {
  explicit LabelWidths(const WeightedGraph& g);
  std::size_t id_bits;     ///< a node identity
  std::size_t n_bits;      ///< a node count
  std::size_t lvl_bits;    ///< a level index
  std::size_t piece_bits;  ///< a piece: identity, level and weight
};

/// Semantic bit size of a label (ids, counters and pieces costed at their
/// natural widths given n and the maximum weight). Costs the *live*
/// content only — invariant across storage layouts (pinned by
/// test_labels BitSizePins).
std::size_t label_bits(const NodeLabels& l, const LabelWidths& w);

/// Labels of the KKP O(log^2 n)-bit 1-round scheme ([54,55], recalled in
/// Section 3.1): the base labels plus the *full* table of pieces I(F_j(v))
/// for every level — the memory the present paper's scheme avoids. The
/// piece table deliberately stays heap-backed: it is the memory-heavy
/// baseline being compared against, not a hot-path register.
struct KkpLabels {
  NodeLabels base;
  std::vector<std::optional<Piece>> pieces;  ///< indexed by level
};

std::size_t kkp_label_bits(const KkpLabels& l, const LabelWidths& w);

}  // namespace ssmst
