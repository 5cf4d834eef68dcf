#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hierarchy/fragment.hpp"

namespace ssmst {

/// The piece of information I(F) = ID(F) ∘ ω(F) of one fragment
/// (Section 6): the fragment identifier (root identity + level) and the
/// weight of the fragment's minimum outgoing edge. O(log n) bits.
struct Piece {
  std::uint64_t root_id = 0;
  std::uint32_t level = 0;
  /// Weight of the minimum outgoing edge; kNoOutgoing for the top fragment
  /// (which spans the graph and has no outgoing edge).
  Weight min_out_w = 0;

  static constexpr Weight kNoOutgoing = ~Weight{0};

  friend bool operator==(const Piece&, const Piece&) = default;

  /// Cyclic train order: strictly increasing (level, root_id).
  std::pair<std::uint32_t, std::uint64_t> key() const {
    return {level, root_id};
  }
};

/// The two partitions Top and Bottom of Section 6.1 with the per-part
/// ordered piece lists and the DFS-order permanent placement of Section 6.2.
struct Partitions {
  struct Part {
    NodeId root = kNoNode;          ///< topmost member in T
    std::vector<NodeId> nodes;      ///< members (subtree of T)
    std::vector<Piece> pieces;      ///< ordered by Piece::key(), ascending
  };

  std::uint32_t theta = 0;  ///< top threshold: fragments with >= theta nodes

  std::vector<std::uint8_t> frag_is_top;  ///< per fragment of the hierarchy
  std::vector<std::uint8_t> frag_is_red;
  std::vector<std::uint8_t> frag_is_blue;

  std::vector<Part> top_parts;
  std::vector<Part> bot_parts;
  std::vector<std::uint32_t> top_part_of;  ///< node -> index in top_parts
  std::vector<std::uint32_t> bot_part_of;  ///< node -> index in bot_parts

  /// Delimiter per node (Section 8): the smallest level of a *top* fragment
  /// containing the node. Levels below it belong to JBottom, levels at or
  /// above it to JTop.
  std::vector<std::uint32_t> delim;

  /// How many pieces each node stores permanently (the paper's packing
  /// constant is 2; larger values trade memory for shorter trains — the
  /// "improve detection at the expense of some memory" extension).
  std::uint32_t pack = 2;

  /// Permanent pieces of node v for its top part: the `pack` pieces
  /// starting at position pack * dfs_index(v) of the part's list, as a view
  /// into that list.
  std::span<const Piece> perm_top_pieces(NodeId v) const;
  std::span<const Piece> perm_bot_pieces(NodeId v) const;

  /// DFS index of v inside its part (0-based pre-order position).
  std::uint32_t top_dfs_index(NodeId v) const { return top_dfs_[v]; }
  std::uint32_t bot_dfs_index(NodeId v) const { return bot_dfs_[v]; }

  std::vector<std::uint32_t> top_dfs_;  // filled by build_partitions
  std::vector<std::uint32_t> bot_dfs_;
};

/// The top-fragment size threshold used throughout: Theta(log n).
std::uint32_t top_threshold(NodeId n);

/// Builds both partitions from the marker's hierarchy (Sections 6.1-6.2).
/// The construction mirrors the paper: red/blue colouring of fragments,
/// Procedure Merge producing P'', the split of P'' parts into subtrees of
/// size >= theta and diameter O(log n), and the Bottom partition made of
/// the maximal bottom fragments. Piece lists follow the cyclic key order.
/// `pack` >= 2 is the number of pieces stored per node.
Partitions build_partitions(const FragmentHierarchy& h,
                            std::uint32_t pack = 2);

/// Structural sanity used by tests: Lemma 6.4, Lemma 6.5, Claim 6.3, the
/// coverage property ("a node's two parts together store pieces for all
/// fragments containing it"). Returns an error string, empty if all hold.
std::string validate_partitions(const FragmentHierarchy& h,
                                const Partitions& p);

}  // namespace ssmst
