#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace ssmst {

/// Internal node index in [0, n). Distinct from the *identifier* ID(v),
/// which is an arbitrary unique O(log n)-bit value (see WeightedGraph::id).
using NodeId = std::uint32_t;

/// Edge weight. The paper assumes weights polynomial in n; distinct weights
/// are assumed (and checkable); omega_prime() handles the general case.
using Weight = std::uint64_t;

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Sentinel port number meaning "no parent" in components c(v).
inline constexpr std::uint32_t kNoPort =
    std::numeric_limits<std::uint32_t>::max();

/// Undirected weighted edge with canonical endpoint order (u < v).
struct Edge {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  Weight w = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// One directed half of an undirected edge, as seen from its owner node.
/// The position of a HalfEdge inside the owner's adjacency span is the
/// *port number* of that edge at the owner (Section 2.1 of the paper:
/// port numbers are local and independent between the two endpoints).
struct HalfEdge {
  NodeId to = kNoNode;         ///< the neighbour this port leads to
  Weight w = 0;                ///< weight of the undirected edge
  std::uint32_t rev_port = 0;  ///< port number of this edge at `to`
  std::uint32_t edge_index = 0;  ///< index into WeightedGraph::edges()
};

/// Connected undirected weighted graph with per-node port numbering and
/// unique node identifiers.
///
/// This is the static substrate every algorithm in the library runs on.
/// Adjacency is stored in compressed-sparse-row form: one flat array of
/// half-edges (`half_edges_`) indexed by an offsets array (`offsets_`),
/// so `neighbors(v)` is a contiguous span and a whole-graph sweep walks
/// memory linearly. Port numbers are positions inside a node's span and
/// follow the edge-list insertion order, exactly as with the old nested
/// layout.
///
/// Nodes are indexed 0..n-1 internally; algorithms that compare identities
/// must use id(v), which is an arbitrary unique value (by default a
/// pseudo-random permutation so that index order and ID order differ, as in
/// a real network).
class WeightedGraph {
 public:
  WeightedGraph() = default;

  /// Builds a graph from an edge list in two passes (degree count, then
  /// fill). Duplicate edges and self-loops are rejected via
  /// std::invalid_argument. Edge endpoints must be < n.
  static WeightedGraph from_edges(NodeId n, std::vector<Edge> edges);

  NodeId n() const {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  std::size_t m() const { return edges_.size(); }

  /// Contiguous adjacency span of v; index == port number.
  std::span<const HalfEdge> neighbors(NodeId v) const {
    return {half_edges_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  std::uint32_t max_degree() const { return max_degree_; }

  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(std::uint32_t edge_index) const {
    return edges_[edge_index];
  }

  /// The half-edge at port `port` of node `v`.
  const HalfEdge& half_edge(NodeId v, std::uint32_t port) const {
    return half_edges_[offsets_[v] + port];
  }

  /// Unique identifier of node v (an O(log n)-bit value).
  std::uint64_t id(NodeId v) const { return ids_[v]; }

  /// Node index holding identifier `id`, or kNoNode. O(log n) via a
  /// sorted (id, node) index.
  NodeId node_of_id(std::uint64_t id) const;

  /// Replaces node identifiers. Values must be unique; size must equal n.
  void set_ids(std::vector<std::uint64_t> ids);

  /// True if all edge weights are pairwise distinct.
  bool has_distinct_weights() const;

  /// True if the graph is connected (n == 0 counts as connected).
  bool is_connected() const;

  /// Port at `v` leading to `u`, or kNoPort if (v,u) is not an edge.
  /// Low-degree nodes use a linear scan over the contiguous span; hubs
  /// (degree > kHubDegree) use a per-node index sorted by neighbour, so
  /// the lookup is O(min(deg, kHubDegree) + log deg) worst case.
  std::uint32_t port_to(NodeId v, NodeId u) const;

  /// Hop distance matrix row: BFS distances from `src` (in edges).
  std::vector<std::uint32_t> bfs_distances(NodeId src) const;

  /// Hop diameter (max over BFS from every node). O(n*m); fine for tests.
  std::uint32_t hop_diameter() const;

  std::string summary() const;

  /// Degree above which port_to() switches from linear scan to the sorted
  /// per-hub index.
  static constexpr std::uint32_t kHubDegree = 8;

 private:
  void build_indices();

  // CSR adjacency: half_edges_[offsets_[v] .. offsets_[v+1]) are the ports
  // of v, in edge-list insertion order.
  std::vector<HalfEdge> half_edges_;
  std::vector<std::uint32_t> offsets_;
  std::vector<Edge> edges_;
  std::vector<std::uint64_t> ids_;

  // Hub acceleration for port_to(): for every node with degree > kHubDegree
  // a (neighbour, port) list sorted by neighbour, itself in CSR form.
  std::vector<std::uint32_t> hub_off_;
  std::vector<std::pair<NodeId, std::uint32_t>> hub_entries_;

  // Sorted (id, node) pairs for O(log n) node_of_id().
  std::vector<std::pair<std::uint64_t, NodeId>> id_index_;

  std::uint32_t max_degree_ = 0;
};

/// Composite weight implementing the omega-prime transformation of [53]
/// recalled in Section 2.1 (footnote 1): lexicographic order over
/// (w, 1 - Y, IDmin, IDmax) where Y indicates membership in the candidate
/// tree. Guarantees distinct weights and preserves "T is an MST" in both
/// directions for the *given* candidate subgraph T.
struct CompositeWeight {
  Weight w = 0;
  std::uint8_t one_minus_y = 0;  ///< 0 if the edge is in T, 1 otherwise
  std::uint64_t id_min = 0;
  std::uint64_t id_max = 0;

  friend auto operator<=>(const CompositeWeight&,
                          const CompositeWeight&) = default;
};

/// Computes omega-prime for every edge. `in_tree[e]` indicates whether
/// edge index e belongs to the candidate subgraph T.
std::vector<CompositeWeight> omega_prime(const WeightedGraph& g,
                                         const std::vector<bool>& in_tree);

}  // namespace ssmst
