#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "graph/tree.hpp"
#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/contract.hpp"

namespace ssmst {

/// Public register of one SYNC_MST node. All fields are O(log n) bits
/// (state_bits() accounts for them semantically); phase indices are
/// O(log log n) and therefore free.
struct SyncMstState {
  // Forest structure: port to parent, kNoPort at fragment roots.
  std::uint32_t parent_port = kNoPort;

  // Estimates maintained by the waves. root_id always names a node inside
  // the owner's current fragment (the invariant behind the outgoing-edge
  // test of Find_Min_Out_Edge, Section 4.2).
  std::uint64_t root_id = 0;
  std::uint32_t level = 0;

  // Count_Size wave (TTL-bounded Wave&Echo).
  std::int32_t count_phase = -1;
  std::uint32_t count_ttl = 0;
  std::int32_t count_echo_phase = -1;
  std::uint32_t count_echo = 0;
  bool count_done = false;  ///< root: decision for this phase made
  bool active = false;      ///< root: fragment is active this phase

  // Find_Min_Out_Edge wave.
  std::int32_t find_phase = -1;

  // Own candidate (chosen at the selection round) and merged candidate
  // (after the "found" echo). Keys are (w, IDmin, IDmax).
  bool own_cand_exists = false;
  Weight own_cand_w = 0;
  std::uint64_t own_cand_idmin = 0, own_cand_idmax = 0;
  std::uint32_t own_cand_port = kNoPort;

  std::int32_t found_phase = -1;  ///< echo for this phase published
  bool cand_exists = false;
  bool cand_is_own = false;  ///< candidate is the node's own incident edge
  Weight cand_w = 0;
  std::uint64_t cand_idmin = 0, cand_idmax = 0;
  std::uint32_t cand_src_port = kNoPort;  ///< own edge port or child port

  // Root transfer ("change-root").
  std::int32_t transfer_phase = -1;

  // Termination.
  bool spans_root = false;
  bool done = false;

  friend bool operator==(const SyncMstState&, const SyncMstState&) = default;
};
SSMST_REGISTER_HEADER(SyncMstState);

/// Widths of the id and weight fields that SYNC_MST's and the GHS
/// baseline's state_bits count: bits of the largest node id and of the
/// heaviest edge weight.
struct ConstructionWidths {
  explicit ConstructionWidths(const WeightedGraph& g);
  std::size_t id_bits;
  std::size_t weight_bits;
};

/// Distributed SYNC_MST (Section 4): synchronous, O(n) rounds, O(log n)
/// bits per node. Not self-stabilizing — all nodes wake at round 0, as the
/// paper's model for the construction module permits.
class SyncMstProtocol final : public Protocol<SyncMstState> {
 public:
  explicit SyncMstProtocol(const WeightedGraph& g);

  void step(NodeId v, SyncMstState& self,
            const NeighborReader<SyncMstState>& nbr,
            std::uint64_t time) override;
  std::size_t state_bits(const SyncMstState& s, NodeId v) const override;

  /// Initial registers: every node a level-0 singleton root.
  std::vector<SyncMstState> initial_states() const;

  /// Trace of (phase, root node, fragment size) for each fragment that
  /// became active — compared against the reference twin by tests.
  /// Appends are mutex-guarded for parallel sync rounds; under a sharded
  /// schedule the order *within* one round is unspecified (serial runs
  /// keep the historical node-index order), and readers must not overlap
  /// a round in flight.
  const std::vector<std::tuple<int, NodeId, std::uint32_t>>& active_trace()
      const {
    return trace_;
  }

 private:
  struct PhaseView {
    int phase = -1;         // -1 before round 11
    std::uint64_t base = 0;  // 2^phase
    std::uint64_t offset = 0;  // round - 11*2^phase
  };
  static PhaseView phase_of(std::uint64_t round);

  const WeightedGraph* g_;
  const ConstructionWidths widths_;
  std::vector<std::tuple<int, NodeId, std::uint32_t>> trace_;
  std::mutex trace_mu_;  ///< guards trace_ during parallel rounds
};

/// Outcome of a full synchronous run.
struct SyncMstRun {
  std::unique_ptr<RootedTree> tree;
  SimulationStats sim;  ///< full engine accounting (activations, peak bits)
  std::vector<std::tuple<int, NodeId, std::uint32_t>> active_trace;
};

/// Runs SYNC_MST to termination on the synchronous scheduler.
/// Throws if the run exceeds the paper's O(n) schedule by more than a
/// constant factor (44n + 64 rounds).
SyncMstRun run_sync_mst(const WeightedGraph& g);

// ---- Stages shared by SYNC_MST and the GHS baseline ------------------------
// Both protocols are the GHS/Boruvka fragment pattern of Section 4.1. In
// each phase the fragment root starts a find wave; then every node picks
// its minimum outgoing edge, a "found" convergecast brings the fragment's
// minimum to the root, the root transfer reverses the parent pointers
// toward that edge, and the new temporary root hooks onto it. The two
// protocols differ in their schedule, in their find wave and in when a
// root may start the transfer (SYNC_MST's Count_Size activity rule); each
// `step` keeps those and calls the templates below for the rest. `State`
// is SyncMstState or GhsState; the stages touch only the fields the two
// share.

/// Calls fn(port, register) for every child of the stepping node: the
/// neighbours whose parent port points back at it.
template <typename State, typename Fn>
void for_each_child(const NeighborReader<State>& nbr, Fn&& fn) {
  for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
    const State& u = nbr.at_port(p);
    if (u.parent_port == nbr.link(p).rev_port) fn(p, u);
  }
}

/// Termination propagates down the final tree at all times. Returns true
/// once the node is done; a done node takes no further step.
template <typename State>
bool propagate_done(State& self, const NeighborReader<State>& nbr) {
  if (!self.done && self.parent_port != kNoPort &&
      nbr.at_port(self.parent_port).done) {
    self.done = true;
  }
  return self.done;
}

/// Phase i's stages after the find wave, at round offset `off` within the
/// phase. They start at offset `start` and each wave stage is `width`
/// rounds wide:
///  * selection at `start`: a node of the phase's fragment picks its
///    minimum edge to another fragment (a neighbour with another root_id),
///    keyed (w, IDmin, IDmax);
///  * the "found" convergecast in [start, start + 2 width): a node
///    publishes the minimum of its own candidate and its children's once
///    every child has published;
///  * the root transfer in [start + 2 width, start + 4 width): the root
///    runs `root_transfer()`, which terminates or starts the reversal;
///    any other node, once its parent points at it, points toward the
///    child that reported the candidate, and the candidate's own endpoint
///    becomes the temporary root;
///  * the merge handshake at start + 4 width: the temporary root hooks
///    onto its candidate edge unless the edge is mutual and its own id is
///    the larger one.
template <typename State, typename RootTransfer>
void run_merge_stages(const WeightedGraph& g, State& self,
                      const NeighborReader<State>& nbr, int i,
                      std::uint64_t off, std::uint64_t start,
                      std::uint64_t width, RootTransfer&& root_transfer) {
  using EdgeKey = std::tuple<Weight, std::uint64_t, std::uint64_t>;
  const std::uint64_t own_id = g.id(nbr.self());
  if (off == start && self.find_phase == i) {
    self.own_cand_exists = false;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      if (nbr.at_port(p).root_id == self.root_id) continue;  // same fragment
      const HalfEdge& he = nbr.link(p);
      const std::uint64_t other_id = g.id(he.to);
      const EdgeKey k{he.w, std::min(own_id, other_id),
                      std::max(own_id, other_id)};
      if (!self.own_cand_exists ||
          k < EdgeKey{self.own_cand_w, self.own_cand_idmin,
                      self.own_cand_idmax}) {
        self.own_cand_exists = true;
        std::tie(self.own_cand_w, self.own_cand_idmin, self.own_cand_idmax) =
            k;
        self.own_cand_port = p;
      }
    }
  }

  if (off >= start && off < start + 2 * width && self.find_phase == i &&
      self.found_phase < i) {
    bool ready = true;
    bool best_exists = self.own_cand_exists;
    EdgeKey best{self.own_cand_w, self.own_cand_idmin, self.own_cand_idmax};
    bool best_is_own = true;
    std::uint32_t best_port = self.own_cand_port;
    for_each_child(nbr, [&](std::uint32_t p, const State& u) {
      if (u.found_phase != i) {
        ready = false;
        return;
      }
      if (!u.cand_exists) return;
      const EdgeKey k{u.cand_w, u.cand_idmin, u.cand_idmax};
      if (!best_exists || k < best) {
        best_exists = true;
        best = k;
        best_is_own = false;
        best_port = p;
      }
    });
    if (ready) {
      self.cand_exists = best_exists;
      if (best_exists) {
        std::tie(self.cand_w, self.cand_idmin, self.cand_idmax) = best;
        self.cand_is_own = best_is_own;
        self.cand_src_port = best_port;
      }
      self.found_phase = i;
    }
  }

  if (off >= start + 2 * width && off < start + 4 * width &&
      self.find_phase == i && self.transfer_phase < i) {
    if (self.parent_port == kNoPort) {
      if (self.found_phase == i) root_transfer();
    } else {
      // Did my parent just reverse its pointer toward me?
      const State& p = nbr.at_port(self.parent_port);
      if (p.transfer_phase == i &&
          p.parent_port == nbr.link(self.parent_port).rev_port) {
        self.transfer_phase = i;
        self.parent_port = self.cand_is_own ? kNoPort : self.cand_src_port;
      }
    }
  }

  if (off == start + 4 * width && self.transfer_phase == i &&
      self.parent_port == kNoPort && self.cand_is_own && self.cand_exists) {
    const std::uint32_t p = self.cand_src_port;
    const State& x = nbr.at_port(p);
    const bool mutual = x.transfer_phase == i && x.parent_port == kNoPort &&
                        x.cand_is_own &&
                        x.cand_src_port == nbr.link(p).rev_port;
    const bool we_win = mutual && g.id(nbr.link(p).to) < own_id;
    if (!we_win) self.parent_port = p;
  }
}

/// Runs a tree construction to termination: steps until every register's
/// `done` flag is set, then rebuilds the tree from the registers' parent
/// ports (kNoPort at the root). Without a daemon it steps synchronous
/// rounds (SYNC_MST, the GHS baseline); with one it steps async units
/// under it (SYNC_MST under the two-slot synchronizer). A synchronized
/// register (selfstab/synchronizer.hpp) is read through its `.cur` slot.
/// Throws std::logic_error(overrun) once the clock passes max_time and
/// std::logic_error(two_roots) on a second root.
template <typename State>
RootedTree run_rounds_to_done(Simulation<State>& sim, std::uint64_t max_time,
                              const char* overrun, const char* two_roots,
                              Rng* daemon = nullptr) {
  const WeightedGraph& g = sim.graph();
  auto reg = [&sim](NodeId v) -> const auto& {
    if constexpr (requires(const State& s) { s.cur; }) {
      return sim.cstate(v).cur;
    } else {
      return sim.cstate(v);
    }
  };
  auto all_done = [&reg, &g] {
    for (NodeId v = 0; v < g.n(); ++v) {
      if (!reg(v).done) return false;
    }
    return true;
  };
  do {
    if (sim.time() > max_time) throw std::logic_error(overrun);
    if (daemon != nullptr) {
      sim.async_unit(*daemon);
    } else {
      sim.sync_round();
    }
  } while (!all_done());
  NodeId root = kNoNode;
  std::vector<NodeId> parent(g.n(), kNoNode);
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::uint32_t port = reg(v).parent_port;
    if (port != kNoPort) {
      parent[v] = g.half_edge(v, port).to;
    } else if (root != kNoNode) {
      throw std::logic_error(two_roots);
    } else {
      root = v;
    }
  }
  return RootedTree::from_parents(g, root, parent);
}

}  // namespace ssmst
