#pragma once

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

  /// Randomized type-valid corruption of the whole register: ports in
  /// [0, deg) or kNoPort, ids/weights/phases in their model ranges, flags
  /// random. SYNC_MST is not self-stabilizing, so stepping a corrupted
  /// instance is out of contract — this exists for the fault-campaign
  /// machinery's override-coverage pin and for transformer experiments.
  void corrupt(SyncMstState& s, NodeId v, Rng& rng) const override;

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
  std::vector<std::tuple<int, NodeId, std::uint32_t>> trace_;
  std::mutex trace_mu_;  ///< guards trace_ during parallel rounds
  std::size_t id_bits_;
  std::size_t weight_bits_;
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

/// Runs a synchronous tree construction to termination, for SYNC_MST and
/// the GHS baseline: steps rounds until every register's `done` flag is
/// set, then rebuilds the tree from the registers' parent ports (kNoPort
/// at the root). Throws std::logic_error(overrun) once the clock passes
/// max_rounds and std::logic_error(two_roots) on a second root.
template <typename State>
RootedTree run_rounds_to_done(Simulation<State>& sim,
                              std::uint64_t max_rounds, const char* overrun,
                              const char* two_roots) {
  const WeightedGraph& g = sim.graph();
  auto all_done = [&sim, &g] {
    for (NodeId v = 0; v < g.n(); ++v) {
      if (!sim.cstate(v).done) return false;
    }
    return true;
  };
  do {
    if (sim.time() > max_rounds) throw std::logic_error(overrun);
    sim.sync_round();
  } while (!all_done());
  NodeId root = kNoNode;
  std::vector<NodeId> parent(g.n(), kNoNode);
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::uint32_t port = sim.cstate(v).parent_port;
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
