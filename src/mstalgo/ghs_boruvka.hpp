#pragma once

#include <memory>
#include <vector>

#include "graph/tree.hpp"
#include "mstalgo/sync_mst.hpp"
#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/contract.hpp"

namespace ssmst {

/// Register of one node of the GHS-style baseline.
struct GhsState {
  std::uint32_t parent_port = kNoPort;
  std::uint64_t root_id = 0;

  std::int32_t find_phase = -1;
  bool own_cand_exists = false;
  Weight own_cand_w = 0;
  std::uint64_t own_cand_idmin = 0, own_cand_idmax = 0;
  std::uint32_t own_cand_port = 0;

  std::int32_t found_phase = -1;
  bool cand_exists = false;
  bool cand_is_own = false;
  Weight cand_w = 0;
  std::uint64_t cand_idmin = 0, cand_idmax = 0;
  std::uint32_t cand_src_port = 0;

  std::int32_t transfer_phase = -1;
  bool done = false;
};
SSMST_REGISTER_HEADER(GhsState);

/// GHS-style synchronous fragment algorithm (the classic Boruvka/GHS
/// pattern recalled in Section 4.1): every fragment — no activity rule —
/// finds its minimum outgoing edge with a full-fragment Wave&Echo and the
/// fragments merge, level by level. Because a wave over a fragment may
/// cross the whole graph, each level needs a Theta(n) window, giving the
/// O(n log n) total time the paper contrasts SYNC_MST's O(n) against.
/// Memory is O(log n) bits per node, like SYNC_MST. Selection, the
/// "found" echo, the root transfer and the hook are SYNC_MST's
/// (run_merge_stages in mstalgo/sync_mst.hpp); only the fixed n-wide
/// schedule and the find wave are the baseline's own.
class GhsBoruvkaProtocol final : public Protocol<GhsState> {
 public:
  explicit GhsBoruvkaProtocol(const WeightedGraph& g);

  void step(NodeId v, GhsState& self, const NeighborReader<GhsState>& nbr,
            std::uint64_t time) override;
  std::size_t state_bits(const GhsState& s, NodeId v) const override;

  std::vector<GhsState> initial_states() const;

 private:
  const WeightedGraph* g_;
  std::uint64_t window_;  // per-stage width: n
  const ConstructionWidths widths_;
};

struct GhsRun {
  std::unique_ptr<RootedTree> tree;
  SimulationStats sim;  ///< full engine accounting (activations, peak bits)
};

/// Runs the baseline to termination (throws beyond c * n log n rounds).
GhsRun run_ghs_boruvka(const WeightedGraph& g);

}  // namespace ssmst
