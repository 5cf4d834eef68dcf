#include "mstalgo/ghs_boruvka.hpp"

#include "util/bits.hpp"

namespace ssmst {

GhsBoruvkaProtocol::GhsBoruvkaProtocol(const WeightedGraph& g)
    : g_(&g), window_(std::max<std::uint64_t>(g.n(), 1)), widths_(g) {}

std::vector<GhsState> GhsBoruvkaProtocol::initial_states() const {
  std::vector<GhsState> init(g_->n());
  for (NodeId v = 0; v < g_->n(); ++v) init[v].root_id = g_->id(v);
  return init;
}

void GhsBoruvkaProtocol::step(NodeId v, GhsState& self,
                              const NeighborReader<GhsState>& nbr,
                              std::uint64_t time) {
  if (propagate_done(self, nbr)) return;

  // Level i occupies rounds [7*window*i, 7*window*(i+1)):
  //   find wave [0,2w), selection at 2w, echo [2w,4w), transfer [4w,6w),
  //   hook at 6w.
  const std::uint64_t w = window_;
  const int i = static_cast<int>(time / (7 * w));
  const std::uint64_t off = time % (7 * w);

  if (off < 2 * w && self.find_phase < i) {
    if (self.parent_port == kNoPort) {
      self.find_phase = i;
      self.root_id = g_->id(v);
    } else if (nbr.at_port(self.parent_port).find_phase == i) {
      self.find_phase = i;
      self.root_id = nbr.at_port(self.parent_port).root_id;
    }
  }

  // Every fragment's root starts the transfer; one without an outgoing
  // edge spans the graph and terminates.
  run_merge_stages(*g_, self, nbr, i, off, 2 * w, w, [&] {
    if (!self.cand_exists) {
      self.done = true;
      return;
    }
    self.transfer_phase = i;
    if (!self.cand_is_own) self.parent_port = self.cand_src_port;
  });
}

std::size_t GhsBoruvkaProtocol::state_bits(const GhsState& s, NodeId v) const {
  const std::size_t port_bits = bits_for_values(g_->degree(v) + 2);
  const std::size_t phase_bits =
      bits_for_counter(ceil_log2(g_->n() + 1) + 2);
  const std::size_t key_bits = widths_.weight_bits + 2 * widths_.id_bits;
  std::size_t bits = 0;
  bits += port_bits + widths_.id_bits;
  bits += phase_bits;                                  // find_phase
  bits += 1 + key_bits + port_bits;                    // own cand
  bits += phase_bits + 2 + key_bits + port_bits;
  bits += phase_bits + 1;  // transfer, done
  (void)s;
  return bits;
}

GhsRun run_ghs_boruvka(const WeightedGraph& g) {
  GhsBoruvkaProtocol proto(g);
  Simulation<GhsState> sim(g, proto, proto.initial_states());
  const std::uint64_t max_rounds =
      7ULL * std::max<std::uint64_t>(g.n(), 1) *
          (static_cast<std::uint64_t>(ceil_log2(g.n() + 1)) + 2) +
      64;
  GhsRun run;
  run.tree = std::make_unique<RootedTree>(run_rounds_to_done(
      sim, max_rounds, "GHS baseline exceeded its schedule",
      "GHS baseline finished with two roots"));
  run.sim = sim.stats();
  return run;
}

}  // namespace ssmst
