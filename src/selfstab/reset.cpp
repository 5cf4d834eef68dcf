#include "selfstab/reset.hpp"

#include <stdexcept>

namespace ssmst {

std::uint64_t run_reset(const WeightedGraph& g,
                        const std::vector<NodeId>& seeds, bool sync_mode,
                        Rng& daemon, DaemonOrder order) {
  ResetProtocol proto(g);
  std::vector<ResetState> init(g.n());
  for (NodeId s : seeds) {
    init[s].in_reset = true;
    init[s].seeded = true;
  }
  Simulation<ResetState> sim(g, proto, init);
  const std::uint64_t bound = 4ULL * g.n() + 16;
  for (;;) {
    bool all_settled = true;
    for (NodeId v = 0; v < g.n(); ++v) {
      // cstate: a read-only probe must not re-enable queue entries.
      if (!sim.cstate(v).settled) {
        all_settled = false;
        break;
      }
    }
    if (all_settled) return sim.time();
    if (sim.time() > bound) {
      throw std::logic_error("reset wave failed to settle");
    }
    if (sync_mode) {
      sim.sync_round();
    } else {
      sim.async_unit(daemon, order);
    }
  }
}

}  // namespace ssmst
