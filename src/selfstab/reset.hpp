#pragma once

#include <cstdint>
#include <vector>

#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/contract.hpp"

namespace ssmst {

/// State of the reset wave (the [13]-style reset the Resynchronizer relies
/// on, Section 10): alarming nodes seed a flood that erases downstream
/// protocol state; nodes acknowledge once their whole neighbourhood has
/// joined, so completion is detectable.
struct ResetState {
  bool in_reset = false;
  bool seeded = false;   ///< this node raised the alarm that caused it
  bool settled = false;  ///< this node and all its neighbours are in reset
};
SSMST_REGISTER_HEADER(ResetState);

class ResetProtocol final : public Protocol<ResetState> {
 public:
  explicit ResetProtocol(const WeightedGraph& g) : g_(&g) {}

  SSMST_HOT_PATH void step(NodeId v, ResetState& self,
                           const NeighborReader<ResetState>& nbr,
                           std::uint64_t) override {
    (void)v;
    if (!self.in_reset) {
      for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
        if (nbr.at_port(p).in_reset) {
          self.in_reset = true;
          break;
        }
      }
    }
    if (self.in_reset && !self.settled) {
      bool all = true;
      for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
        if (!nbr.at_port(p).in_reset) all = false;
      }
      self.settled = all;
    }
  }

  std::size_t state_bits(const ResetState&, NodeId) const override {
    return 3;
  }

  /// Randomized type-valid corruption: any of the 8 flag combinations,
  /// including inconsistent ones (settled without in_reset) the wave must
  /// recover from.
  void corrupt(ResetState& s, NodeId, Rng& rng) const override {
    s.in_reset = rng.chance(0.5);
    s.seeded = rng.chance(0.5);
    s.settled = rng.chance(0.5);
  }

 private:
  const WeightedGraph* g_;
};

/// Floods a reset from the given seed nodes and returns the number of time
/// units until every node settled. Synchronous: lock-step rounds;
/// asynchronous: the activation-queue daemon (weakly fair) under `order`.
/// The wave quiesces in the queue once settled — nodes outside the
/// frontier cost nothing per unit.
std::uint64_t run_reset(const WeightedGraph& g,
                        const std::vector<NodeId>& seeds, bool sync_mode,
                        Rng& daemon, DaemonOrder order = DaemonOrder::kRandom);

}  // namespace ssmst
