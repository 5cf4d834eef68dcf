// Asynchronous operation (Sections 2.2, 7.2.2): the same verifier under a
// weakly fair daemon, using the Want/handshake comparison mechanism, and
// SYNC_MST executed through the two-slot alpha-synchronizer.
//
//   $ ./examples/async_network

#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bits.hpp"

using namespace ssmst;

int main() {
  Rng rng(3);
  WeightedGraph g = gen::random_bounded_degree(128, 4, 32, rng);
  std::printf("network: %s (asynchronous daemon)\n\n", g.summary().c_str());

  // 1. Construct the MST asynchronously: SYNC_MST under the synchronizer.
  SyncMstProtocol inner(g);
  Synchronizer<SyncMstState> wrapper(g, inner);
  Simulation<SynchronizedState<SyncMstState>> sim(
      g, wrapper, synchronized_initial_states(inner.initial_states()));
  Rng daemon(11);
  while (true) {
    bool done = true;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (!sim.cstate(v).cur.done) {
        done = false;
        break;
      }
    }
    if (done) break;
    sim.async_unit(daemon);
  }
  std::printf("asynchronous construction finished in %llu time units\n",
              static_cast<unsigned long long>(sim.time()));
  // The event-driven daemon activates only enabled nodes; effective_steps
  // counts the activations that actually changed a register. The gap is
  // the daemon work the activation queue saved vs. n * units.
  std::printf(
      "daemon activations: %llu (%llu effective) vs %llu under a full "
      "sweep\n",
      static_cast<unsigned long long>(sim.stats().activations),
      static_cast<unsigned long long>(sim.stats().effective_steps),
      static_cast<unsigned long long>(sim.stats().units * g.n()));

  std::vector<bool> in_tree(g.m(), false);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& s = sim.cstate(v).cur;
    if (s.parent_port != kNoPort) {
      in_tree[g.half_edge(v, s.parent_port).edge_index] = true;
    }
  }
  std::printf("result is an MST: %s\n\n",
              is_mst(g, in_tree) ? "yes" : "NO");

  // 2. Verify asynchronously with the handshake mechanism.
  VerifierConfig cfg;
  cfg.sync_mode = false;
  VerifierHarness harness(g, cfg, 13);
  if (harness.run(256).has_value()) {
    std::puts("unexpected alarm on the correct instance!");
    return 1;
  }
  std::puts("async verifier steady state reached; no alarms.");

  // 3. Fault: detection still works under the daemon.
  auto tampered = harness.tamper_loadbearing_piece(21);
  if (!tampered) {
    std::puts("no load-bearing piece found (degenerate instance)");
    return 1;
  }
  const NodeId victim = *tampered;
  auto res = harness.measure_detection({victim}, 1u << 23, 100);
  const std::uint32_t l = ceil_log2(g.n()) + 1;
  std::printf("fault at node %u detected: %s, after %llu units "
              "(Delta*(log n)^3 = %u)\n",
              victim, res.detected ? "yes" : "NO",
              static_cast<unsigned long long>(res.detection_time),
              g.max_degree() * l * l * l);
  return res.detected ? 0 : 1;
}
