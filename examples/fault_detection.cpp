// Fault detection walkthrough (Sections 7-8): mark a correct instance,
// let the trains reach steady state, corrupt one node's piece of
// information, and watch the verifier localize the fault — fast (polylog
// rounds) and close (O(log n) hops).
//
//   $ ./examples/fault_detection

#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bits.hpp"

using namespace ssmst;

int main() {
  Rng rng(7);
  WeightedGraph g = gen::random_connected(256, 128, rng);
  std::printf("network: %s\n", g.summary().c_str());

  VerifierConfig cfg;  // synchronous window-scan mode
  VerifierHarness harness(g, cfg, /*daemon_seed=*/1);
  if (harness.run(128).has_value()) {
    std::puts("unexpected alarm on the correct instance!");
    return 1;
  }
  std::puts("verifier steady state reached; no alarms.\n");

  // Corrupt one load-bearing permanent piece: claim a different minimum-
  // outgoing-edge weight for some fragment. This invalidates the proof.
  auto tampered = harness.tamper_loadbearing_piece(9);
  if (!tampered) {
    std::puts("no load-bearing piece found (degenerate instance)");
    return 1;
  }
  const NodeId victim = *tampered;
  std::printf("corrupted a permanent piece stored at node %u\n", victim);

  auto res = harness.measure_detection({victim}, 1u << 22, /*slack=*/200);
  if (!res.detected) {
    std::puts("fault went undetected!");
    return 1;
  }
  std::printf("\ndetected after %llu rounds (n=256, (log n)^2=%zu)\n",
              static_cast<unsigned long long>(res.detection_time),
              (ceil_log2(256) + 1) * (ceil_log2(256) + 1));
  std::printf("alarming nodes: %zu, detection distance: %u hops "
              "(part diameter is O(log n))\n",
              res.alarming.size(), res.distance.value_or(0));
  for (const auto& ev : harness.protocol().alarm_trace()) {
    std::printf("  node %u: %s\n", ev.node, ev.detail);
    break;  // first alarm is enough for the demo
  }
  return 0;
}
