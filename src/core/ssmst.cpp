#include "core/ssmst.hpp"

namespace ssmst {

InstanceReport analyze_instance(const WeightedGraph& g,
                                std::uint64_t probe_units) {
  InstanceReport rep;
  rep.n = g.n();
  rep.m = g.m();

  auto run = run_sync_mst(g);
  rep.mst_weight = run.tree->total_weight();
  rep.construction_rounds = run.sim.rounds;
  rep.construction_activations = run.sim.activations;
  rep.construction_bits = run.sim.peak_bits;

  VerifierConfig cfg;
  VerifierHarness harness(g, cfg, /*daemon_seed=*/1);
  const MarkerOutput& m = harness.marker();
  rep.hierarchy_height = m.hierarchy->height();
  rep.fragment_count = m.hierarchy->fragment_count();
  rep.top_parts = m.partitions.top_parts.size();
  rep.bottom_parts = m.partitions.bot_parts.size();

  const LabelWidths widths(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    rep.max_label_bits =
        std::max(rep.max_label_bits, label_bits(m.labels[v], widths));
  }
  rep.verifier_quiet = !harness.run(probe_units).has_value();
  return rep;
}

}  // namespace ssmst
