// Ablation (the Section 1.3 extension the paper sketches: "we also show
// how to improve these two properties, at the expense of some increase in
// the memory"): the packing constant — how many pieces each node stores
// permanently. pack=2 is the paper's scheme; larger packs shorten the
// trains and hence the detection time, for proportionally more memory.
//
// Shape to check: detection time decreases as pack grows, memory grows.

#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"

using namespace ssmst;

int main() {
  std::puts("== ablation: pieces-per-node packing (memory <-> time) ==");
  const NodeId n = 256;
  Rng rng(17);
  auto g = gen::random_connected(n, n / 2, rng);
  Table t({"pack", "max label bits", "detect rounds (median of 3)"});
  for (std::uint32_t pack : {2u, 4u, 8u}) {
    std::vector<double> samples;
    std::size_t bits = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      VerifierConfig cfg;
      cfg.pack = pack;
      VerifierHarness h(g, cfg, seed);
      const LabelWidths widths(g);
      for (NodeId v = 0; v < g.n(); ++v) {
        bits = std::max(bits, label_bits(h.marker().labels[v], widths));
      }
      if (h.run(64).has_value()) continue;
      auto victim = h.tamper_loadbearing_piece(seed * 13);
      if (!victim) continue;
      auto res = h.measure_detection({*victim}, 1u << 22);
      if (res.detected) samples.push_back(double(res.detection_time));
    }
    std::sort(samples.begin(), samples.end());
    const double med = samples.empty() ? 0 : samples[samples.size() / 2];
    t.add_row({Table::num(std::uint64_t{pack}),
               Table::num(std::uint64_t{bits}), Table::num(med, 0)});
  }
  t.print();
  std::puts("\npack=2 is the paper's scheme; larger packs buy detection");
  std::puts("time with memory, as the paper's extension remark predicts.");
  return 0;
}
