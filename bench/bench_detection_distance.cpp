// Experiment E4 (Theorem 8.5): detection distance O(f log n) — with f
// faults, each fault has an alarming node within O(f log n) hops (in
// practice within its own part, i.e. O(log n) for well-separated faults).
//
// Shape to check: distance grows at most ~linearly in f and stays within
// the c*f*log n envelope.

#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"

using namespace ssmst;

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {});
  std::puts("== E4: detection distance vs number of faults f ==");
  const NodeId n = 512;
  Rng grng(31);
  auto g = gen::random_bounded_degree(n, 4, 64, grng);
  const double logn = ceil_log2(n) + 1;
  Table t({"f", "max distance (worst of 5)", "f*log n", "ratio"});
  for (std::size_t f : {1u, 2u, 4u, 8u}) {
    std::uint32_t worst = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      VerifierConfig cfg;
      VerifierHarness h(g, cfg, seed);
      if (h.run(64).has_value()) continue;
      // Tamper f load-bearing pieces at spread-out salts.
      std::vector<NodeId> victims;
      for (std::size_t k = 0; k < f; ++k) {
        if (auto v = h.tamper_loadbearing_piece(seed * 131 + k * 977)) {
          victims.push_back(*v);
        }
      }
      if (victims.empty()) continue;
      // Collect alarms for a while beyond the first to measure distance.
      auto res = h.measure_detection(victims, 1u << 22,
                                     /*slack=*/4 * (ceil_log2(n) + 2) *
                                         (ceil_log2(n) + 2));
      if (res.detected && res.distance) {
        worst = std::max(worst, *res.distance);
      }
    }
    t.add_row({Table::num(std::uint64_t{f}), Table::num(std::uint64_t{worst}),
               Table::num(f * logn, 0),
               Table::num(worst / (f * logn), 2)});
  }
  t.print();
  return 0;
}
