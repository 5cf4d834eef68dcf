// Experiment E1 (Section 4, Theorem 4.4): SYNC_MST runs in O(n) rounds
// with O(log n) bits per node, versus the GHS-style baseline's
// Theta(n log n) rounds. Also charges the distributed marker's O(n)
// schedule (Corollary 6.11).
//
// Shape to check: rounds/n flat for SYNC_MST, growing ~log n for GHS;
// bits/log n flat for both; log-log slope ~1 for SYNC_MST.

#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssmst;

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {});
  std::puts("== E1: construction time and memory (SYNC_MST vs GHS-style) ==");
  Table t({"n", "sync_mst rounds", "rounds/n", "ghs rounds", "ghs/(n log n)",
           "sync bits", "bits/log n", "activations", "marker rounds"});
  std::vector<double> ns, sync_rounds;
  Rng rng(42);
  for (NodeId n : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
    auto g = gen::random_connected(n, n, rng);
    auto fast = run_sync_mst(g);
    auto ghs = run_ghs_boruvka(g);
    auto m = make_labels(g);
    const double logn = ceil_log2(n) + 1;
    t.add_row({Table::num(std::uint64_t{n}), Table::num(fast.sim.rounds),
               Table::num(static_cast<double>(fast.sim.rounds) / n, 2),
               Table::num(ghs.sim.rounds),
               Table::num(static_cast<double>(ghs.sim.rounds) / (n * logn), 2),
               Table::num(std::uint64_t{fast.sim.peak_bits}),
               Table::num(static_cast<double>(fast.sim.peak_bits) / logn, 2),
               Table::num(fast.sim.activations),
               Table::num(m.schedule_rounds)});
    ns.push_back(n);
    sync_rounds.push_back(static_cast<double>(fast.sim.rounds));
  }
  t.print();
  std::printf("\nSYNC_MST rounds vs n, log-log slope: %.2f (O(n) -> ~1.0)\n",
              loglog_slope(ns, sync_rounds));
  return 0;
}
