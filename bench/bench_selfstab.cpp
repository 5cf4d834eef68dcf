// Experiment E7 (Section 10, Theorem 10.2): the self-stabilizing MST
// construction stabilizes from arbitrary states in O(n) time with
// O(log n) bits per node, in synchronous and asynchronous networks.
//
// Shape to check: total/n flat-ish; phase split dominated by build; bits
// within a constant multiple of log n.

#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssmst;

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {});
  std::puts("== E7: self-stabilization from arbitrary states ==");
  Table t({"n", "mode", "detect", "reset", "build", "mark", "total",
           "total/n", "bits/node", "bits/log n"});
  std::vector<double> ns, totals;
  Rng rng(11);
  for (NodeId n : {64u, 256u, 1024u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    for (bool synchronous : {true, false}) {
      if (!synchronous && n > 256) continue;  // keep the daemon runs small
      TransformerOptions opt;
      opt.checker = CheckerKind::kTrainVerifier;
      opt.synchronous = synchronous;
      opt.seed = 21;
      SelfStabilizingMst ss(g, opt);
      auto rep = ss.stabilize_from_arbitrary();
      const double logn = ceil_log2(n) + 1;
      t.add_row({Table::num(std::uint64_t{n}),
                 synchronous ? "sync" : "async", Table::num(rep.detect_time),
                 Table::num(rep.reset_time), Table::num(rep.build_time),
                 Table::num(rep.mark_time), Table::num(rep.total_time),
                 Table::num(double(rep.total_time) / n, 2),
                 Table::num(std::uint64_t{rep.max_state_bits}),
                 Table::num(rep.max_state_bits / logn, 1)});
      if (!rep.stabilized) std::puts("WARNING: did not stabilize!");
      if (synchronous) {
        ns.push_back(n);
        totals.push_back(double(rep.total_time));
      }
    }
  }
  t.print();
  std::printf("\nsync total time vs n, log-log slope: %.2f (O(n) -> ~1.0)\n",
              loglog_slope(ns, totals));
  return 0;
}
