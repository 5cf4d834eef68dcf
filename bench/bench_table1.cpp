// Reproduces Table 1: "Comparing self-stabilizing MST construction
// algorithms" — space and time of the self-stabilizing MST construction,
// for the three checker regimes the table spans (the paper's Section 10
// plugs each checker into the same Resynchronizer):
//   * recompute   — optimal space, slow detection   ([48]/[18] regime)
//   * kkp-labels  — Theta(log^2 n) space, 1-round detection ([17] regime)
//   * this-paper  — optimal space AND O(n) time AND polylog detection.
//
// Parallel layout: the three checker rows per n are independent sims and
// fan out over a BatchRunner; the leftover lanes are handed to each row as
// its sharded-sync-round width (TransformerOptions::threads and
// VerifierConfig::threads), which is bit-identical to serial — the
// printed numbers do not depend on the thread count (argv[1], default:
// hardware).
//
// Shape to check against the paper: all three stabilize in O(n)-ish time
// under our transformer, but only this paper's row combines O(log n)
// bits/node with polylog fault-detection time.

#include <cstdio>
#include <cstdlib>

#include "core/ssmst.hpp"
#include "sim/batch.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"

using namespace ssmst;

namespace {

std::uint64_t measured_detection(const WeightedGraph& g, CheckerKind kind,
                                 std::uint64_t seed, unsigned threads) {
  switch (kind) {
    case CheckerKind::kTrainVerifier: {
      VerifierConfig cfg;
      cfg.threads = threads;
      VerifierHarness h(g, cfg, seed);
      if (h.run(64).has_value()) return 0;
      auto victim = h.tamper_loadbearing_piece(seed);
      if (!victim) return 0;
      auto res = h.measure_detection({*victim}, 1u << 22);
      return res.detected ? res.detection_time : 0;
    }
    case CheckerKind::kKkpVerifier:
      return 1;  // by construction: every check is a 1-round check
    case CheckerKind::kRecompute:
      return run_sync_mst(g).sim.rounds;  // detection = one recomputation
  }
  return 0;
}

struct Row {
  CheckerKind kind = CheckerKind::kRecompute;
  StabilizationReport rep;
  std::uint64_t detect = 0;
};

}  // namespace

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {"--max-n", "--json"});
  const unsigned threads = threads_from_argv(argc, argv);
  // 2^26 ceiling: the scale loop below would otherwise wrap NodeId.
  const std::uint64_t max_n = std::min<std::uint64_t>(
      arg_u64(argc, argv, "--max-n", 1u << 20), 1u << 26);
  const std::string json_path = arg_value(argc, argv, "--json");
  BenchJson json;
  std::puts("== Table 1: self-stabilizing MST construction comparison ==");
  std::printf("batch threads: %u\n", threads);
  std::puts("paper rows (theory): [48],[18]: O(log n) bits, Omega(|E|n) time;");
  std::puts("                     [17]: O(log^2 n) bits, O(n^2) time;");
  std::puts("             this paper: O(log n) bits, O(n) time.\n");

  constexpr CheckerKind kKinds[] = {CheckerKind::kRecompute,
                                    CheckerKind::kKkpVerifier,
                                    CheckerKind::kTrainVerifier};
  BatchRunner runner(threads);
  // Each of the 3 concurrent rows shards its own sync rounds across the
  // lanes the batch axis leaves over.
  const unsigned inner_threads = std::max(1u, threads / 3);

  // At laptop-scale n the train verifier's detection constant (~80 log^2 n)
  // is large; the shape is what matters: recompute detection grows ~n while
  // ours grows ~log^2 n — the crossover is visible by n = 1024.
  for (NodeId n : {64u, 256u, 1024u}) {
    Rng rng(7);
    auto g = gen::random_connected(n, n, rng);
    Table t({"algorithm", "space bits/node", "bits/log n",
             "stabilize time", "time/n", "detect time (1 fault)",
             "peak RSS MB"});
    auto rows = runner.map<Row>(
        3, /*sweep_seed=*/n, [&](std::size_t i, Rng&) {
          Row row;
          row.kind = kKinds[i];
          TransformerOptions opt;
          opt.checker = row.kind;
          opt.seed = 3;
          opt.threads = inner_threads;
          SelfStabilizingMst ss(g, opt);
          row.rep = ss.stabilize_from_arbitrary();
          row.detect = measured_detection(g, row.kind, 5, inner_threads);
          return row;
        });
    for (const Row& row : rows) {
      const double logn = ceil_log2(n) + 1;
      const double rss_mb = double(peak_rss_bytes()) / (1024.0 * 1024.0);
      t.add_row({to_string(row.kind), Table::num(row.rep.max_state_bits),
                 Table::num(row.rep.max_state_bits / logn, 1),
                 Table::num(row.rep.total_time),
                 Table::num(static_cast<double>(row.rep.total_time) / n, 2),
                 Table::num(row.detect), Table::num(rss_mb, 0)});
      if (!row.rep.stabilized) std::puts("WARNING: did not stabilize!");
      json.record("table1/" + std::string(to_string(row.kind)) + "/" +
                      std::to_string(n),
                  "space_bits_per_node", double(row.rep.max_state_bits));
    }
    std::printf("n = %u, m = %zu\n", n, g.m());
    t.print();
    std::puts("");
  }
  std::puts("(peak RSS is process-wide and monotone across rows)");

  // --- Scale section: this paper's checker at large n ----------------------
  // The full transformer stabilization is Omega(n) simulated rounds of
  // Omega(n) work each — infeasible at 2^20 on one core — so the scale
  // rows measure what Table 1 actually compares at scale: per-node space
  // of the two label schemes (ours vs the KKP O(log^2 n) baseline, both
  // measured from real marked instances), verifier round throughput, and
  // detection of a label fault (1-round check), plus the peak RSS.
  if (max_n >= (1u << 14)) {
    std::printf("\n== scale: marked-instance space & detection to n=%llu ==\n",
                static_cast<unsigned long long>(max_n));
    Table st({"n", "state bits/node (this paper)", "kkp label bits/node",
              "bits/log n", "reg B/node", "Mitems/s",
              "detect rounds (label fault)", "peak RSS MB"});
    // Power-of-8 ladder from 2^14, always ending exactly at max_n so e.g.
    // --max-n=2^22 gets its own row instead of stopping at 2^20.
    for (const std::uint64_t nn : bench_ladder(1u << 14, 8, max_n)) {
      const auto n = static_cast<NodeId>(nn);
      Rng rng(7);
      auto g = gen::random_connected(n, n, rng);
      VerifierConfig cfg;
      VerifierHarness h(g, cfg, 5);
      const LabelWidths widths(g);
      std::size_t kkp_max = 0;
      for (NodeId v = 0; v < n; ++v) {
        kkp_max = std::max(kkp_max,
                           kkp_label_bits(h.marker().kkp_label(v), widths));
      }
      const ScaleProbeResult probe = run_scale_probe(h);
      if (!probe.ok) {
        std::printf("%s at n=%u\n", probe.error, n);
        json.flush(json_path);  // keep the records gathered so far
        return 1;
      }
      const double logn = ceil_log2(n) + 1;
      const double rss_mb = double(peak_rss_bytes()) / (1024.0 * 1024.0);
      st.add_row({Table::num(std::uint64_t{n}),
                  Table::num(probe.peak_state_bits),
                  Table::num(kkp_max),
                  Table::num(double(probe.peak_state_bits) / logn, 1),
                  Table::num(probe.register_file_bytes_per_node),
                  Table::num(probe.items_per_s / 1e6, 2),
                  Table::num(probe.detect_rounds), Table::num(rss_mb, 0)});
      const std::string key = "table1/scale/" + std::to_string(n);
      json.record(key, "items_per_s", probe.items_per_s);
      json.record(key, "peak_rss_bytes", double(peak_rss_bytes()));
      json.record(key, "space_bits_per_node", double(probe.peak_state_bits));
      json.record(key, "kkp_bits_per_node", double(kkp_max));
      json.record(key, "register_file_bytes_per_node",
                  double(probe.register_file_bytes_per_node));
    }
    st.print();
  }

  if (!json.flush(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
