// Experiment E8 (Section 5, Lemmas 5.2/5.4): label sizes and marker time —
// plus the physical-layout ledger of the striped-arena register file.
//
// Semantic side (the paper's measure): our scheme's labels stay O(log n)
// bits; the KKP 1-round scheme's labels grow as Theta(log^2 n); the marker
// assigns everything in O(n). Shape to check: ours/log n flat;
// kkp/log^2 n flat; kkp/ours growing.
//
// Physical side (the implementation's measure): live bytes/node of the
// compact register file (header + live stripes) vs what the padded
// fixed-capacity inline layout would cost (kLabelLevelCap level slots and
// 2*kLabelPackCap piece slots per node, regardless of live length) — the
// padding-waste column that motivated the arena. CI pins a bytes-per-node
// ceiling through --assert-max-bytes-per-node so register-file bloat
// regressions fail the bench-smoke job.
//
// Flags: --json=FILE            append machine-readable records
//        --max-n=N              largest instance (default 4096)
//        --assert-max-bytes-per-node=B  exit 1 if the register file
//                               (2 buffered headers + live stripes) costs
//                               more than B bytes/node at the largest n

#include <cstdio>

#include "core/ssmst.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/table.hpp"

using namespace ssmst;

int main(int argc, char** argv) {
  const std::uint64_t max_n = arg_u64(argc, argv, "--max-n", 4096);
  const std::uint64_t assert_bpn =
      arg_u64(argc, argv, "--assert-max-bytes-per-node", 0);
  const std::string json_path = arg_value(argc, argv, "--json");
  BenchJson json;

  std::puts("== E8: proof label memory (ours vs KKP) and marker time ==");
  Table t({"n", "ours bits", "ours/log n", "kkp bits", "kkp/(log n)^2",
           "kkp/ours", "marker rounds", "marker/n"});
  std::puts("== register file: live vs padded bytes/node ==");
  Table p({"n", "live B/node", "padded B/node", "waste %", "file B/node"});
  Rng rng(13);
  double last_file_bpn = 0;
  std::uint64_t last_n = 0;
  // Power-of-4 ladder from 64, always ending exactly at max_n, so the CI
  // bytes-per-node gate asserts at the size the caller actually asked for.
  for (const std::uint64_t nn : bench_ladder(64, 4, max_n)) {
    const auto n = static_cast<NodeId>(nn);
    auto g = gen::random_connected(n, n / 2, rng);
    auto m = make_labels(g);
    const LabelWidths widths(g);
    std::size_t ours = 0, kkp = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      ours = std::max(ours, label_bits(m.labels[v], widths));
      kkp = std::max(kkp, kkp_label_bits(m.kkp_label(v), widths));
    }
    const double logn = ceil_log2(n) + 1;
    t.add_row({Table::num(std::uint64_t{n}), Table::num(std::uint64_t{ours}),
               Table::num(ours / logn, 1), Table::num(std::uint64_t{kkp}),
               Table::num(kkp / (logn * logn), 2),
               Table::num(double(kkp) / ours, 2),
               Table::num(m.schedule_rounds),
               Table::num(double(m.schedule_rounds) / n, 2)});

    // Physical ledger. Live: the arena's stripe content plus one header
    // per label. Padded: what the pre-arena inline layout stored per node
    // (full-capacity level strings and piece packs inside the struct).
    const double live_bpn =
        double(m.arena->live_bytes()) / n + sizeof(NodeLabels);
    const double padded_bpn =
        sizeof(NodeLabels) + kLabelLevelCap * 4.0 +
        2.0 * kLabelPackCap * sizeof(Piece);
    // The double-buffered verifier register file: two header copies per
    // node, one shared stripe payload.
    const double file_bpn =
        2.0 * sizeof(VerifierState) + double(m.arena->live_bytes()) / n;
    p.add_row({Table::num(std::uint64_t{n}), Table::num(live_bpn, 1),
               Table::num(padded_bpn, 1),
               Table::num(100.0 * (1.0 - live_bpn / padded_bpn), 1),
               Table::num(file_bpn, 1)});
    const std::string key = "labels_memory/" + std::to_string(n);
    json.record(key, "ours_bits", double(ours));
    json.record(key, "kkp_bits", double(kkp));
    json.record(key, "live_bytes_per_node", live_bpn);
    json.record(key, "padded_bytes_per_node", padded_bpn);
    json.record(key, "register_file_bytes_per_node", file_bpn);
    last_file_bpn = file_bpn;
    last_n = n;
  }
  t.print();
  std::puts("");
  p.print();
  std::printf("(padded = the pre-arena fixed-capacity inline layout: "
              "%u level slots + 2x%u piece slots per node)\n",
              kLabelLevelCap, kLabelPackCap);

  if (!json.flush(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  if (assert_bpn != 0 && last_file_bpn > double(assert_bpn)) {
    std::fprintf(stderr,
                 "FAIL: register file costs %.1f bytes/node at n=%llu, "
                 "ceiling is %llu\n",
                 last_file_bpn, static_cast<unsigned long long>(last_n),
                 static_cast<unsigned long long>(assert_bpn));
    return 1;
  }
  if (assert_bpn != 0) {
    std::printf("bytes-per-node ceiling ok: %.1f <= %llu at n=%llu\n",
                last_file_bpn, static_cast<unsigned long long>(assert_bpn),
                static_cast<unsigned long long>(last_n));
  }
  return 0;
}
