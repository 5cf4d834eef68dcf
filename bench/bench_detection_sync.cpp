// Experiment E2 (Theorem 8.5): synchronous detection time O(log^2 n).
// A permanent piece is tampered after the verifier reaches steady state;
// we report the rounds until some node alarms, against (log n)^2.
//
// The per-seed sims are independent, so the seed sweep fans out over a
// BatchRunner (threads from argv[1], default: hardware). Per-sim seeding
// is index-derived, so the numbers are identical at any thread count.
//
// Shape to check: time/(log n)^2 roughly flat; log-log slope well below 1.
// The median is over the seeds that detected ("-" when none did); each
// row also counts its false alarms, missed detections and skipped seeds
// (no load-bearing piece to tamper). A false alarm or a miss anywhere
// makes the driver exit 1 after printing every table.
//
// Scale section: random/star/path instances up to --max-n nodes (default
// 2^20) run the full pipeline — mark, reach steady state with no false
// alarm, inject a fault, detect — and report round throughput plus the
// process peak RSS. The fault here is a label corruption caught by a
// 1-round check: the piece-tamper experiment above measures the O(log^2 n)
// *train* detection path, whose ~80(log n)^2-round constant is the model's
// cost, not the simulator's, and at 2^20 nodes on one core those rounds
// are hours of wall clock. Flags: [threads] [--max-n=N] [--json=FILE]
// (--json appends machine-readable records, e.g. for BENCH_PR3.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/ssmst.hpp"
#include "sim/batch.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/seed_tally.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssmst;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One scale-section experiment: full pipeline at (family, n), detection
/// via a 1-round-checkable label fault (the shared run_scale_probe).
/// Returns false on any failure.
bool run_scale_row(const char* family, const WeightedGraph& g, Table& t,
                   BenchJson& json) {
  const NodeId n = g.n();
  const auto t0 = Clock::now();
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, /*daemon_seed=*/1);
  const double mark_s = secs_since(t0);

  const ScaleProbeResult probe = run_scale_probe(h);
  if (!probe.ok) {
    std::printf("%s at %s n=%u\n", probe.error, family, n);
    return false;
  }
  const double rss_mb = double(peak_rss_bytes()) / (1024.0 * 1024.0);
  t.add_row({family, Table::num(std::uint64_t{n}), Table::num(mark_s, 1),
             Table::num(probe.items_per_s / 1e6, 2),
             Table::num(probe.detect_rounds),
             Table::num(double(probe.peak_state_bits), 0),
             Table::num(rss_mb, 0)});
  const std::string key =
      std::string("detection_sync/scale/") + family + "/" + std::to_string(n);
  json.record(key, "items_per_s", probe.items_per_s);
  json.record(key, "peak_rss_bytes", double(peak_rss_bytes()));
  json.record(key, "detect_rounds", double(probe.detect_rounds));
  json.record(key, "mark_seconds", mark_s);
  json.record(key, "register_file_bytes_per_node",
              double(probe.register_file_bytes_per_node));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {"--max-n", "--json"});
  const unsigned threads = threads_from_argv(argc, argv);
  // 2^26 ceiling: the loop below would otherwise wrap NodeId, and a
  // larger register file would not fit sane memory anyway.
  const std::uint64_t max_n = std::min<std::uint64_t>(
      arg_u64(argc, argv, "--max-n", 1u << 20), 1u << 26);
  const std::string json_path = arg_value(argc, argv, "--json");
  BenchJson json;

  std::printf("== E2: detection time, synchronous (target O(log^2 n)) ==\n");
  std::printf("batch threads: %u\n", threads);
  BatchRunner runner(threads);
  Table t({"n", "detect rounds (median)", "(log n)^2", "rounds/(log n)^2",
           "false alarms", "missed", "skipped"});
  std::vector<double> ns, ts;
  SeedTally all;
  Rng grng(9);
  for (NodeId n : {64u, 128u, 256u, 512u, 1024u}) {
    auto g = gen::random_connected(n, n / 2, grng);
    struct Seed {
      SeedOutcome outcome;
      double rounds = 0;
    };
    auto raw = runner.map<Seed>(
        5, /*sweep_seed=*/n, [&](std::size_t i, Rng&) -> Seed {
          const std::uint64_t seed = i + 1;  // historical per-sim seeds 1..5
          VerifierConfig cfg;
          VerifierHarness h(g, cfg, seed);
          if (h.run(64).has_value()) return {SeedOutcome::kFalseAlarm};
          auto victim = h.tamper_loadbearing_piece(seed * 37);
          if (!victim) return {SeedOutcome::kNoPiece};
          auto res = h.measure_detection({*victim}, 1u << 22);
          if (!res.detected) return {SeedOutcome::kMissed};
          return {SeedOutcome::kDetected, double(res.detection_time)};
        });
    SeedTally tally;
    std::vector<double> samples;
    for (const Seed& s : raw) {
      tally.add(s.outcome);
      if (s.outcome == SeedOutcome::kDetected) samples.push_back(s.rounds);
    }
    const double l2 = double(ceil_log2(n) + 1) * (ceil_log2(n) + 1);
    std::vector<std::string> row = {Table::num(std::uint64_t{n}), "-",
                                    Table::num(l2, 0), "-"};
    if (!samples.empty()) {
      std::sort(samples.begin(), samples.end());
      const double med = samples[samples.size() / 2];
      row[1] = Table::num(med, 0);
      row[3] = Table::num(med / l2, 2);
      json.record("detection_sync/e2/" + std::to_string(n), "detect_rounds",
                  med);
      ns.push_back(n);
      ts.push_back(med + 1);
    }
    for (std::string& c : tally.cells()) row.push_back(std::move(c));
    t.add_row(std::move(row));
    all += tally;
  }
  t.print();
  std::printf("\ndetection time vs n, log-log slope: %.2f "
              "(polylog -> well below 1.0)\n",
              loglog_slope(ns, ts));
  if (all.failed()) {
    std::fprintf(stderr, "E2: %zu false alarm(s), %zu missed detection(s)\n",
                 all.false_alarms, all.misses);
  }

  // --- Scale section: full pipeline on big instances ----------------------
  if (max_n >= (1u << 14)) {
    std::printf("\n== scale: full pipeline to n=%llu "
                "(1-round label-fault detection) ==\n",
                static_cast<unsigned long long>(max_n));
    Table st({"family", "n", "mark s", "Mitems/s", "detect rounds",
              "peak state bits", "peak RSS MB"});
    bool ok = true;
    // Power-of-8 ladder ending exactly at max_n (a --max-n=2^22 run gets
    // its own random row instead of stopping at 2^20).
    for (const std::uint64_t nn : bench_ladder(1u << 14, 8, max_n)) {
      if (!ok) break;
      const auto n = static_cast<NodeId>(nn);
      Rng rng(11);
      auto g = gen::random_connected(n, n / 2, rng);
      ok = run_scale_row("random", g, st, json) && ok;
    }
    if (ok) {
      const auto n = static_cast<NodeId>(max_n);
      Rng rng(12);
      auto gs = gen::star(n, rng);
      ok = run_scale_row("star", gs, st, json) && ok;
      if (ok) {
        Rng rng2(13);
        auto gp = gen::path(n, rng2);
        ok = run_scale_row("path", gp, st, json) && ok;
      }
    }
    st.print();
    std::printf("(peak RSS is process-wide and monotone across rows)\n");
    if (!ok) {
      json.flush(json_path);  // keep the records gathered so far
      return 1;
    }
  }

  if (!json.flush(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return all.failed() ? 1 : 0;
}
