// Experiment E3 (Theorem 8.5): asynchronous detection time
// O(Delta log^3 n) under a weakly fair daemon, with the Want/handshake
// comparison mechanism (Section 7.2.2). Sweeps n at fixed degree, the
// degree at fixed n, and — new with the event-driven engine — the daemon
// discipline at fixed n: the queue drain order (random / round-robin /
// reverse / adversarial stale-first) is a workload axis for detection
// latency, and the activations column shows the daemon work the
// activation queue saves versus a full sweep (n per unit).
//
// The per-seed sims are independent, so each sweep cell fans its seeds
// out over a BatchRunner (threads from argv[1], default: hardware);
// per-sim seeds are index-derived, so results match the serial sweep.
//
// Shape to check: time/(Delta (log n)^3) bounded; growth with Delta at
// most linear. --max-n caps the n sweep (CI smoke); --json= appends the
// medians to the shared flat bench JSON. Medians and storm distributions
// are over the seeds that detected ("-" and no JSON record when none
// did); each row also counts its false alarms, missed detections and
// skipped seeds (no load-bearing piece to tamper). A false alarm or a
// miss anywhere makes the driver exit 1 after printing every table.
//
// The multi-fault storm section tampers k load-bearing pieces at once and
// reports the detection-latency *distribution* across seeds — min /
// median / max land in the JSON as detect_units_min/med/max per storm
// size, the observability the sharded parallel drain is built for. (The
// batched span-taking inject_faults path is exercised by bench_micro's
// BM_AsyncDrainParallel storms; here random runtime corruption would
// alarm within the first unit, collapsing the distribution.)

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ssmst.hpp"
#include "sim/batch.hpp"
#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/seed_tally.hpp"
#include "util/table.hpp"

using namespace ssmst;

namespace {

struct AsyncDetect {
  SeedOutcome outcome = SeedOutcome::kDetected;
  double units = 0;                 ///< detection time, when detected
  double activations_per_unit = 0;  ///< daemon schedulings / unit
};

AsyncDetect detect_async(const WeightedGraph& g, std::uint64_t seed,
                         DaemonOrder order) {
  VerifierConfig cfg;
  cfg.sync_mode = false;
  cfg.daemon = order;
  VerifierHarness h(g, cfg, seed);
  if (h.run(64).has_value()) return {SeedOutcome::kFalseAlarm};
  auto victim = h.tamper_loadbearing_piece(seed * 41);
  if (!victim) return {SeedOutcome::kNoPiece};
  const SimulationStats before = h.sim().stats();
  auto res = h.measure_detection({*victim}, 1u << 23);
  if (!res.detected) return {SeedOutcome::kMissed};
  AsyncDetect out;
  out.units = static_cast<double>(res.detection_time);
  const std::uint64_t units = res.sim.units - before.units;
  if (units > 0) {
    out.activations_per_unit =
        static_cast<double>(res.sim.activations - before.activations) /
        static_cast<double>(units);
  }
  return out;
}

/// One sweep cell: the median detection over the seeds that detected
/// (none when no seed did) and the outcome counts of all of them.
struct Cell {
  std::optional<AsyncDetect> median;
  SeedTally tally;
};

/// Median over 3 independent detection sims, fanned out over the runner.
Cell median_detect(BatchRunner& runner, const WeightedGraph& g,
                   DaemonOrder order = DaemonOrder::kRandom) {
  auto raw = runner.map<AsyncDetect>(
      3, /*sweep_seed=*/g.n(), [&](std::size_t i, Rng&) {
        return detect_async(g, i + 1, order);
      });
  Cell cell;
  std::vector<AsyncDetect> xs;
  for (const AsyncDetect& d : raw) {
    cell.tally.add(d.outcome);
    if (d.outcome == SeedOutcome::kDetected) xs.push_back(d);
  }
  std::sort(xs.begin(), xs.end(),
            [](const AsyncDetect& a, const AsyncDetect& b) {
              return a.units < b.units;
            });
  if (!xs.empty()) cell.median = xs[xs.size() / 2];
  return cell;
}

/// One multi-fault storm: quiesce, tamper up to k distinct load-bearing
/// permanent pieces (the slow O(log^2 n) comparison-train path — random
/// runtime corruption alarms within the first unit and would collapse the
/// distribution to zero), measure units to the first alarm anywhere.
AsyncDetect storm_detect(const WeightedGraph& g, std::uint64_t seed,
                         std::size_t k) {
  VerifierConfig cfg;
  cfg.sync_mode = false;
  VerifierHarness h(g, cfg, seed);
  if (h.run(64).has_value()) return {SeedOutcome::kFalseAlarm};
  std::vector<NodeId> victims;
  for (std::size_t i = 0; i < k; ++i) {
    const auto v = h.tamper_loadbearing_piece(seed * 131 + i * 7 + 1);
    if (v && std::find(victims.begin(), victims.end(), *v) == victims.end()) {
      victims.push_back(*v);
    }
  }
  if (victims.empty()) return {SeedOutcome::kNoPiece};
  const auto res = h.measure_detection(victims, 1u << 23);
  if (!res.detected) return {SeedOutcome::kMissed};
  return {SeedOutcome::kDetected, static_cast<double>(res.detection_time)};
}

/// Detection-latency distribution of `seeds` independent k-fault storms,
/// over the seeds that detected (no distribution when none did).
struct StormDist {
  std::optional<std::array<double, 3>> min_med_max;
  SeedTally tally;
};

StormDist storm_distribution(BatchRunner& runner, const WeightedGraph& g,
                             std::size_t k, std::size_t seeds) {
  auto raw = runner.map<AsyncDetect>(seeds, /*sweep_seed=*/g.n() + k,
                                     [&](std::size_t i, Rng&) {
                                       return storm_detect(g, i + 1, k);
                                     });
  StormDist d;
  std::vector<double> xs;
  for (const AsyncDetect& u : raw) {
    d.tally.add(u.outcome);
    if (u.outcome == SeedOutcome::kDetected) xs.push_back(u.units);
  }
  std::sort(xs.begin(), xs.end());
  if (!xs.empty()) d.min_med_max = {xs.front(), xs[xs.size() / 2], xs.back()};
  return d;
}

const char* order_name(DaemonOrder o) {
  switch (o) {
    case DaemonOrder::kRandom:
      return "random";
    case DaemonOrder::kRoundRobin:
      return "round-robin";
    case DaemonOrder::kReverse:
      return "reverse";
    case DaemonOrder::kAdversarial:
      return "adversarial";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {"--max-n", "--json"});
  const unsigned threads = threads_from_argv(argc, argv);
  const NodeId max_n =
      static_cast<NodeId>(arg_u64(argc, argv, "--max-n", 256));
  const std::string json_path = arg_value(argc, argv, "--json");
  BenchJson json;
  std::printf(
      "== E3: detection time, asynchronous (target O(D log^3 n)) ==\n");
  std::printf("batch threads: %u\n", threads);
  BatchRunner runner(threads);
  SeedTally all;
  // Appends a cell's outcome counts to its row and to the run's total.
  auto add_counts = [&all](std::vector<std::string>& row,
                           const SeedTally& tally) {
    all += tally;
    for (std::string& c : tally.cells()) row.push_back(std::move(c));
  };
  std::puts("-- n sweep at max degree 4 --");
  {
    Table t({"n", "detect units (median)", "D*(log n)^3", "ratio",
             "false alarms", "missed", "skipped"});
    Rng rng(5);
    for (NodeId n : {64u, 128u, 256u}) {
      if (n > max_n) break;
      auto g = gen::random_bounded_degree(n, 4, n / 4, rng);
      const Cell c = median_detect(runner, g);
      const double l = ceil_log2(n) + 1;
      const double bound = g.max_degree() * l * l * l;
      std::vector<std::string> row = {Table::num(std::uint64_t{n}), "-",
                                      Table::num(bound, 0), "-"};
      if (c.median) {
        row[1] = Table::num(c.median->units, 0);
        row[3] = Table::num(c.median->units / bound, 3);
        json.record("detection_async/n=" + std::to_string(n),
                    "detect_units", c.median->units);
      }
      add_counts(row, c.tally);
      t.add_row(std::move(row));
    }
    t.print();
  }
  std::puts("\n-- degree sweep at n = 128 --");
  {
    Table t({"max degree", "detect units (median)", "false alarms",
             "missed", "skipped"});
    Rng rng(6);
    for (std::uint32_t d : {3u, 6u, 12u, 24u}) {
      auto g = gen::random_bounded_degree(128, d, 64, rng);
      const Cell c = median_detect(runner, g);
      std::vector<std::string> row = {
          Table::num(std::uint64_t{g.max_degree()}), "-"};
      if (c.median) {
        row[1] = Table::num(c.median->units, 0);
        json.record("detection_async/deg=" + std::to_string(g.max_degree()),
                    "detect_units", c.median->units);
      }
      add_counts(row, c.tally);
      t.add_row(std::move(row));
    }
    t.print();
  }
  std::puts("\n-- daemon-discipline sweep at n = 128 --");
  {
    // The adversarial stale-first drain is the worst-case schedule the
    // weakly-fair contract admits; activations/unit shows how much daemon
    // work the queue saves once alarmed regions quiesce (a full sweep
    // schedules all n nodes every unit).
    Table t({"discipline", "detect units", "act/unit", "false alarms",
             "missed", "skipped"});
    Rng rng(7);
    auto g = gen::random_bounded_degree(std::min<NodeId>(128, max_n), 4, 64,
                                        rng);
    for (DaemonOrder order :
         {DaemonOrder::kRandom, DaemonOrder::kRoundRobin,
          DaemonOrder::kReverse, DaemonOrder::kAdversarial}) {
      const Cell c = median_detect(runner, g, order);
      std::vector<std::string> row = {order_name(order), "-", "-"};
      if (c.median) {
        row[1] = Table::num(c.median->units, 0);
        row[2] = Table::num(c.median->activations_per_unit, 1);
        const std::string key =
            std::string("detection_async/order=") + order_name(order);
        json.record(key, "detect_units", c.median->units);
        json.record(key, "activations_per_unit",
                    c.median->activations_per_unit);
      }
      add_counts(row, c.tally);
      t.add_row(std::move(row));
    }
    t.print();
  }
  std::puts(
      "\n-- multi-fault piece storms at n = 256 (latency distribution) --");
  {
    // Simultaneous piece tampering at up to k distinct nodes. The latency
    // distribution across seeds is the headline: a bigger storm pulls the
    // whole distribution down (the first detection is a minimum over the
    // victims' individual train latencies) while the max shows the tail a
    // single unlucky placement still costs.
    Table t({"faults", "detect units: min", "median", "max", "false alarms",
             "missed", "skipped"});
    Rng rng(8);
    const NodeId n = std::min<NodeId>(256, max_n);
    auto g = gen::random_bounded_degree(n, 4, n / 4, rng);
    for (std::size_t k : {4u, 16u, 64u}) {
      if (k >= g.n() / 2) break;
      const StormDist d = storm_distribution(runner, g, k, 5);
      std::vector<std::string> row = {Table::num(std::uint64_t{k}), "-", "-",
                                      "-"};
      if (d.min_med_max) {
        const auto& [lo, med, hi] = *d.min_med_max;
        row[1] = Table::num(lo, 0);
        row[2] = Table::num(med, 0);
        row[3] = Table::num(hi, 0);
        const std::string key =
            "detection_async/storm_k=" + std::to_string(k);
        json.record(key, "detect_units_min", lo);
        json.record(key, "detect_units_med", med);
        json.record(key, "detect_units_max", hi);
      }
      add_counts(row, d.tally);
      t.add_row(std::move(row));
    }
    t.print();
  }
  if (all.failed()) {
    std::fprintf(stderr, "E3: %zu false alarm(s), %zu missed detection(s)\n",
                 all.false_alarms, all.misses);
  }
  json.record("bench_detection_async", "peak_rss_bytes",
              double(peak_rss_bytes()));
  if (!json.flush(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return all.failed() ? 1 : 0;
}
