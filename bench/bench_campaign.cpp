// Adversarial fault-campaign bench: detection-latency *distributions*
// (min/p50/p99/max across episodes) per campaign class x graph family,
// under the adversarial stale-first daemon. Every episode is oracle-checked
// (differential DSU+Kruskal reference, verify/oracle.hpp) and carries a
// replayable index-derived seed; any failed episode makes the driver exit
// non-zero, so a correctness regression fails the bench-smoke CI job
// instead of silently producing a table.
//
// Undetected episodes (randomized runtime corruption the protocol silently
// absorbs — legal: only non-MST situations must be detected) are reported
// in their own column and never folded into the latency quantiles; the old
// UINT32_MAX-sentinel poisoning of aggregates is exactly what this layout
// fixes.
//
// Usage: bench_campaign [threads] [--episodes=K] [--n=N] [--json=path]
//
// Replay mode: bench_campaign --replay-seed=N --class=<name> --family=<name>
//   [--n=N] re-runs exactly one episode (the seed a FAILED line or an
//   EpisodeResult reports) with verbose per-episode output — deterministic
//   in (class, family, n, seed), so a campaign failure reproduces under a
//   debugger without re-sweeping the whole table.

#include <cstdio>
#include <string>

#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

using namespace ssmst;
using namespace ssmst::campaign;

namespace {

/// Replays one episode from its recorded seed; returns the process exit
/// code (0 iff the episode passes its oracle + detection checks).
int replay_episode(int argc, char** argv, std::uint64_t seed) {
  const std::string cls_name = arg_value(argc, argv, "--class");
  const std::string fam_name = arg_value(argc, argv, "--family");
  const auto cls = parse_class(cls_name);
  const auto fam = parse_family(fam_name);
  if (!cls || !fam) {
    std::fprintf(stderr,
                 "--replay-seed needs --class=<name> and --family=<name> "
                 "(got class='%s' family='%s')\n",
                 cls_name.c_str(), fam_name.c_str());
    return 2;
  }
  CampaignConfig cfg;
  cfg.cls = *cls;
  cfg.family = *fam;
  cfg.n = static_cast<NodeId>(arg_u64(argc, argv, "--n", 96));
  const EpisodeResult e = run_episode(cfg, seed);
  std::printf("replay class=%s family=%s n=%u seed=%llu\n",
              campaign_name(cfg.cls), family_name(cfg.family), e.n,
              static_cast<unsigned long long>(e.seed));
  std::printf("  ok=%d skipped=%d detected=%d expected=%d faults=%zu\n",
              int(e.ok), int(e.skipped), int(e.detected),
              int(e.detection_expected), e.faults_landed);
  if (e.detected) {
    std::printf("  detection_units=%llu distance=%s\n",
                static_cast<unsigned long long>(e.detection_units),
                e.distance ? std::to_string(*e.distance).c_str() : "-");
  }
  if (!e.error.empty()) std::printf("  error: %s\n", e.error.c_str());
  return (e.ok || e.skipped) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv,
                       {"--episodes", "--n", "--json", "--replay-seed",
                        "--class", "--family"});
  const unsigned threads = threads_from_argv(argc, argv);
  const std::size_t episodes = arg_u64(argc, argv, "--episodes", 8);
  const NodeId n = static_cast<NodeId>(arg_u64(argc, argv, "--n", 96));
  const std::string json_path = arg_value(argc, argv, "--json");
  if (const std::uint64_t replay = arg_u64(argc, argv, "--replay-seed", 0);
      replay != 0) {
    return replay_episode(argc, argv, replay);
  }
  BenchJson json;
  BatchRunner runner(threads);

  std::printf("== adversarial fault campaigns (n=%u, %zu episodes/cell, "
              "%u batch threads) ==\n",
              n, episodes, threads);
  constexpr GraphFamily kFamilies[] = {
      GraphFamily::kRandom, GraphFamily::kGrid, GraphFamily::kBoundedDegree,
      GraphFamily::kPowerLaw, GraphFamily::kExpander,
  };
  bool all_ok = true;
  for (CampaignClass cls : kAllClasses) {
    Table t({"family", "det", "undet", "skip", "latency min", "p50", "p99",
             "max"});
    std::printf("\n-- class %s --\n", campaign_name(cls));
    for (GraphFamily fam : kFamilies) {
      CampaignConfig cfg;
      cfg.family = fam;
      cfg.cls = cls;
      cfg.n = n;
      const auto res =
          run_campaign(cfg, /*campaign_seed=*/1000 + n, episodes, &runner);
      const LatencyDistribution& d = res.latency;
      if (d.failed > 0) {
        all_ok = false;
        for (const EpisodeResult& e : res.episodes) {
          if (!e.ok && !e.skipped) {
            std::fprintf(stderr,
                         "FAILED episode class=%s family=%s seed=%llu: %s\n",
                         campaign_name(cls), family_name(fam),
                         static_cast<unsigned long long>(e.seed),
                         e.error.c_str());
          }
        }
      }
      t.add_row({family_name(fam), Table::num(std::uint64_t{d.detected}),
                 Table::num(std::uint64_t{d.undetected}),
                 Table::num(std::uint64_t{d.skipped}),
                 Table::num(std::uint64_t{d.min}), Table::num(d.p50, 0),
                 Table::num(d.p99, 0), Table::num(std::uint64_t{d.max})});
      const std::string key = std::string("campaign/") + campaign_name(cls) +
                              "/" + family_name(fam);
      json.record(key, "detected", double(d.detected));
      json.record(key, "undetected", double(d.undetected));
      json.record(key, "skipped", double(d.skipped));
      json.record(key, "detect_units_min", double(d.min));
      json.record(key, "detect_units_p50", double(d.p50));
      json.record(key, "detect_units_p99", double(d.p99));
      json.record(key, "detect_units_max", double(d.max));
    }
    t.print();
  }
  json.record("bench_campaign", "peak_rss_bytes", double(peak_rss_bytes()));
  if (!json.flush(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  if (!all_ok) {
    std::fprintf(stderr, "bench_campaign: oracle/episode failures (replay "
                         "with run_episode(cfg, seed))\n");
    return 1;
  }
  return 0;
}
