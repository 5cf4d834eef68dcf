// Open-loop driver for the fault-contained multi-tenant verification
// service (sim/service.hpp): submits a mixed fleet — healthy tenants plus
// the repairable and structural fault classes — drains it across a ladder
// of scheduler thread counts, and reports the fleet SLO columns:
// detection-latency quantiles (p50/p99/p999, logical units), per-tenant
// wall-time quantiles, tenant throughput and aggregate units/s.
//
// The driver is also a correctness gate for the bench-smoke CI job: it
// exits non-zero if any faulted tenant escapes the repair-or-quarantine
// contract, any healthy tenant fails, any tenant overruns its deadline
// budget, or the per-tenant reports differ across the thread ladder (the
// fleet determinism contract). The wall clock is injected from here —
// bench code — through ServiceConfiguration::wall_clock, so the service
// source itself stays clock-free (determinism rule R4).
//
// Usage: bench_service [threads] [--tenants=K] [--n=N] [--queue-cap=Q]
//                      [--seed=S] [--json=path]

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/batch.hpp"
#include "sim/service.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

using namespace ssmst;
using namespace ssmst::service;

namespace {

std::uint64_t wall_ns_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The fleet mix: 3 faulted tenants per 8-slot stripe (two repairable
/// classes + one structural), shapes and priorities varying with the
/// index — the same population the test-suite containment pin uses.
TenantSpec fleet_spec(std::size_t i, NodeId n) {
  TenantSpec spec;
  spec.n = static_cast<NodeId>(n + 8 * (i % 3));
  spec.family = (i % 2 == 0) ? campaign::GraphFamily::kRandom
                             : campaign::GraphFamily::kBoundedDegree;
  spec.priority = static_cast<std::uint32_t>(1 + i % 4);
  switch (i % 8) {
    case 1: spec.fault = TenantFault::kRegisterTamper; break;
    case 3: spec.fault = TenantFault::kAuxQueueDrop; break;
    case 5: spec.fault = TenantFault::kArenaTruncate; break;
    default: break;
  }
  return spec;
}

struct FleetRun {
  std::vector<TenantReport> reports;
  double wall_s = 0;
};

FleetRun run_fleet(unsigned threads, std::size_t tenants, NodeId n,
                   std::size_t queue_cap, std::uint64_t seed) {
  ServiceConfiguration cfg;
  cfg.threads(threads)
      .queue_capacity(queue_cap)
      .service_seed(seed)
      .wall_clock(&wall_ns_now);
  VerificationService svc(cfg);
  FleetRun out;
  const std::uint64_t t0 = wall_ns_now();
  for (std::size_t i = 0; i < tenants; ++i) svc.submit(fleet_spec(i, n));
  out.reports = svc.drain();
  out.wall_s = double(wall_ns_now() - t0) * 1e-9;
  return out;
}

/// The containment gate over one fleet's reports; prints every violation.
bool fleet_ok(const FleetRun& run, NodeId n) {
  bool ok = true;
  for (std::size_t i = 0; i < run.reports.size(); ++i) {
    const TenantReport& r = run.reports[i];
    const TenantSpec spec = fleet_spec(i, n);
    const char* why = nullptr;
    if (r.outcome == TenantOutcome::kShed) continue;
    if (spec.fault != TenantFault::kNone) {
      if (r.outcome != TenantOutcome::kRepaired &&
          r.outcome != TenantOutcome::kQuarantined) {
        why = "faulted tenant escaped repair-or-quarantine";
      } else if (r.units_used > r.deadline_units) {
        why = "tenant overran its deadline budget";
      }
    } else if (r.outcome != TenantOutcome::kHealthy) {
      why = "healthy tenant did not finish healthy";
    }
    if (why != nullptr) {
      ok = false;
      std::fprintf(stderr, "FAILED tenant %zu (%s): %s -> %s: %s\n", i,
                   fault_name(spec.fault), why, outcome_name(r.outcome),
                   r.error.c_str());
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  reject_unknown_flags(
      argc, argv, {"--tenants", "--n", "--queue-cap", "--seed", "--json"});
  const unsigned threads = threads_from_argv(argc, argv);
  const std::size_t tenants = arg_u64(argc, argv, "--tenants", 64);
  const NodeId n = static_cast<NodeId>(arg_u64(argc, argv, "--n", 48));
  const std::size_t queue_cap = arg_u64(argc, argv, "--queue-cap", 4096);
  const std::uint64_t seed = arg_u64(argc, argv, "--seed", 20260808);
  const std::string json_path = arg_value(argc, argv, "--json");

  std::printf("== multi-tenant verification service (tenants=%zu, base n=%u, "
              "seed=%llu) ==\n",
              tenants, n, static_cast<unsigned long long>(seed));

  std::vector<unsigned> ladder;
  for (unsigned t : {1u, 2u, 4u, threads}) {
    if (t <= threads && (ladder.empty() || ladder.back() < t)) {
      ladder.push_back(t);
    }
  }

  BenchJson json;
  Table t({"threads", "healthy", "repaired", "quar", "error", "tenants/s",
           "units/s", "det p50", "det p99", "det p999", "wall p50 ms",
           "wall p99 ms"});
  bool all_ok = true;
  std::vector<TenantReport> baseline;
  for (unsigned lanes : ladder) {
    const FleetRun run = run_fleet(lanes, tenants, n, queue_cap, seed);
    all_ok = fleet_ok(run, n) && all_ok;

    // The determinism gate: every rung of the ladder must produce
    // bit-identical per-tenant reports (wall_ns excluded).
    if (baseline.empty()) {
      baseline = run.reports;
    } else {
      for (std::size_t i = 0; i < tenants; ++i) {
        if (!deterministic_equal(baseline[i], run.reports[i])) {
          all_ok = false;
          std::fprintf(stderr,
                       "FAILED tenant %zu: report differs between %u and %u "
                       "scheduler threads\n",
                       i, ladder.front(), lanes);
        }
      }
    }

    std::size_t healthy = 0, repaired = 0, quarantined = 0, errors = 0;
    std::uint64_t units_total = 0;
    std::vector<double> det_units, wall_ms;
    for (const TenantReport& r : run.reports) {
      healthy += r.outcome == TenantOutcome::kHealthy;
      repaired += r.outcome == TenantOutcome::kRepaired;
      quarantined += r.outcome == TenantOutcome::kQuarantined;
      errors += r.outcome == TenantOutcome::kError;
      units_total += r.units_used;
      if (r.detected) det_units.push_back(double(r.detection_units));
      wall_ms.push_back(double(r.wall_ns) * 1e-6);
    }
    const SloQuantiles det = slo_quantiles(det_units);
    const SloQuantiles wall = slo_quantiles(wall_ms);
    const double tenants_per_s = double(tenants) / run.wall_s;
    const double units_per_s = double(units_total) / run.wall_s;
    t.add_row({Table::num(std::uint64_t{lanes}),
               Table::num(std::uint64_t{healthy}),
               Table::num(std::uint64_t{repaired}),
               Table::num(std::uint64_t{quarantined}),
               Table::num(std::uint64_t{errors}), Table::num(tenants_per_s, 1),
               Table::num(units_per_s, 0), Table::num(det.p50, 0),
               Table::num(det.p99, 0), Table::num(det.p999, 0),
               Table::num(wall.p50, 2), Table::num(wall.p99, 2)});

    const std::string key = "service/threads=" + std::to_string(lanes);
    json.record(key, "tenants_per_s", tenants_per_s);
    json.record(key, "units_per_s", units_per_s);
    json.record(key, "detect_units_p50", det.p50);
    json.record(key, "detect_units_p99", det.p99);
    json.record(key, "detect_units_p999", det.p999);
    json.record(key, "tenant_wall_ms_p50", wall.p50);
    json.record(key, "tenant_wall_ms_p99", wall.p99);
    json.record(key, "fleet_wall_s", run.wall_s);
  }
  t.print();
  std::printf("(det quantiles are logical units over detected tenants; with "
              "<1000 samples p999 saturates to the slowest detection)\n");

  json.record("bench_service", "tenants", double(tenants));
  json.record("bench_service", "peak_rss_bytes", double(peak_rss_bytes()));
  if (!json.flush(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  if (!all_ok) {
    std::fprintf(stderr, "bench_service: containment/determinism failures\n");
    return 1;
  }
  return 0;
}
