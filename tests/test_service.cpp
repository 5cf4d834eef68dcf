// The fault-contained multi-tenant verification service (sim/service.hpp):
// the fleet containment pin (faulted tenants repaired-or-quarantined within
// their deadline budget, healthy tenants bit-identical to solo baselines),
// scheduling determinism across thread counts, admission-control shedding,
// per-tenant exception containment, and the slab-reclaim contract.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "labels/arena.hpp"
#include "sim/service.hpp"

namespace ssmst {
namespace service {
namespace {

constexpr std::uint64_t kFleetSeed = 20260808;

/// The 64-tenant mixed fleet of the acceptance pin: every 8-slot stripe
/// carries one tenant of each repairable aux class plus one structural
/// one, the rest healthy; shapes and priorities vary with the index so
/// admission and scheduling see a non-uniform population.
TenantSpec fleet_spec(std::size_t i) {
  TenantSpec spec;
  spec.n = static_cast<NodeId>(40 + 8 * (i % 3));
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

ServiceConfiguration fleet_cfg(unsigned threads) {
  ServiceConfiguration cfg;
  cfg.threads(threads).queue_capacity(128).service_seed(kFleetSeed);
  return cfg;
}

std::vector<TenantReport> run_fleet(unsigned threads, std::size_t tenants) {
  VerificationService svc(fleet_cfg(threads));
  for (std::size_t i = 0; i < tenants; ++i) {
    EXPECT_TRUE(svc.submit(fleet_spec(i)));
  }
  return svc.drain();
}

// The acceptance pin: a 64-tenant fleet with aux faults seeded into a
// subset. Every faulted tenant is detected-and-repaired or quarantined
// within its deadline budget, no tenant is left pending (no fleet stall),
// and every healthy tenant's report is bit-identical to running that
// tenant alone — cross-tenant fault containment.
TEST(VerificationService, FleetContainmentPin) {
  const std::size_t kTenants = 64;
  const std::vector<TenantReport> reports = run_fleet(8, kTenants);
  ASSERT_EQ(reports.size(), kTenants);

  std::size_t repaired = 0, quarantined = 0, healthy = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    const TenantReport& r = reports[i];
    const TenantSpec spec = fleet_spec(i);
    EXPECT_EQ(r.index, i);
    EXPECT_NE(r.outcome, TenantOutcome::kPending) << "tenant " << i;
    EXPECT_NE(r.outcome, TenantOutcome::kShed) << "tenant " << i;
    if (spec.fault != TenantFault::kNone) {
      // Faulted: the lifecycle must end in repair or quarantine — never
      // an error, never past the deadline, never undetected-but-running.
      EXPECT_TRUE(r.outcome == TenantOutcome::kRepaired ||
                  r.outcome == TenantOutcome::kQuarantined)
          << "tenant " << i << " -> " << outcome_name(r.outcome);
      EXPECT_TRUE(r.detected) << "tenant " << i;
      EXPECT_LE(r.units_used, r.deadline_units) << "tenant " << i;
      repaired += r.outcome == TenantOutcome::kRepaired;
      quarantined += r.outcome == TenantOutcome::kQuarantined;
    } else {
      EXPECT_EQ(r.outcome, TenantOutcome::kHealthy) << "tenant " << i;
      // Fault containment: a healthy tenant in a fleet full of faulted
      // neighbours reports exactly what it reports alone.
      const TenantReport solo =
          VerificationService::run_solo(fleet_cfg(8), spec, i);
      EXPECT_TRUE(deterministic_equal(r, solo)) << "tenant " << i;
      ++healthy;
    }
  }
  // The repairable classes (kRegisterTamper, kAuxQueueDrop) repair; the
  // structural class (kArenaTruncate) quarantines.
  EXPECT_EQ(repaired, 16u);
  EXPECT_EQ(quarantined, 8u);
  EXPECT_EQ(healthy, 40u);
}

// Register damage ends the episode at its first audit: every
// arena-truncate tenant of the pin fleet is quarantined with no unit run
// past its detection (run_solo gives the fleet's report for the slot).
TEST(VerificationService, RegisterDamageQuarantinesAtDetection) {
  for (std::size_t i = 5; i < 64; i += 8) {
    const TenantSpec spec = fleet_spec(i);
    ASSERT_EQ(spec.fault, TenantFault::kArenaTruncate);
    const TenantReport r =
        VerificationService::run_solo(fleet_cfg(8), spec, i);
    EXPECT_EQ(r.outcome, TenantOutcome::kQuarantined) << "tenant " << i;
    EXPECT_TRUE(r.detected) << "tenant " << i;
    EXPECT_EQ(r.units_used, r.detection_units) << "tenant " << i;
  }
}

// The scheduler-determinism pin: per-tenant reports are a pure function of
// (service_seed, index) — bit-identical across 1, 4 and 8 scheduler
// threads (only wall_ns, excluded from deterministic_equal, may vary).
TEST(VerificationService, ReportsBitIdenticalAcrossSchedulerThreadCounts) {
  const std::size_t kTenants = 24;
  const std::vector<TenantReport> r1 = run_fleet(1, kTenants);
  const std::vector<TenantReport> r4 = run_fleet(4, kTenants);
  const std::vector<TenantReport> r8 = run_fleet(8, kTenants);
  ASSERT_EQ(r1.size(), kTenants);
  ASSERT_EQ(r4.size(), kTenants);
  ASSERT_EQ(r8.size(), kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    EXPECT_TRUE(deterministic_equal(r1[i], r4[i])) << "tenant " << i;
    EXPECT_TRUE(deterministic_equal(r1[i], r8[i])) << "tenant " << i;
    EXPECT_NE(r1[i].result_digest, 0u) << "tenant " << i;
  }
}

// A throwing tenant (kPoison) is contained: its slot reports kError with
// the exception message, and every other tenant — including its immediate
// pool neighbours — matches its solo baseline.
TEST(VerificationService, PoisonTenantIsContainedPerSlot) {
  ServiceConfiguration cfg = fleet_cfg(4);
  VerificationService svc(cfg);
  const std::size_t kTenants = 8;
  const std::size_t kPoisonSlot = 3;
  for (std::size_t i = 0; i < kTenants; ++i) {
    TenantSpec spec = fleet_spec(i);
    if (i == kPoisonSlot) spec.fault = TenantFault::kPoison;
    EXPECT_TRUE(svc.submit(spec));
  }
  const std::vector<TenantReport>& reports = svc.drain();
  ASSERT_EQ(reports.size(), kTenants);
  EXPECT_EQ(reports[kPoisonSlot].outcome, TenantOutcome::kError);
  EXPECT_NE(reports[kPoisonSlot].error.find("poison"), std::string::npos);
  for (std::size_t i = 0; i < kTenants; ++i) {
    if (i == kPoisonSlot) continue;
    const TenantReport solo =
        VerificationService::run_solo(cfg, fleet_spec(i), i);
    EXPECT_TRUE(deterministic_equal(reports[i], solo)) << "tenant " << i;
  }
}

// Admission control: past queue_capacity pending tenants, the submit sheds
// the lowest-priority pending tenant; priority ties shed the newest
// arrival (the incoming tenant itself on a full tie). The shed decision is
// a pure function of the submission sequence.
TEST(VerificationService, AdmissionShedsLowestPriorityNewestFirst) {
  ServiceConfiguration cfg;
  cfg.threads(2).queue_capacity(4).service_seed(kFleetSeed);
  VerificationService svc(cfg);

  TenantSpec base;
  base.n = 32;
  for (int i = 0; i < 4; ++i) {
    TenantSpec spec = base;
    spec.priority = 2;
    EXPECT_TRUE(svc.submit(spec));
  }
  EXPECT_EQ(svc.pending(), 4u);

  // Lower priority than everything pending: the incoming tenant itself is
  // shed, deterministically.
  TenantSpec low = base;
  low.priority = 1;
  EXPECT_FALSE(svc.submit(low));
  EXPECT_EQ(svc.pending(), 4u);
  EXPECT_EQ(svc.reports()[4].outcome, TenantOutcome::kShed);

  // Higher priority: admitted; the victim is the newest of the pending
  // priority-2 tie (slot 3), not the oldest.
  TenantSpec high = base;
  high.priority = 5;
  EXPECT_TRUE(svc.submit(high));
  EXPECT_EQ(svc.pending(), 4u);
  EXPECT_EQ(svc.reports()[3].outcome, TenantOutcome::kShed);
  EXPECT_EQ(svc.reports()[5].outcome, TenantOutcome::kPending);

  // Shed slots stay shed through a drain; everything else terminates.
  const std::vector<TenantReport>& reports = svc.drain();
  EXPECT_EQ(svc.pending(), 0u);
  ASSERT_EQ(reports.size(), 6u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == 3 || i == 4) {
      EXPECT_EQ(reports[i].outcome, TenantOutcome::kShed) << "slot " << i;
      EXPECT_NE(reports[i].error.find("shed"), std::string::npos);
    } else {
      EXPECT_EQ(reports[i].outcome, TenantOutcome::kHealthy) << "slot " << i;
    }
  }
}

// The slab-reclaim contract: every tenant that ran — repaired,
// quarantined, even the poison tenant whose episode threw — books its
// arena bytes back to the pool at teardown; nothing stays live under a
// finished tenant's tag, and shed tenants never touch the pool.
TEST(VerificationService, QuarantineReclaimsTenantSlabs) {
  ServiceConfiguration cfg = fleet_cfg(4);
  VerificationService svc(cfg);
  const std::size_t kTenants = 12;
  for (std::size_t i = 0; i < kTenants; ++i) {
    TenantSpec spec = fleet_spec(i);
    if (i == 7) spec.fault = TenantFault::kPoison;
    EXPECT_TRUE(svc.submit(spec));
  }
  const std::vector<TenantReport>& reports = svc.drain();
  auto& pool = LabelArenaPool::instance();
  for (std::size_t i = 0; i < kTenants; ++i) {
    const std::uint64_t tag = VerificationService::tenant_tag(kFleetSeed, i);
    EXPECT_EQ(pool.tenant_live_bytes(tag), 0u) << "tenant " << i;
    EXPECT_GT(reports[i].arena_bytes_reclaimed, 0u) << "tenant " << i;
    EXPECT_GE(pool.tenant_reclaimed_bytes(tag),
              reports[i].arena_bytes_reclaimed)
        << "tenant " << i;
  }
}

// drain() is idempotent over completed slots, and a second fleet can run
// through the same service after the first finished (the long-lived
// service shape: alternating submit()/drain() cycles).
TEST(VerificationService, DrainIsIdempotentAndServiceIsReusable) {
  ServiceConfiguration cfg = fleet_cfg(4);
  VerificationService svc(cfg);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_TRUE(svc.submit(fleet_spec(i)));
  const std::vector<TenantReport> first = svc.drain();
  const std::vector<TenantReport>& again = svc.drain();
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(deterministic_equal(first[i], again[i])) << "slot " << i;
    EXPECT_EQ(first[i].wall_ns, again[i].wall_ns) << "slot " << i;
  }
  // Second wave: new submissions run; finished slots stay untouched.
  EXPECT_TRUE(svc.submit(fleet_spec(6)));
  EXPECT_EQ(svc.pending(), 1u);
  const std::vector<TenantReport>& all = svc.drain();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(svc.pending(), 0u);
  EXPECT_NE(all[6].outcome, TenantOutcome::kPending);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(deterministic_equal(first[i], all[i])) << "slot " << i;
  }
}

// The injected wall clock is SLO metrology only: it feeds wall_ns and
// nothing else — reports with and without a clock are deterministic_equal.
TEST(VerificationService, WallClockOnlyAffectsWallNs) {
  std::uint64_t ticks = 0;
  ServiceConfiguration timed = fleet_cfg(1);
  timed.wall_clock([&ticks] { return ticks += 17; });
  const TenantSpec spec = fleet_spec(1);  // kRegisterTamper
  const TenantReport with_clock =
      VerificationService::run_solo(timed, spec, 1);
  const TenantReport without_clock =
      VerificationService::run_solo(fleet_cfg(1), spec, 1);
  EXPECT_EQ(with_clock.wall_ns, 17u);
  EXPECT_EQ(without_clock.wall_ns, 0u);
  EXPECT_TRUE(deterministic_equal(with_clock, without_clock));
}

}  // namespace
}  // namespace service
}  // namespace ssmst
