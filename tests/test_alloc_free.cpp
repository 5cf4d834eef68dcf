// The allocation-free hot path (the flat-register contract of
// sim/protocol.hpp): once the verifier reaches steady state, a sync round
// must perform ZERO heap allocations — the registers are flat
// trivially-copyable blocks, the engine double-buffers them, and nothing
// on the per-activation path touches the allocator.
//
// Verified with a global operator new/delete counter: the strongest
// possible assertion, immune to refactorings that merely move the
// allocations around.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/ssmst.hpp"
#include "sim/service.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<bool> g_counting{false};

}  // namespace

// The replacement operator new intentionally backs onto malloc/free (the
// usual counting-hook pattern); GCC pairs new with delete and flags the
// mismatch it cannot see through.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// Global replacements: count while g_counting, always delegate to malloc.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  size = (size + a - 1) / a * a;  // aligned_alloc wants a multiple of a
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ssmst {
namespace {

/// Allocations performed by `fn`.
template <typename Fn>
std::uint64_t count_allocations(Fn&& fn) {
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_news.load(std::memory_order_relaxed);
}

TEST(AllocFree, SteadyStateVerifierRoundAllocatesNothing) {
  Rng rng(3);
  auto g = gen::random_connected(192, 96, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 1);
  ASSERT_FALSE(h.run(48).has_value());  // steady state, no false alarm

  const std::uint64_t allocs =
      count_allocations([&] {
        for (int r = 0; r < 32; ++r) h.sim().sync_round();
      });
  EXPECT_EQ(allocs, 0u) << "steady-state sync rounds must not allocate";
  EXPECT_FALSE(h.sim().first_alarm_time().has_value());
}

TEST(AllocFree, RoundsAfterMutableStateAccessAllocateNothing) {
  // A mutable state(v) access enables v's closed neighbourhood in the
  // activation queue; interleaving such accesses with sync rounds must
  // stay allocation-free too. Flipping nothing keeps behaviour identical.
  Rng rng(4);
  auto g = gen::random_connected(128, 64, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 2);
  ASSERT_FALSE(h.run(32).has_value());

  const std::uint64_t allocs = count_allocations([&] {
    for (int r = 0; r < 8; ++r) {
      (void)h.sim().state(0);
      h.sim().sync_round();
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "rounds after a mutable state access must not allocate";
}

TEST(AllocFree, ShardedSteadyStateRoundAllocatesNothing) {
  Rng rng(5);
  auto g = gen::random_connected(256, 128, rng);
  VerifierConfig cfg;
  cfg.threads = 4;
  VerifierHarness h(g, cfg, 3);
  ASSERT_FALSE(h.run(48).has_value());
  // One warm sharded round so the per-shard accounting vector reaches
  // capacity (a one-time setup cost, not a steady-state one).
  h.sim().sync_round();

  const std::uint64_t allocs =
      count_allocations([&] {
        for (int r = 0; r < 16; ++r) h.sim().sync_round();
      });
  EXPECT_EQ(allocs, 0u) << "sharded steady-state rounds must not allocate";
}

TEST(AllocFree, SyncRoundsAfterAsyncUnitAllocateNothing) {
  // async_unit steps the front buffer in place; the sync rounds that
  // follow it re-seed the back buffer from the front one and must stay
  // allocation-free.
  Rng rng(6);
  auto g = gen::random_connected(160, 80, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 5);
  ASSERT_FALSE(h.run(48).has_value());

  Rng daemon(7);
  h.sim().async_unit(daemon, DaemonOrder::kRoundRobin);
  ASSERT_FALSE(h.sim().first_alarm_time().has_value());

  const std::uint64_t allocs = count_allocations([&] {
    for (int r = 0; r < 16; ++r) h.sim().sync_round();
  });
  EXPECT_EQ(allocs, 0u) << "sync rounds after an async unit must not allocate";
  EXPECT_FALSE(h.sim().first_alarm_time().has_value());
}

TEST(AllocFree, SteadyStateAsyncUnitsAllocateNothing) {
  // The activation queue itself must stay off the allocator once its
  // buffers are warm: drains, dirty marking, discipline ordering and the
  // per-activation accounting all run in preallocated storage.
  Rng rng(8);
  auto g = gen::random_connected(128, 64, rng);
  VerifierConfig cfg;
  cfg.sync_mode = false;
  VerifierHarness h(g, cfg, 9);
  ASSERT_FALSE(h.run(64).has_value());  // steady state + warm queue buffers

  const std::uint64_t allocs = count_allocations([&] {
    ASSERT_FALSE(h.run(32).has_value());
  });
  EXPECT_EQ(allocs, 0u) << "steady-state async units must not allocate";
}

TEST(AllocFree, SteadyStateParallelAsyncUnitsAllocateNothing) {
  // The sharded drain adds conflict classification, epoch execution on the
  // pool and chunked accounting — all of which must run in scratch sized
  // once by the first parallel drain, with every pool closure inside
  // std::function's inline buffer. kParallel forces the
  // sharded path (the graph is below the kAuto cutover).
  Rng rng(10);
  auto g = gen::random_connected(192, 96, rng);
  VerifierConfig cfg;
  cfg.sync_mode = false;
  cfg.threads = 4;
  cfg.daemon = DaemonOrder::kRoundRobin;
  VerifierHarness h(g, cfg, 11);
  h.sim().set_async_drain(AsyncDrain::kParallel);
  // Steady state + warm parallel scratch (first drain sizes it).
  ASSERT_FALSE(h.run(64).has_value());

  const std::uint64_t deferrals = h.sim().stats().cross_shard_deferrals;
  const std::uint64_t allocs = count_allocations([&] {
    ASSERT_FALSE(h.run(32).has_value());
  });
  EXPECT_EQ(allocs, 0u)
      << "steady-state parallel async units must not allocate";
  // Prove the forced sharded path ran in the counted units: only a
  // parallel drain counts deferrals.
  EXPECT_GT(h.sim().stats().cross_shard_deferrals, deferrals);
}

TEST(AllocFree, WarmAuditAllocatesNothing) {
  // The invariant auditor (total-state fault model) is allowed to allocate
  // only its report: with a reused report whose suspects capacity is warm,
  // repeated audits — clean or violating — must stay off the allocator.
  Rng rng(12);
  auto g = gen::random_connected(128, 64, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 13);
  ASSERT_FALSE(h.run(48).has_value());

  AuditReport report;
  h.sim().audit_into(report);  // warm pass sizes scratch + suspects
  ASSERT_TRUE(report.ok());

  h.sim().aux_flip_enabled_bit(5);  // make the next audits report something
  const std::uint64_t allocs = count_allocations([&] {
    for (int i = 0; i < 16; ++i) h.sim().audit_into(report);
  });
  EXPECT_EQ(allocs, 0u) << "warm audits must not allocate";
  EXPECT_GE(report.enabled_not_queued, 1u);
  h.sim().aux_flip_enabled_bit(5);  // restore
}

TEST(AllocFree, WatchdogTripsInSteadyStateAllocateNothing) {
  // An armed watchdog audits into a reused member report and repairs with
  // fills and clears only — steady-state async units that trip it must
  // remain allocation-free (the acceptance bar: the audit may allocate
  // only its report, never inside sync_round/async_unit).
  Rng rng(14);
  auto g = gen::random_connected(128, 64, rng);
  VerifierConfig cfg;
  cfg.sync_mode = false;
  VerifierHarness h(g, cfg, 15);
  ASSERT_FALSE(h.run(64).has_value());

  h.sim().set_watchdog(/*budget_units=*/8);
  ASSERT_FALSE(h.run(32).has_value());  // warm trip path (wd_report_)
  ASSERT_GE(h.sim().stats().repairs, 1u);

  const std::uint64_t repairs0 = h.sim().stats().repairs;
  const std::uint64_t allocs = count_allocations([&] {
    ASSERT_FALSE(h.run(64).has_value());
  });
  EXPECT_EQ(allocs, 0u)
      << "watchdog-armed steady-state units must not allocate";
  EXPECT_GT(h.sim().stats().repairs, repairs0) << "trips must have fired";
}

TEST(AllocFree, ServiceSteadyStateDispatchAllocatesNothing) {
  // The fleet scheduler's steady-state contract (sim/service.hpp): once
  // every tenant is terminal, re-draining the slot table — the long-lived
  // service's idle heartbeat — is pool dispatch plus a branch per slot,
  // with ZERO heap allocations. The dispatch closure is a reused member
  // std::function capturing only `this`, so drain() itself stays off the
  // heap too.
  service::ServiceConfiguration cfg;
  cfg.threads(2).service_seed(31);
  service::VerificationService svc(cfg);
  for (std::size_t i = 0; i < 6; ++i) {
    service::TenantSpec spec;
    spec.n = 32;
    if (i == 2) spec.fault = service::TenantFault::kRegisterTamper;
    ASSERT_TRUE(svc.submit(spec));
  }
  svc.drain();  // cold pass: episodes run and allocate freely
  ASSERT_EQ(svc.pending(), 0u);
  const std::uint64_t allocs = count_allocations([&] {
    const auto& reports = svc.drain();
    ASSERT_EQ(reports.size(), 6u);
  });
  EXPECT_EQ(allocs, 0u)
      << "steady-state fleet dispatch must not touch the allocator";
}

TEST(AllocFree, RegistersAreTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<NodeLabels>);
  static_assert(std::is_trivially_copyable_v<VerifierState>);
  // Compact-header ceilings: the striped-arena layout keeps the label
  // header near 100 B (vs the 640 B padded inline block it replaced) and
  // the whole verifier register around 472 B (vs 1008 B). Growing past
  // these bounds means payload crept back into the header — take it to
  // the stripes instead.
  static_assert(sizeof(NodeLabels) <= 112);
  static_assert(sizeof(VerifierState) <= 512);
  SUCCEED();
}

}  // namespace
}  // namespace ssmst
