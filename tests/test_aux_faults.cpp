// Total-state fault model tests (sim/faults.hpp aux injectors,
// Simulation::audit(), and the bounded-staleness watchdog): the paper's
// adversary corrupts ALL memory, so the engine's own dirty bitmaps,
// pending queues, staleness stamps and label headers are fault surface
// too. These tests pin (a) that every injector's damage is
// visible to the auditor (or — for the consistent queue drop — provably
// invisible, the motivating gap), (b) the pinned missed-detection failure
// without the watchdog and bounded detection with it, and (c) the
// campaign-level must-detect property of the three aux classes.
//
// Two fixtures: the dense verifier harness runs in blanket re-enable mode
// (every node changes every unit, so the queue is never materialized) and
// exercises the stamp/register/watchdog surface; the sparse
// ResetProtocol sim quiesces, so seeding one node materializes a real
// activation queue for the queue-entry injectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "graph/generators.hpp"
#include "selfstab/reset.hpp"
#include "sim/campaign.hpp"
#include "sim/faults.hpp"
#include "sim/service.hpp"
#include "util/thread_pool.hpp"
#include "verify/metrology.hpp"

namespace ssmst {
namespace {

using campaign::CampaignClass;
using campaign::CampaignConfig;
using campaign::EpisodeResult;
using campaign::GraphFamily;

/// An async verifier harness driven into steady state (no alarm). Member
/// order keeps the graph alive until the harness is gone.
struct SteadyVerifier {
  std::unique_ptr<WeightedGraph> g;
  std::unique_ptr<VerifierHarness> h;

  explicit SteadyVerifier(NodeId n, std::uint64_t seed) {
    Rng rng(seed);
    g = std::make_unique<WeightedGraph>(gen::random_connected(n, n / 2, rng));
    VerifierConfig cfg;
    cfg.sync_mode = false;
    h = std::make_unique<VerifierHarness>(*g, cfg, seed + 1);
    EXPECT_FALSE(h->run(64).has_value());  // steady state, no false alarm
  }
  VerifierSim& sim() { return h->sim(); }
};

/// A quiescent ResetProtocol sim whose activation queue is REAL (sparse —
/// below the blanket cutover), the substrate for queue-entry injectors.
struct SparseResetSim {
  WeightedGraph g;
  ResetProtocol proto;
  std::unique_ptr<ThreadPool> pool;
  Simulation<ResetState> sim;
  Rng daemon{999};

  explicit SparseResetSim(NodeId n, std::uint64_t seed, unsigned threads = 1)
      : g([&] {
          Rng rng(seed);
          return gen::random_connected(n, n / 2, rng);
        }()),
        proto(g),
        pool(threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr),
        sim(g, proto, std::vector<ResetState>(n), pool.get()) {
    // Drain the construction blanket; default states never change, so one
    // unit reaches quiescence with all bookkeeping empty.
    sim.async_unit(daemon, DaemonOrder::kRandom);
    EXPECT_TRUE(sim.async_quiescent());
  }

  /// Seeds a reset at v: materializes a sparse queue holding exactly v's
  /// closed neighbourhood.
  void seed(NodeId v) {
    auto& s = sim.state(v);
    s.in_reset = true;
    s.seeded = true;
  }
};

// ------------------------------------------------------------ the auditor

TEST(AuxAudit, HealthyEngineAuditsClean) {
  SteadyVerifier f(48, 100);
  const AuditReport r = f.sim().audit();
  EXPECT_TRUE(r.ok()) << r.total_violations() << " violations";
  EXPECT_EQ(r.checked_nodes, 48u);
  EXPECT_EQ(f.sim().stats().audits, 1u);
  EXPECT_EQ(f.sim().stats().audit_violations, 0u);
  EXPECT_EQ(f.sim().stats().repairs, 0u);

  SparseResetSim s(48, 200);
  s.seed(7);
  EXPECT_TRUE(s.sim.audit().ok()) << "sparse queue state must audit clean";
}

TEST(AuxAudit, FlippedDirtyBitIsReported) {
  SparseResetSim f(48, 201);
  f.seed(7);
  const auto pending = f.sim.pending_nodes();
  ASSERT_FALSE(pending.empty());
  // Queued node, bit cleared: queued_not_enabled.
  f.sim.aux_flip_enabled_bit(pending[0]);
  {
    const AuditReport r = f.sim.audit();
    EXPECT_GE(r.queued_not_enabled, 1u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(f.sim.stats().audit_violations, r.total_violations());
    ASSERT_FALSE(r.suspects.empty());
    EXPECT_EQ(r.suspects[0], pending[0]);
  }
  f.sim.aux_flip_enabled_bit(pending[0]);  // restore
  // Unqueued node, bit set: enabled_not_queued.
  NodeId outside = 0;
  while (std::binary_search(pending.begin(), pending.end(), outside)) {
    ++outside;
  }
  f.sim.aux_flip_enabled_bit(outside);
  const AuditReport r = f.sim.audit();
  EXPECT_GE(r.enabled_not_queued, 1u);
  EXPECT_FALSE(r.ok());
}

TEST(AuxAudit, DanglingDropLeavesAuditableBit) {
  SparseResetSim f(48, 202);
  f.seed(7);
  const auto pending = f.sim.pending_nodes();
  ASSERT_GE(pending.size(), 2u);
  const std::vector<NodeId> victims = {pending[0], pending[1]};
  EXPECT_EQ(aux_drop_pending(f.sim, std::span<const NodeId>(victims),
                             /*clear_bits=*/false),
            2u);
  const AuditReport r = f.sim.audit();
  EXPECT_GE(r.enabled_not_queued, 2u);
  EXPECT_FALSE(r.ok());
}

TEST(AuxAudit, ConsistentDropIsInvisibleToTheAuditor) {
  // THE motivating gap: dropping the entry AND clearing the bit restores
  // every local invariant — no audit can see the starved node. This pin
  // documents why the watchdog's reseed must be unconditional.
  SparseResetSim f(48, 203);
  f.seed(7);
  const auto pending = f.sim.pending_nodes();
  ASSERT_FALSE(pending.empty());
  const std::vector<NodeId> victims = {pending[0]};
  EXPECT_EQ(aux_drop_pending(f.sim, std::span<const NodeId>(victims),
                             /*clear_bits=*/true),
            1u);
  const AuditReport r = f.sim.audit();
  EXPECT_TRUE(r.ok()) << "a consistent drop must be locally invisible";
}

TEST(AuxAudit, DuplicateQueueEntryIsReported) {
  SparseResetSim f(48, 204);
  f.seed(7);
  const auto pending = f.sim.pending_nodes();
  ASSERT_FALSE(pending.empty());
  const std::vector<NodeId> victims = {pending.back()};
  EXPECT_EQ(aux_duplicate_pending(f.sim, std::span<const NodeId>(victims)),
            1u);
  const AuditReport r = f.sim.audit();
  EXPECT_GE(r.duplicate_queue_entries, 1u);
  EXPECT_FALSE(r.ok());
}

TEST(AuxAudit, SkewedStampsAreReported) {
  SteadyVerifier f(48, 101);
  const std::vector<NodeId> victims = {3, 7, 11};
  const auto stamp = skewed_stamp(f.sim().time(), 1u << 20);
  aux_skew_stamps(f.sim(), std::span<const NodeId>(victims), stamp);
  EXPECT_EQ(f.sim().aux_stamp(3), stamp);
  const AuditReport r = f.sim().audit();
  EXPECT_GE(r.stamp_violations, 3u);
  EXPECT_FALSE(r.ok());
}

TEST(AuxAudit, TruncatedLabelHeaderIsReported) {
  SteadyVerifier f(48, 103);
  const std::vector<NodeId> victims = {5};
  aux_silent_mutate(f.sim(), std::span<const NodeId>(victims),
                    [](NodeId, VerifierState& s) {
                      const auto len = s.labels.string_length();
                      ASSERT_GT(len, 0u);
                      s.labels.set_string_length(
                          static_cast<std::uint32_t>(len - 1));
                    });
  const AuditReport r = f.sim().audit();
  EXPECT_GE(r.register_violations, 1u);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.suspects.empty());
  EXPECT_TRUE(std::find(r.suspects.begin(), r.suspects.end(), NodeId{5}) !=
              r.suspects.end());
}

/// Duplicate and drop injections land in the one pending queue of a
/// `threads`-lane engine, and the audit sees them the same way at every
/// width.
void ExpectQueueLayoutAudits(unsigned threads) {
  SparseResetSim f(64, 205, threads);
  f.sim.set_async_drain(AsyncDrain::kParallel);
  f.seed(9);
  ASSERT_TRUE(f.sim.audit().ok());
  const auto pending = f.sim.pending_nodes();
  ASSERT_GE(pending.size(), 2u);
  const std::vector<NodeId> dup = {pending.front()};
  const std::vector<NodeId> drop = {pending.back()};
  EXPECT_EQ(aux_duplicate_pending(f.sim, std::span<const NodeId>(dup)), 1u);
  EXPECT_EQ(aux_drop_pending(f.sim, std::span<const NodeId>(drop),
                             /*clear_bits=*/false),
            1u);
  const AuditReport r = f.sim.audit();
  EXPECT_GE(r.duplicate_queue_entries, 1u);
  EXPECT_GE(r.enabled_not_queued, 1u);
}

TEST(AuxAudit, ShardedQueueLayoutAuditsTheSameInvariants) {
  // The pending queue does not depend on the shard layout, so the same
  // audit must hold at every width.
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectQueueLayoutAudits(threads);
  }
}

TEST(AuxAudit, ScrambleIsSeedDeterministic) {
  // The seeded scramble injector must be a pure function of the rng
  // stream: same seed, same victims -> identical audit outcome.
  AuditReport reports[2];
  for (int run = 0; run < 2; ++run) {
    SparseResetSim f(48, 206);
    f.seed(11);
    const auto pending = f.sim.pending_nodes();
    ASSERT_GE(pending.size(), 3u);
    const std::vector<NodeId> victims(pending.begin(), pending.begin() + 3);
    Rng rng(77);
    aux_scramble_queue(f.sim, std::span<const NodeId>(victims), rng);
    reports[run] = f.sim.audit();
  }
  EXPECT_EQ(reports[0].total_violations(), reports[1].total_violations());
  EXPECT_EQ(reports[0].suspects, reports[1].suspects);
}

// ------------------------------------------------- watchdog: miss vs heal

TEST(Watchdog, AuxQueueDropMissesDetectionWithoutWatchdog) {
  // The pinned motivating failure: a load-bearing register lie whose
  // pending activations are consistently wiped is NEVER detected — the
  // engine is quiescent, every local invariant holds, and no node will
  // ever look at the corrupted piece again.
  SteadyVerifier f(32, 110);
  const auto victim = f.h->tamper_loadbearing_piece(/*salt=*/3);
  ASSERT_TRUE(victim.has_value());
  ASSERT_GT(f.sim().aux_suppress_pending(), 0u);
  ASSERT_TRUE(f.sim().async_quiescent());
  ASSERT_TRUE(f.sim().audit().ok()) << "the drop must be locally invisible";

  const auto acts0 = f.sim().stats().activations;
  EXPECT_FALSE(f.h->run(20000).has_value())
      << "watchdog-disabled aux-queue-drop must miss detection indefinitely";
  EXPECT_EQ(f.sim().stats().activations, acts0)
      << "a starved engine must not activate anything";
}

TEST(Watchdog, AuxQueueDropDetectsWithinBudgetWithWatchdog) {
  // Same fault, watchdog armed: the unconditional reseed at budget expiry
  // re-activates every node, so the lie is re-examined and the protocol
  // alarms within (budget + detection bound).
  SteadyVerifier f(32, 110);  // identical setup to the miss
  const auto victim = f.h->tamper_loadbearing_piece(/*salt=*/3);
  ASSERT_TRUE(victim.has_value());
  ASSERT_GT(f.sim().aux_suppress_pending(), 0u);

  const std::uint64_t budget = watchdog_budget_for(32);
  f.sim().set_watchdog(budget);
  const std::uint64_t t0 = f.sim().time();
  const auto first = f.h->run(4 * budget + 8000);
  ASSERT_TRUE(first.has_value()) << "armed watchdog must surface the fault";
  EXPECT_GE(f.sim().stats().repairs, 1u);
  EXPECT_GE(f.sim().stats().audits, 1u);
  // Latency bound: one full watchdog window to trip, then the O(log^2 n)
  // detection path with generous engine margin.
  EXPECT_LE(*first - t0, 3 * budget + 8000);
}

TEST(Watchdog, RepairRestoresQueueAndStampInvariants) {
  // Faults the round-0 reseed CAN rewrite (queue bookkeeping, stamps) are
  // gone after one trip: the engine audits clean again. Injected on a
  // QUIESCENT engine so the damage persists until the trip sees it —
  // pending entries would be drained (and thereby healed) by the very
  // units that advance the clock toward the trip.
  SparseResetSim f(48, 207);
  f.sim.aux_flip_enabled_bit(5);  // dangling dirty bit, nothing queued
  aux_skew_stamps(f.sim, std::array<NodeId, 1>{3},
                  skewed_stamp(f.sim.time(), 1000));
  {
    const AuditReport r = f.sim.audit();
    ASSERT_FALSE(r.ok());
    EXPECT_GE(r.enabled_not_queued, 1u);
    EXPECT_GE(r.stamp_violations, 1u);
  }

  f.sim.set_watchdog(/*budget_units=*/4);
  for (int i = 0; i < 6; ++i) {
    f.sim.async_unit(f.daemon, DaemonOrder::kRandom);
  }
  ASSERT_GE(f.sim.stats().repairs, 1u);
  EXPECT_FALSE(f.sim.last_watchdog_report().ok())
      << "the trip audit must have seen the violations";
  EXPECT_TRUE(f.sim.audit().ok()) << "repair must restore the aux invariants";
}

TEST(Watchdog, PersistentRegisterFaultFailsEveryTrip) {
  // A corrupted label header lives in state the reseed cannot rewrite:
  // every trip repairs (reseeds), and every trip's audit still reports
  // the header and names its node.
  SteadyVerifier f(32, 112);
  auto& sim = f.sim();
  const std::vector<NodeId> victims = {9};
  aux_silent_mutate(sim, std::span<const NodeId>(victims),
                    [](NodeId, VerifierState& s) {
                      s.labels.set_string_length(0);
                    });
  sim.set_watchdog(/*budget_units=*/8);
  // Drive units directly: the truncation may raise (sticky) alarms, and
  // VerifierHarness::run would return at the first one.
  Rng daemon(555);
  std::uint64_t trips = 0;
  for (int i = 0; i < 40; ++i) {
    sim.async_unit(daemon, DaemonOrder::kRandom);
    if (sim.stats().repairs == trips) continue;
    trips = sim.stats().repairs;
    const AuditReport& rep = sim.last_watchdog_report();
    EXPECT_GE(rep.register_violations, 1u) << "trip " << trips;
    EXPECT_NE(std::find(rep.suspects.begin(), rep.suspects.end(), NodeId{9}),
              rep.suspects.end())
        << "trip " << trips;
  }
  EXPECT_GE(trips, 3u);
}

TEST(Watchdog, DisarmedWatchdogCostsNoAuditsOrRepairs) {
  SteadyVerifier f(32, 113);
  EXPECT_FALSE(f.h->run(256).has_value());
  EXPECT_EQ(f.sim().stats().audits, 0u);
  EXPECT_EQ(f.sim().stats().repairs, 0u);
}

// ----------------------------------------------- campaign: the 3 classes

TEST(AuxCampaign, MustDetectAcrossFiftyOracleCheckedEpisodes) {
  // >= 50 oracle-checked episodes across the three total-state classes:
  // with the (auto-armed) watchdog every non-skipped episode must detect,
  // within the episode budget, and the oracle vetted every instance.
  constexpr CampaignClass kAux[] = {
      CampaignClass::kAuxQueueDrop,
      CampaignClass::kStampSkew,
      CampaignClass::kArenaTruncate,
  };
  constexpr GraphFamily kFams[] = {
      GraphFamily::kRandom, GraphFamily::kGrid, GraphFamily::kExpander};
  std::size_t episodes = 0, detected = 0;
  for (CampaignClass cls : kAux) {
    for (GraphFamily fam : kFams) {
      CampaignConfig cfg;
      cfg.cls = cls;
      cfg.family = fam;
      cfg.n = 32;
      cfg.faults = 3;
      for (std::size_t i = 0; i < 6; ++i) {
        const std::uint64_t seed = campaign::episode_seed(0xAA11, i);
        const EpisodeResult r = campaign::run_episode(cfg, seed);
        ++episodes;
        ASSERT_TRUE(r.ok || r.skipped)
            << "class=" << campaign::campaign_name(cls)
            << " family=" << campaign::family_name(fam) << " seed=" << seed
            << ": " << r.error;
        if (r.skipped) continue;
        EXPECT_TRUE(r.detection_expected);
        ASSERT_TRUE(r.detected)
            << campaign::campaign_name(cls) << " seed=" << seed;
        ASSERT_TRUE(r.distance.has_value());
        ++detected;
      }
    }
  }
  EXPECT_GE(episodes, 50u);
  EXPECT_GE(detected, 40u) << "aux classes must rarely skip";
}

TEST(AuxCampaign, WatchdogOffRecordsTheMissedDetectionBaseline) {
  // The same aux-queue-drop episodes with the watchdog forced off must
  // record detected=false (not fail): the missed-detection baseline the
  // tentpole exists to close.
  CampaignConfig cfg;
  cfg.cls = CampaignClass::kAuxQueueDrop;
  cfg.family = GraphFamily::kRandom;
  cfg.n = 32;
  cfg.watchdog = false;
  std::size_t ran = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const EpisodeResult r =
        campaign::run_episode(cfg, campaign::episode_seed(0xAA22, i));
    ASSERT_TRUE(r.ok || r.skipped) << r.error;
    if (r.skipped) continue;
    EXPECT_FALSE(r.detection_expected);
    EXPECT_FALSE(r.detected)
        << "seed " << r.seed << ": a starved drop must stay undetected";
    ++ran;
  }
  EXPECT_GE(ran, 1u);
}

TEST(AuxCampaign, EpisodesReplayBitIdentically) {
  for (CampaignClass cls :
       {CampaignClass::kAuxQueueDrop, CampaignClass::kStampSkew,
        CampaignClass::kArenaTruncate}) {
    CampaignConfig cfg;
    cfg.cls = cls;
    cfg.n = 32;
    const std::uint64_t seed = campaign::episode_seed(0xAA33, 2);
    const EpisodeResult a = campaign::run_episode(cfg, seed);
    const EpisodeResult b = campaign::run_episode(cfg, seed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.detection_units, b.detection_units);
    EXPECT_EQ(a.distance, b.distance);
  }
}

TEST(AuxCampaign, ClassAndFamilyNamesRoundTripThroughTheParsers) {
  for (CampaignClass c : campaign::kAllClasses) {
    const auto parsed = campaign::parse_class(campaign::campaign_name(c));
    ASSERT_TRUE(parsed.has_value()) << campaign::campaign_name(c);
    EXPECT_EQ(*parsed, c);
  }
  for (GraphFamily f : campaign::kAllFamilies) {
    const auto parsed = campaign::parse_family(campaign::family_name(f));
    ASSERT_TRUE(parsed.has_value()) << campaign::family_name(f);
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_FALSE(campaign::parse_class("no_such_class").has_value());
  EXPECT_FALSE(campaign::parse_family("no_such_family").has_value());
}

TEST(AuxFaults, CorruptTenantDoesNotPerturbItsNeighbor) {
  // Two tenants through the fleet service (sim/service.hpp): tenant A is
  // seeded with the aux-queue-drop class (piece lie + consistent pending
  // wipe — the watchdog-only corner), tenant B is healthy. A's corruption,
  // detection and reseed repair must be invisible to B: B's report is
  // bit-identical to running B alone.
  service::ServiceConfiguration cfg;
  cfg.threads(2).service_seed(4242);
  service::VerificationService svc(cfg);
  service::TenantSpec a;
  a.n = 48;
  a.fault = service::TenantFault::kAuxQueueDrop;
  service::TenantSpec b;
  b.n = 48;
  ASSERT_TRUE(svc.submit(a));
  ASSERT_TRUE(svc.submit(b));
  const auto& reports = svc.drain();
  ASSERT_EQ(reports.size(), 2u);

  EXPECT_EQ(reports[0].outcome, service::TenantOutcome::kRepaired);
  EXPECT_TRUE(reports[0].detected);
  EXPECT_GE(reports[0].repairs, 1u);

  EXPECT_EQ(reports[1].outcome, service::TenantOutcome::kHealthy);
  const service::TenantReport solo =
      service::VerificationService::run_solo(cfg, b, 1);
  EXPECT_TRUE(service::deterministic_equal(reports[1], solo));
}

}  // namespace
}  // namespace ssmst
