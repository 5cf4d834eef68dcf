// Queue-driven async scheduling vs the classic full-sweep daemon.
//
// The activation queue drains only nodes whose closed neighbourhood
// changed since their last activation; every skipped activation of a
// deterministic protocol is provably a no-op, so the queue must reproduce
// the classic every-node-every-unit daemon exactly: same per-unit
// registers where the drain order provably coincides (deterministic
// disciplines), same quiescence point, same detection verdict and same
// alarm epoch — while scheduling far fewer activations once regions
// quiesce. The classic daemon is the same engine driving the FullSweep
// adapter (tests/full_sweep.hpp). This suite pins the equivalence for the
// train verifier, the KKP baseline and the transformer's two other async
// phases (the reset wave and synchronized SYNC_MST) on random / star /
// path topologies, plus the weakly-fair no-starvation guarantee and the
// sharded parallel drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <tuple>

#include "full_sweep.hpp"
#include "graph/generators.hpp"
#include "mstalgo/sync_mst.hpp"
#include "selfstab/baselines.hpp"
#include "selfstab/reset.hpp"
#include "selfstab/synchronizer.hpp"
#include "sim/faults.hpp"
#include "verify/metrology.hpp"

namespace ssmst {
namespace {

std::map<std::string, WeightedGraph> small_suite(NodeId n,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, WeightedGraph> out;
  out.emplace("random", gen::random_connected(n, n / 2, rng));
  out.emplace("star", gen::star(n, rng));
  out.emplace("path", gen::path(n, rng));
  return out;
}

// ---- VerifierProtocol: queue == full sweep, per unit -----------------------

// Live verifier nodes advance a timer every activation, so they stay
// enabled and the queue drains the full live set each unit — for the
// deterministic disciplines in the same relative order as the full
// permutation. Registers must therefore match unit for unit, through
// quiet operation, a fault, detection and the post-alarm regime (alarmed
// nodes quiesce in the queue but are frozen no-ops under the full sweep).
TEST(AsyncQueueEquivalence, VerifierMatchesLegacyPerUnit) {
  for (const auto& [name, g] : small_suite(36, 40)) {
    for (DaemonOrder order :
         {DaemonOrder::kRoundRobin, DaemonOrder::kReverse,
          DaemonOrder::kAdversarial}) {
      VerifierConfig cfg;
      cfg.sync_mode = false;
      auto marker = make_labels(g);
      VerifierProtocol pa(g, cfg), pb(g, cfg);
      FullSweep<VerifierState> sweep_b(pb);
      VerifierSim a(g, pa, pa.initial_states(marker));
      VerifierSim b(g, sweep_b, pb.initial_states(marker));
      Rng da(7), db(7);
      const std::string tag = name + "/order " +
                              std::to_string(static_cast<int>(order));

      auto units_equal = [&](int count, bool stop_on_alarm) {
        for (int u = 0; u < count; ++u) {
          a.async_unit(da, order);
          b.async_unit(db, order);
          for (NodeId v = 0; v < g.n(); ++v) {
            ASSERT_TRUE(a.cstate(v) == b.cstate(v))
                << tag << " unit " << u << " node " << v;
          }
          ASSERT_EQ(a.first_alarm_time(), b.first_alarm_time())
              << tag << " unit " << u;
          if (stop_on_alarm && a.first_alarm_time()) return;
        }
      };

      units_equal(50, /*stop_on_alarm=*/false);
      ASSERT_FALSE(a.first_alarm_time().has_value()) << tag;

      // Identical fault in both copies; the queue wakes one
      // neighbourhood, the full sweep keeps activating everyone.
      const NodeId victim = g.n() / 2;
      a.state(victim).labels.subtree_count += 1;
      b.state(victim).labels.subtree_count += 1;
      units_equal(4000, /*stop_on_alarm=*/true);
      ASSERT_TRUE(a.first_alarm_time().has_value()) << tag;
      EXPECT_EQ(a.first_alarm_time(), b.first_alarm_time()) << tag;
      EXPECT_EQ(a.alarmed_nodes(), b.alarmed_nodes()) << tag;
      // Same schedule, strictly less daemon work: alarmed nodes have
      // quiesced in the queue.
      EXPECT_LE(a.stats().activations, b.stats().activations) << tag;
    }
  }
}

// kRandom consumes daemon randomness per shuffled element, so the two
// engines draw identically exactly while the drains coincide — which they
// do up to and including the unit of the first alarm. Verdict and alarm
// epoch are pinned; afterwards the schedules are both legal weakly fair
// daemons and may diverge.
TEST(AsyncQueueEquivalence, VerifierRandomOrderSameAlarmEpoch) {
  for (const auto& [name, g] : small_suite(32, 41)) {
    VerifierConfig cfg;
    cfg.sync_mode = false;
    auto marker = make_labels(g);
    VerifierProtocol pa(g, cfg), pb(g, cfg);
    FullSweep<VerifierState> sweep_b(pb);
    VerifierSim a(g, pa, pa.initial_states(marker));
    VerifierSim b(g, sweep_b, pb.initial_states(marker));
    Rng da(9), db(9);
    for (int u = 0; u < 50; ++u) {
      a.async_unit(da);
      b.async_unit(db);
    }
    ASSERT_FALSE(a.first_alarm_time().has_value()) << name;
    ASSERT_FALSE(b.first_alarm_time().has_value()) << name;
    const NodeId victim = g.n() / 3;
    a.state(victim).labels.subtree_count += 1;
    b.state(victim).labels.subtree_count += 1;
    for (int u = 0; u < 4000 && !a.first_alarm_time(); ++u) {
      a.async_unit(da);
      b.async_unit(db);
      ASSERT_EQ(a.first_alarm_time(), b.first_alarm_time())
          << name << " unit " << u;
    }
    EXPECT_TRUE(a.first_alarm_time().has_value()) << name;
    EXPECT_EQ(a.first_alarm_time(), b.first_alarm_time()) << name;
  }
}

// ---- KKP baseline: the sparse post-stabilization case ----------------------

// A clean KKP instance is fully quiescent after one unit. A single fault
// wakes one closed neighbourhood; detection verdict, alarm epoch and the
// alarmed set must match the full sweep while the queue schedules a
// vanishing fraction of its activations.
TEST(AsyncQueueEquivalence, KkpSparseFaultSameVerdictFarFewerActivations) {
  for (const auto& [name, g] : small_suite(40, 42)) {
    auto marker = make_labels(g);
    KkpVerifierProtocol pa(g), pb(g);
    FullSweep<KkpState> sweep_b(pb);
    Simulation<KkpState> a(g, pa, pa.initial_states(marker));
    Simulation<KkpState> b(g, sweep_b, pb.initial_states(marker));
    Rng da(11), db(11);
    for (int u = 0; u < 8; ++u) {
      a.async_unit(da, DaemonOrder::kRoundRobin);
      b.async_unit(db, DaemonOrder::kRoundRobin);
    }
    ASSERT_TRUE(a.async_quiescent()) << name;
    ASSERT_FALSE(a.first_alarm_time().has_value()) << name;
    const std::uint64_t quiescent_acts = a.stats().activations;
    EXPECT_EQ(quiescent_acts, std::uint64_t{g.n()}) << name;  // unit 0 only

    // Identical injection through both register surfaces: the
    // simulation-aware overload dirties only the victim's neighbourhood.
    Rng fa(13), fb(13);
    auto va = inject_faults<KkpState>(pa, a, 1, fa);
    auto vb = inject_faults<KkpState>(pb, b.states(), 1, fb);
    ASSERT_EQ(va, vb) << name;

    for (int u = 0; u < 8; ++u) {
      a.async_unit(da, DaemonOrder::kRoundRobin);
      b.async_unit(db, DaemonOrder::kRoundRobin);
      ASSERT_EQ(a.first_alarm_time(), b.first_alarm_time())
          << name << " unit " << u;
    }
    EXPECT_EQ(a.first_alarm_time().has_value(),
              b.first_alarm_time().has_value())
        << name;
    EXPECT_EQ(a.alarmed_nodes(), b.alarmed_nodes()) << name;
    // The queue paid O(touched neighbourhoods) for the whole post-fault
    // episode (a few wake-up rings); the full sweep paid n every unit.
    EXPECT_LT(a.stats().activations - quiescent_acts,
              std::uint64_t{4 * g.n()})
        << name;
    EXPECT_EQ(b.stats().activations, std::uint64_t{16 * g.n()}) << name;
  }
}

// ---- The transformer's other async phases against the full sweep ---------

// The reset wave from a few seed sets, under the deterministic
// disciplines. Unlike the verifier's, the wave's drains go partial, and
// then the two daemons differ by design: the full sweep steps a node after
// a neighbour changed earlier in the same unit, the queue one unit later.
// The wave is monotone (in_reset and settled only ever turn on, and turn
// on more readily when more neighbours are in reset). Under a discipline
// that keeps the same relative order on both sides (kRoundRobin, kReverse)
// the queue's registers are therefore dominated by the full sweep's after
// every unit, and the queue settles no earlier. Under every deterministic
// discipline both settle to the same configuration. (Not pinned under
// kRandom: once drains are partial, the two daemons shuffle sets of
// different sizes and so draw different daemon randomness.)
TEST(AsyncQueueEquivalence, ResetWaveSettlesLikeFullSweep) {
  for (const auto& [name, g] : small_suite(36, 43)) {
    const NodeId n = g.n();
    const std::vector<std::vector<NodeId>> seed_sets = {
        {0}, {n / 2}, {n / 5, 4 * n / 5}};
    for (DaemonOrder order :
         {DaemonOrder::kRoundRobin, DaemonOrder::kReverse,
          DaemonOrder::kAdversarial}) {
      const bool same_relative_order = order != DaemonOrder::kAdversarial;
      for (const auto& seeds : seed_sets) {
        std::vector<ResetState> init(n);
        for (NodeId s : seeds) init[s] = {true, true, false};
        ResetProtocol pa(g), pb(g);
        FullSweep<ResetState> sweep_b(pb);
        Simulation<ResetState> a(g, pa, init);
        Simulation<ResetState> b(g, sweep_b, init);
        Rng da(15), db(15);
        const std::string tag = name + "/order " +
                                std::to_string(static_cast<int>(order)) +
                                "/seed " + std::to_string(seeds[0]);
        auto settled = [&](const Simulation<ResetState>& sim) {
          for (NodeId v = 0; v < n; ++v) {
            if (!sim.cstate(v).settled) return false;
          }
          return true;
        };
        for (NodeId u = 0; u < 4 * n && !(settled(a) && settled(b)); ++u) {
          if (!settled(a)) a.async_unit(da, order);
          if (!settled(b)) b.async_unit(db, order);
          if (!same_relative_order) continue;
          for (NodeId v = 0; v < n; ++v) {
            const ResetState& x = a.cstate(v);
            const ResetState& y = b.cstate(v);
            ASSERT_TRUE((!x.in_reset || y.in_reset) &&
                        (!x.settled || y.settled))
                << tag << " unit " << u << " node " << v;
          }
        }
        ASSERT_TRUE(settled(a)) << tag;
        ASSERT_TRUE(settled(b)) << tag;
        for (NodeId v = 0; v < n; ++v) {
          EXPECT_EQ(a.cstate(v).seeded, b.cstate(v).seeded) << tag;
          EXPECT_TRUE(a.cstate(v).in_reset && b.cstate(v).in_reset) << tag;
        }
        if (same_relative_order) {
          EXPECT_LE(b.time(), a.time()) << tag;
        }
      }
    }
  }
}

// The synchronized SYNC_MST rebuild, as the transformer runs it: the
// two-slot synchronizer over SYNC_MST from the initial singleton
// registers, until every node is done. All pulses start equal, so every
// node advances its pulse in every unit: each unit is a full drain on both
// sides, and registers and activations must match unit for unit under
// the deterministic disciplines.
TEST(AsyncQueueEquivalence, SynchronizedSyncMstMatchesFullSweepPerUnit) {
  using SyncState = SynchronizedState<SyncMstState>;
  for (const auto& [name, g] : small_suite(24, 47)) {
    for (DaemonOrder order :
         {DaemonOrder::kRoundRobin, DaemonOrder::kReverse,
          DaemonOrder::kAdversarial}) {
      SyncMstProtocol inner_a(g), inner_b(g);
      Synchronizer<SyncMstState> pa(g, inner_a), pb(g, inner_b);
      FullSweep<SyncState> sweep_b(pb);
      const auto init = synchronized_initial_states(inner_a.initial_states());
      Simulation<SyncState> a(g, pa, init);
      Simulation<SyncState> b(g, sweep_b, init);
      Rng da(16), db(16);
      const std::string tag = name + "/order " +
                              std::to_string(static_cast<int>(order));
      auto done = [&](const Simulation<SyncState>& sim) {
        for (NodeId v = 0; v < g.n(); ++v) {
          if (!sim.cstate(v).cur.done) return false;
        }
        return true;
      };
      const std::uint64_t bound = 10ULL * (44ULL * g.n() + 64) + 64;
      while (!done(a) && a.time() <= bound) {
        a.async_unit(da, order);
        b.async_unit(db, order);
        for (NodeId v = 0; v < g.n(); ++v) {
          const SyncState& x = a.cstate(v);
          const SyncState& y = b.cstate(v);
          ASSERT_TRUE(x.pulse == y.pulse && x.cur == y.cur &&
                      x.prev == y.prev)
              << tag << " unit " << a.time() << " node " << v;
        }
      }
      EXPECT_TRUE(done(a)) << tag;
      EXPECT_TRUE(done(b)) << tag;
      EXPECT_EQ(a.stats().activations, b.stats().activations) << tag;
      EXPECT_EQ(a.stats().peak_bits, b.stats().peak_bits) << tag;
    }
  }
}

// ---- Weak fairness ---------------------------------------------------------

/// One hot node keeps changing forever; a quiet dependent chain hangs off
/// it. Weak fairness demands every enabled node be activated at most one
/// unit after becoming enabled — the hot node must not starve the chain.
struct LagState {
  std::uint64_t value = 0;
  bool hot = false;
};

class LagProtocol final : public Protocol<LagState> {
 public:
  void step(NodeId, LagState& self, const NeighborReader<LagState>& nbr,
            std::uint64_t) override {
    if (self.hot) {
      ++self.value;  // a permanent source of activity
      return;
    }
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      self.value = std::max(self.value, nbr.at_port(p).value);
    }
  }
  std::size_t state_bits(const LagState&, NodeId) const override {
    return 64;
  }
};

TEST(AsyncQueueFairness, HotNodeDoesNotStarveTheChain) {
  Rng rng(50);
  auto g = gen::path(6, rng);
  LagProtocol proto;
  std::vector<LagState> init(g.n());
  init[0].hot = true;
  Simulation<LagState> sim(g, proto, init);
  Rng daemon(51);
  // kReverse drains descending, so in every unit the chain reads its
  // predecessor's value from *before* that predecessor's step — the value
  // moves exactly one hop per unit and any skipped activation would show
  // up as extra lag at the tail.
  const int units = 64;
  for (int u = 0; u < units; ++u) sim.async_unit(daemon, DaemonOrder::kReverse);
  const std::uint64_t head = sim.cstate(0).value;
  EXPECT_EQ(head, std::uint64_t{units});  // hot node ran every unit
  for (NodeId v = 1; v < g.n(); ++v) {
    // Node v lags the source by exactly its distance: it was activated in
    // every unit in which it was enabled, never later than one unit after
    // its neighbour changed.
    EXPECT_EQ(sim.cstate(v).value, head - v) << "node " << v;
  }
  // And everyone stayed permanently enabled: n activations per unit after
  // the wave reached the tail.
  EXPECT_GE(sim.stats().activations,
            static_cast<std::uint64_t>(units - 6) * g.n());
}

// KkpState carries heap-backed labels and defines no operator==; the
// sharded-drain parity tests compare registers field by field.
bool kkp_equal(const KkpState& x, const KkpState& y) {
  return x.parent_port == y.parent_port && x.alarm == y.alarm &&
         x.labels.base == y.labels.base &&
         x.labels.pieces == y.labels.pieces;
}

// ---- Sharded parallel drains -----------------------------------------------
//
// The sharded-drain contract (sim/simulation.hpp): with a pool attached,
// async_unit classifies the disciplined drain into conflict epochs and
// steps each epoch concurrently. The result must be bit-identical to the
// sequential drain — registers, alarms, schedule and stats — for every
// daemon discipline at every thread count, because the epoch structure is
// a function of the discipline order and the graph alone.

// Parallel engine == sequential engine, unit for unit, for every
// discipline (including kRandom: both sides are queue engines with
// identical enabled sets, so they consume daemon randomness identically
// forever) across 1/2/4/7 threads. AsyncDrain::kParallel forces the
// sharded path even on these small graphs so real cross-thread stepping
// is exercised (and seen by TSan).
TEST(ShardedDrain, ParallelMatchesSequentialPerUnit) {
  for (const auto& [name, g] : small_suite(36, 44)) {
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
      for (DaemonOrder order :
           {DaemonOrder::kRandom, DaemonOrder::kRoundRobin,
            DaemonOrder::kReverse, DaemonOrder::kAdversarial}) {
        VerifierConfig cfg;
        cfg.sync_mode = false;
        auto marker = make_labels(g);
        VerifierProtocol pa(g, cfg), pb(g, cfg);
        VerifierSim a(g, pa, pa.initial_states(marker));
        ThreadPool pool(threads);
        VerifierSim b(g, pb, pb.initial_states(marker), &pool);
        b.set_async_drain(AsyncDrain::kParallel);
        Rng da(7), db(7);
        const std::string tag = name + "/t" + std::to_string(threads) +
                                "/order " +
                                std::to_string(static_cast<int>(order));

        auto units_equal = [&](int count, bool stop_on_alarm) {
          for (int u = 0; u < count; ++u) {
            a.async_unit(da, order);
            b.async_unit(db, order);
            for (NodeId v = 0; v < g.n(); ++v) {
              ASSERT_TRUE(a.cstate(v) == b.cstate(v))
                  << tag << " unit " << u << " node " << v;
            }
            ASSERT_EQ(a.first_alarm_time(), b.first_alarm_time())
                << tag << " unit " << u;
            if (stop_on_alarm && a.first_alarm_time()) return;
          }
        };

        units_equal(20, /*stop_on_alarm=*/false);
        const NodeId victim = g.n() / 2;
        a.state(victim).labels.subtree_count += 1;
        b.state(victim).labels.subtree_count += 1;
        units_equal(4000, /*stop_on_alarm=*/true);
        ASSERT_TRUE(a.first_alarm_time().has_value()) << tag;

        // Same scheduling decisions, same work accounting.
        EXPECT_EQ(a.stats().units, b.stats().units) << tag;
        EXPECT_EQ(a.stats().activations, b.stats().activations) << tag;
        EXPECT_EQ(a.stats().effective_steps, b.stats().effective_steps)
            << tag;
        EXPECT_EQ(a.stats().peak_bits, b.stats().peak_bits) << tag;
        EXPECT_EQ(a.alarmed_nodes(), b.alarmed_nodes()) << tag;
        if (threads > 1) {
          // Deferrals are the non-epoch-0 part of the drains: present on
          // the star (every leaf conflicts with the hub in a full drain),
          // and never exceeding total activations.
          EXPECT_LE(b.stats().cross_shard_deferrals, b.stats().activations)
              << tag;
          if (name == "star") {
            EXPECT_GT(b.stats().cross_shard_deferrals, 0u) << tag;
          }
        }
      }
    }
  }
}

// A register mutation between units — a fault — must re-enable its closed
// neighbourhood on a sharded engine exactly as in the sequential engine:
// same wake-up, same verdict, same alarmed set, same activation count.
// The parallel side injects through the batch span overload, the
// sequential side through per-victim state(v) corruption, so this also
// pins that the one-pass batch marking produces the identical schedule.
TEST(ShardedDrain, KkpVerdictParityWithBatchInjection) {
  for (const auto& [name, g] : small_suite(40, 45)) {
    auto marker = make_labels(g);
    KkpVerifierProtocol pa(g), pb(g);
    Simulation<KkpState> a(g, pa, pa.initial_states(marker));
    ThreadPool pool(4);
    Simulation<KkpState> b(g, pb, pb.initial_states(marker), &pool);
    b.set_async_drain(AsyncDrain::kParallel);
    Rng da(11), db(11);
    for (int u = 0; u < 8; ++u) {
      a.async_unit(da, DaemonOrder::kRoundRobin);
      b.async_unit(db, DaemonOrder::kRoundRobin);
    }
    ASSERT_TRUE(a.async_quiescent()) << name;
    ASSERT_TRUE(b.async_quiescent()) << name;

    // Same victims, same corruption draws, different injection surfaces.
    Rng fa(17), fb(17);
    auto va = pick_fault_nodes(g.n(), 5, fa);
    auto vb = pick_fault_nodes(g.n(), 5, fb);
    ASSERT_EQ(va, vb) << name;
    for (NodeId v : va) pa.corrupt(a.state(v), v, fa);
    inject_faults<KkpState>(pb, b, std::span<const NodeId>(vb), fb);
    ASSERT_FALSE(a.async_quiescent()) << name;
    ASSERT_FALSE(b.async_quiescent()) << name;

    for (int u = 0; u < 8; ++u) {
      a.async_unit(da, DaemonOrder::kRoundRobin);
      b.async_unit(db, DaemonOrder::kRoundRobin);
      for (NodeId v = 0; v < g.n(); ++v) {
        ASSERT_TRUE(kkp_equal(a.cstate(v), b.cstate(v)))
            << name << " unit " << u << " node " << v;
      }
    }
    EXPECT_EQ(a.first_alarm_time(), b.first_alarm_time()) << name;
    EXPECT_EQ(a.alarmed_nodes(), b.alarmed_nodes()) << name;
    EXPECT_EQ(a.stats().activations, b.stats().activations) << name;
    EXPECT_EQ(a.stats().effective_steps, b.stats().effective_steps) << name;
    // Both engines re-quiesced on the same unit.
    EXPECT_EQ(a.async_quiescent(), b.async_quiescent()) << name;
  }
}

// Weak fairness survives the sharded path: nodes whose registers change
// mid-unit (their own step) are re-enabled for the next unit by the
// drain's marking tail, so the hot-node chain propagates exactly one hop
// per unit — same pin as the sequential fairness test above, forced
// parallel.
TEST(ShardedDrain, WeakFairnessHoldsUnderParallelDrain) {
  Rng rng(50);
  auto g = gen::path(6, rng);
  LagProtocol proto;
  std::vector<LagState> init(g.n());
  init[0].hot = true;
  ThreadPool pool(3);
  Simulation<LagState> sim(g, proto, init, &pool);
  sim.set_async_drain(AsyncDrain::kParallel);
  Rng daemon(51);
  const int units = 64;
  for (int u = 0; u < units; ++u) {
    sim.async_unit(daemon, DaemonOrder::kReverse);
  }
  const std::uint64_t head = sim.cstate(0).value;
  EXPECT_EQ(head, std::uint64_t{units});
  for (NodeId v = 1; v < g.n(); ++v) {
    EXPECT_EQ(sim.cstate(v).value, head - v) << "node " << v;
  }
  // A 6-node path under kReverse conflicts everywhere: the drain is one
  // adjacent chain, so nearly every activation defers past epoch 0.
  EXPECT_GT(sim.stats().cross_shard_deferrals, 0u);
}

// Stray dirty bits — set with no pending-queue entry, the aux fault
// Simulation::aux_flip_enabled_bit models — are claimed by the dense
// bitmap scan together with the queued nodes, so that claim hands the
// drain more nodes than the queue held. The scan is taken when the queue
// itself holds at least n/16 entries; a fault storm provides them, then
// every other node outside the queue gets a stray bit. Every width must
// claim, step and account the stray nodes identically and leave the same
// bookkeeping behind (the scan clears the bits it claims).
TEST(ShardedDrain, StrayDirtyBitsThroughTheDenseClaimMatchAcrossWidths) {
  Rng grng(54);
  auto g = gen::random_connected(96, 48, grng);
  auto marker = make_labels(g);
  struct Outcome {
    std::vector<KkpState> regs;
    SimulationStats stats;
    AuditReport before;
    AuditReport after;
  };
  auto run = [&](unsigned threads, DaemonOrder order, Outcome& out) {
    KkpVerifierProtocol proto(g);
    ThreadPool pool(threads);  // declared first: must outlive the sim
    Simulation<KkpState> sim(g, proto, proto.initial_states(marker), &pool);
    sim.set_async_drain(AsyncDrain::kParallel);
    Rng daemon(55);
    for (int u = 0; u < 4; ++u) sim.async_unit(daemon, order);
    ASSERT_TRUE(sim.async_quiescent());
    Rng frng(56);
    inject_faults<KkpState>(proto, sim, 3, frng);
    const auto queued = sim.pending_nodes();
    ASSERT_GE(queued.size() * 16, g.n()) << "the claim must take the scan";
    std::vector<NodeId> stray;
    for (NodeId v = 0; v < g.n(); v += 2) {
      if (!std::binary_search(queued.begin(), queued.end(), v)) {
        stray.push_back(v);
      }
    }
    ASSERT_FALSE(stray.empty());
    for (NodeId v : stray) sim.aux_flip_enabled_bit(v);
    out.before = sim.audit();
    ASSERT_EQ(out.before.enabled_not_queued, stray.size());
    const std::uint64_t acts = sim.stats().activations;
    sim.async_unit(daemon, order);
    ASSERT_EQ(sim.stats().activations - acts, queued.size() + stray.size())
        << "the scan drains every set bit, queued or stray";
    for (int u = 0; u < 8; ++u) sim.async_unit(daemon, order);
    out.after = sim.audit();
    EXPECT_EQ(out.after.enabled_not_queued, 0u);
    out.stats = sim.stats();
    for (NodeId v = 0; v < g.n(); ++v) out.regs.push_back(sim.cstate(v));
  };
  auto audit_fields = [](const AuditReport& r) {
    return std::tuple(r.time, r.checked_nodes, r.enabled_not_queued,
                      r.queued_not_enabled, r.duplicate_queue_entries,
                      r.stamp_violations, r.register_violations, r.suspects);
  };
  for (DaemonOrder order : {DaemonOrder::kRandom, DaemonOrder::kAdversarial}) {
    Outcome ref;
    run(1, order, ref);
    if (HasFatalFailure()) return;
    std::uint64_t deferrals = 0;  // of the first parallel width
    for (unsigned threads : {2u, 4u}) {
      const std::string tag = "t" + std::to_string(threads) + "/order " +
                              std::to_string(static_cast<int>(order));
      Outcome got;
      run(threads, order, got);
      if (HasFatalFailure()) return;
      for (NodeId v = 0; v < g.n(); ++v) {
        ASSERT_TRUE(kkp_equal(ref.regs[v], got.regs[v]))
            << tag << " node " << v;
      }
      // Only the deferral count differs from the one-shard run. It
      // depends on the discipline order and the graph alone.
      if (threads == 2) deferrals = got.stats.cross_shard_deferrals;
      EXPECT_EQ(got.stats.cross_shard_deferrals, deferrals) << tag;
      got.stats.cross_shard_deferrals = ref.stats.cross_shard_deferrals;
      EXPECT_EQ(got.stats, ref.stats) << tag;
      EXPECT_EQ(audit_fields(got.before), audit_fields(ref.before)) << tag;
      EXPECT_EQ(audit_fields(got.after), audit_fields(ref.after)) << tag;
    }
  }
}

}  // namespace
}  // namespace ssmst
