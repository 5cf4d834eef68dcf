// The striped-arena register file (labels/arena.hpp): slab recycling,
// per-simulation payload independence, and the physical-footprint
// accounting that the compact layout makes visible.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.hpp"
#include "labels/arena.hpp"
#include "labels/marker.hpp"
#include "selfstab/baselines.hpp"
#include "util/bits.hpp"
#include "verify/metrology.hpp"
#include "verify/verifier.hpp"

namespace ssmst {
namespace {

TEST(LabelArena, StripesAdvanceInLockstepAndValueInitialize) {
  LabelArena a;
  NodeLabels l1, l2;
  l1.alloc(a, 5, 2);
  l2.alloc(a, 5, 2);
  EXPECT_EQ(l1.lvl_off, 0u);
  EXPECT_EQ(l2.lvl_off, 5u);
  EXPECT_EQ(l1.perm_off, 0u);
  EXPECT_EQ(l2.perm_off, 4u);  // 2 * pack slots per label
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(l1.roots()[j], RootsEntry::kStar);
    EXPECT_EQ(l1.endp()[j], EndpEntry::kStar);
    EXPECT_EQ(l1.parents()[j], 0);
    EXPECT_EQ(l1.endp_cnt()[j], 0);
  }
  // Writes through one label's views never leak into the neighbour slice.
  l1.roots()[4] = RootsEntry::kOne;
  EXPECT_EQ(l2.roots()[0], RootsEntry::kStar);
  EXPECT_EQ(l1.live_stripe_bytes(), 5u * 4 + 4u * sizeof(Piece));
}

TEST(LabelArena, CapacityIsLiveLengthNotThePaddedCap) {
  // The point of the layout: a label's stripe footprint is its live
  // length, not kLabelLevelCap/kLabelPackCap padding. At a typical
  // instance size the padded block wastes most of its bytes.
  Rng rng(3);
  auto g = gen::random_connected(256, 128, rng);
  auto m = make_labels(g, 2);
  const std::size_t len = m.labels[0].string_length();
  ASSERT_LT(len, kLabelLevelCap);
  const std::size_t live = m.labels[0].live_stripe_bytes();
  const std::size_t padded =
      kLabelLevelCap * 4 + 2 * kLabelPackCap * sizeof(Piece);
  EXPECT_EQ(live, len * 4 + 2 * 2 * sizeof(Piece));
  EXPECT_LT(live * 2, padded);  // > 50% of the padded block was waste
}

TEST(LabelArenaPool, SlabCapacityStabilizesAfterWarmup) {
  // Re-marking (the transformer's steady diet) must recycle slabs: after
  // one warm-up cycle, repeated mark -> release cycles neither construct
  // new arenas nor grow the recycled slab — no monotonic growth.
  Rng rng(5);
  auto g = gen::random_connected(96, 48, rng);
  { auto warm = make_labels(g, 2); }  // warm the pool with a sized slab
  const std::size_t created_before = LabelArenaPool::instance().created_total();
  std::size_t cap_before = 0;
  {
    auto m = make_labels(g, 2);
    cap_before = m.arena->capacity_bytes();
  }
  for (int cycle = 0; cycle < 6; ++cycle) {
    auto m = make_labels(g, 2);
    EXPECT_EQ(m.arena->capacity_bytes(), cap_before) << "cycle " << cycle;
  }
  EXPECT_EQ(LabelArenaPool::instance().created_total(), created_before)
      << "re-marking must reuse pooled slabs, not construct new arenas";
  EXPECT_GE(LabelArenaPool::instance().pooled(), 1u);
}

TEST(LabelArenaPool, SimulationRoundsDoNotGrowTheArena) {
  // Steady-state rounds never touch the arena allocator: the simulation's
  // arena has identical live and capacity bytes before and after a run.
  Rng rng(7);
  auto g = gen::random_connected(64, 32, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 1);
  const auto& labels = h.sim().cstate(0).labels;
  ASSERT_NE(labels.arena, nullptr);
  const std::size_t live = labels.arena->live_bytes();
  const std::size_t cap = labels.arena->capacity_bytes();
  ASSERT_FALSE(h.run(64).has_value());
  EXPECT_EQ(labels.arena->live_bytes(), live);
  EXPECT_EQ(labels.arena->capacity_bytes(), cap);
}

TEST(AdoptRegisterFile, SimulationsGetIndependentLabelPayloads) {
  // Two simulations built from the same initial states must not share
  // mutable label payload: corruption through one sim's registers (which
  // writes the stripe content in place) must be invisible to the other
  // sim and to the marker's pristine labels. This is what makes the
  // schedule-equivalence suite sound under the aliasing header layout.
  Rng rng(11);
  auto g = gen::random_connected(40, 20, rng);
  VerifierConfig cfg;
  const MarkerOutput marker = make_labels(g, cfg.pack);
  VerifierProtocol pa(g, cfg), pb(g, cfg);
  const auto init = pa.initial_states(marker);
  VerifierSim a(g, pa, init);
  VerifierSim b(g, pb, init);
  ASSERT_NE(a.cstate(0).labels.arena, b.cstate(0).labels.arena);
  ASSERT_NE(a.cstate(0).labels.arena, marker.labels[0].arena);

  const NodeId victim = 3;
  const auto before = marker.labels[victim].roots()[0];
  auto roots = a.state(victim).labels.roots();
  roots[0] = before == RootsEntry::kOne ? RootsEntry::kStar
                                        : RootsEntry::kOne;
  EXPECT_FALSE(a.cstate(victim).labels == b.cstate(victim).labels);
  EXPECT_TRUE(b.cstate(victim).labels == marker.labels[victim]);
  EXPECT_EQ(marker.labels[victim].roots()[0], before);
}

TEST(AdoptRegisterFile, FrontAndBackBufferShareOnePayloadPerSim) {
  // Within one simulation the label payload exists once: after a round,
  // the back-buffer copy of a register aliases the same stripes as the
  // front-buffer one (the header memcpy is the whole label transfer).
  Rng rng(13);
  auto g = gen::random_connected(32, 16, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 2);
  ASSERT_FALSE(h.run(8).has_value());
  const LabelArena* arena = h.sim().cstate(0).labels.arena;
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(h.sim().cstate(v).labels.arena, arena);
  }
}

// --- SimulationStats accounting under the arena layout ---------------------

TEST(StatsPins, PeakBitsMatchesLiveLabelBitsOnKnownInstance) {
  // peak_bits is the semantic register size: it must equal the maximum
  // state_bits over the installed states, whose label part is label_bits
  // of the *live* content — layout-invariant (same instance as the
  // BitSizePins in test_labels, so the numeric pin below is the same
  // 556-bit maximum captured before the flattening of PR 3).
  Rng rng(9);
  auto g = gen::random_connected(64, 32, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 1);
  const LabelWidths widths(g);
  std::size_t expect_peak = 0, expect_lab = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& s = h.sim().cstate(v);
    expect_peak = std::max(expect_peak, h.protocol().state_bits(s, v));
    expect_lab = std::max(expect_lab, label_bits(s.labels, widths));
  }
  EXPECT_EQ(h.sim().stats().peak_bits, expect_peak);
  EXPECT_EQ(expect_peak, 556u);   // == BitSizePins st_max
  EXPECT_EQ(expect_lab, 190u);    // == BitSizePins lab_max
}

TEST(StatsPins, PeakRegisterBytesReportsLiveStripePayload) {
  // The physical-footprint stat the arena makes honest: header block plus
  // live stripes, not the padded worst case.
  Rng rng(9);
  auto g = gen::random_connected(64, 32, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 1);
  std::size_t expect = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    expect = std::max(expect, sizeof(VerifierState) +
                                  h.sim().cstate(v).labels.live_stripe_bytes());
  }
  EXPECT_EQ(h.sim().stats().peak_register_bytes, expect);
  // All labels of one instance have equal allocation, so the value is
  // exactly header + len*4 + 2*pack*sizeof(Piece).
  const std::size_t len = h.marker().labels[0].string_length();
  EXPECT_EQ(expect,
            sizeof(VerifierState) + len * 4 + 2 * 2 * sizeof(Piece));
  // Sharded construction accounts identically (the record_pass reduction).
  VerifierConfig cfg4 = cfg;
  cfg4.threads = 4;
  VerifierHarness h4(g, cfg4, 1);
  EXPECT_EQ(h4.sim().stats().peak_register_bytes, expect);
}

// --- Sharded-drain counters (the boundary-epoch observability stats) --------

TEST(StatsPins, CrossShardDeferralsCountConflictChains) {
  // Deterministic conflict pin on a path: under kRoundRobin a full drain
  // of a path is one adjacent chain (epoch(v) = v), so all but the first
  // activation defer out of epoch 0; a single mid-path fault then wakes
  // the 3-chain {7, 8, 9}, contributing exactly 2 more deferrals.
  Rng rng(21);
  auto g = gen::path(16, rng);
  auto marker = make_labels(g);
  KkpVerifierProtocol proto(g);
  ThreadPool pool(4);
  Simulation<KkpState> sim(g, proto, proto.initial_states(marker), &pool);
  sim.set_async_drain(AsyncDrain::kParallel);
  Rng daemon(22);
  sim.async_unit(daemon, DaemonOrder::kRoundRobin);  // full drain: 16-chain
  EXPECT_EQ(sim.stats().cross_shard_deferrals, 15u);
  sim.async_unit(daemon, DaemonOrder::kRoundRobin);  // quiescent: adds none
  ASSERT_TRUE(sim.async_quiescent());
  EXPECT_EQ(sim.stats().cross_shard_deferrals, 15u);

  sim.state(8).labels.base.subtree_count += 1;  // wakes exactly {7, 8, 9}
  sim.async_unit(daemon, DaemonOrder::kRoundRobin);
  EXPECT_EQ(sim.stats().cross_shard_deferrals, 17u);
  EXPECT_EQ(sim.stats().activations, std::uint64_t{16 + 3});
}

TEST(StatsPins, ShardActivationCountsCoverEveryParallelDrain) {
  // Every drained activation of a parallel drain is attributed to exactly
  // one shard: the per-shard counts sum to the activations total (all
  // units of this run go through the forced parallel path) and spread
  // over more than one shard on a balanced instance.
  Rng rng(23);
  auto g = gen::random_connected(128, 64, rng);
  auto marker = make_labels(g);
  KkpVerifierProtocol proto(g);
  ThreadPool pool(4);
  Simulation<KkpState> sim(g, proto, proto.initial_states(marker), &pool);
  sim.set_async_drain(AsyncDrain::kParallel);
  Rng daemon(24), faults(25);
  for (int u = 0; u < 4; ++u) {
    sim.async_unit(daemon, DaemonOrder::kRoundRobin);
  }
  inject_faults<KkpState>(proto, sim, 6, faults);
  for (int u = 0; u < 6; ++u) {
    sim.async_unit(daemon, DaemonOrder::kRoundRobin);
  }
  const auto& per_shard = sim.stats().shard_activations;
  ASSERT_EQ(per_shard.size(), 4u);
  const std::uint64_t sum =
      std::accumulate(per_shard.begin(), per_shard.end(), std::uint64_t{0});
  EXPECT_EQ(sum, sim.stats().activations);
  EXPECT_GT(std::count_if(per_shard.begin(), per_shard.end(),
                          [](std::uint64_t c) { return c > 0; }),
            1);
}

}  // namespace
}  // namespace ssmst
