#include <gtest/gtest.h>

#include "core/ssmst.hpp"
#include "util/bits.hpp"

namespace ssmst {
namespace {

// ---- Packing extension (Section 1.3 remark) -------------------------------

class PackSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PackSweep, MarkerValidAndVerifierQuiet) {
  const std::uint32_t pack = GetParam();
  Rng rng(1);
  auto g = gen::random_connected(72, 40, rng);
  auto m = make_labels(g, pack);
  EXPECT_EQ(validate_partitions(*m.hierarchy, m.partitions), "");
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_LE(m.labels[v].top_perm().size(), pack);
    EXPECT_LE(m.labels[v].bot_perm().size(), pack);
    EXPECT_EQ(m.labels[v].pack, pack);
  }
  VerifierConfig cfg;
  cfg.pack = pack;
  VerifierHarness h(g, cfg, 3);
  auto alarm = h.run(3000);
  if (alarm) {
    const auto& tr = h.protocol().alarm_trace();
    FAIL() << "pack=" << pack << " false alarm"
           << ": " << (tr.empty() ? "" : tr.front().detail);
  }
}

TEST_P(PackSweep, StillDetectsTampering) {
  const std::uint32_t pack = GetParam();
  Rng rng(2);
  auto g = gen::random_connected(64, 36, rng);
  VerifierConfig cfg;
  cfg.pack = pack;
  VerifierHarness h(g, cfg, 5);
  ASSERT_FALSE(h.run(100).has_value());
  auto victim = h.tamper_loadbearing_piece(7);
  ASSERT_TRUE(victim.has_value());
  auto res = h.measure_detection({*victim}, 60000);
  EXPECT_TRUE(res.detected) << "pack=" << pack;
}

INSTANTIATE_TEST_SUITE_P(Packs, PackSweep, ::testing::Values(2, 3, 4, 8));

TEST(PackExtension, InconsistentPackClaimRejected) {
  Rng rng(3);
  auto g = gen::random_connected(30, 20, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 7);
  const NodeId victim = h.marker().tree->root() == 0 ? 1 : 0;
  h.sim().state(victim).labels.pack = 4;  // everyone else claims 2
  auto res = h.measure_detection({victim}, 50);
  EXPECT_TRUE(res.detected);
}

// ---- Corruption-type sweep: every targeted corruption class alarms --------

enum class CorruptionKind : int {
  kRootsEntry = 0,
  kEndpEntry,
  kParentsBit,
  kPieceWeight,
  kSubtreeCount,
  kDelimiter,
  kPieceCountClaim,
};

class CorruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionSweep, Detected) {
  const auto kind = static_cast<CorruptionKind>(GetParam());
  Rng rng(4);
  auto g = gen::random_connected(56, 30, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 11);
  ASSERT_FALSE(h.run(100).has_value());

  const NodeId root = h.marker().tree->root();
  NodeId victim = kNoNode;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (v == root) continue;
    auto& l = h.sim().state(v).labels;
    switch (kind) {
      case CorruptionKind::kRootsEntry:
        if (l.roots().size() > 1 && l.roots()[1] == RootsEntry::kZero) {
          l.roots()[1] = RootsEntry::kOne;
          victim = v;
        }
        break;
      case CorruptionKind::kEndpEntry:
        if (l.endp()[0] == EndpEntry::kUp) {
          l.endp()[0] = EndpEntry::kNone;  // erase the candidate endpoint
          victim = v;
        }
        break;
      case CorruptionKind::kParentsBit:
        if (!l.parents().empty() && l.parents()[0] == 0) {
          l.parents()[0] = 1;
          victim = v;
        }
        break;
      case CorruptionKind::kPieceWeight: {
        auto t = h.tamper_loadbearing_piece(13);
        if (t) victim = *t;
        break;
      }
      case CorruptionKind::kSubtreeCount:
        l.subtree_count += 2;
        victim = v;
        break;
      case CorruptionKind::kDelimiter:
        // Harmful variant only: reclassifying star levels is benign (and
        // correctly undetected), but moving level 0 — where every node has
        // its singleton — to the top train breaks the proof observably.
        if (l.delim > 0) {
          l.delim = 0;
          victim = v;
        }
        break;
      case CorruptionKind::kPieceCountClaim:
        l.top_piece_count += 1;
        victim = v;
        break;
    }
    if (victim != kNoNode) break;
  }
  ASSERT_NE(victim, kNoNode) << "no corruption site found";
  auto res = h.measure_detection({victim}, 60000);
  EXPECT_TRUE(res.detected) << "corruption kind " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kinds, CorruptionSweep,
                         ::testing::Range(0, 7));

// ---- Theorem 7.1: full piece delivery within the Show window bound --------

TEST(Trains, ShowCycleWithinWindowBound) {
  // Every node's Show must wrap through all levels well within the Ask
  // window (otherwise comparisons can miss events — the calibration that
  // the kAskWindowFactor constant guards).
  Rng rng(5);
  for (NodeId n : {64u, 256u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    VerifierConfig cfg;
    VerifierHarness h(g, cfg, 13);
    // Warm up, then track the Show level of a few nodes over one window.
    ASSERT_FALSE(h.run(600).has_value());
    const std::uint32_t theta = top_threshold(n);
    const auto len = static_cast<std::uint32_t>(
        h.marker().labels[0].string_length());
    const std::uint32_t window = kAskWindowFactor * (theta + len + 2);
    std::vector<std::uint32_t> wraps(g.n(), 0);
    std::vector<std::uint32_t> last(g.n(), 0);
    for (NodeId v = 0; v < g.n(); ++v) {
      last[v] = h.sim().state(v).show.level;
    }
    for (std::uint32_t r = 0; r < window; ++r) {
      h.sim().sync_round();
      for (NodeId v = 0; v < g.n(); ++v) {
        const std::uint32_t cur = h.sim().state(v).show.level;
        if (cur < last[v]) ++wraps[v];
        last[v] = cur;
      }
    }
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_GE(wraps[v], 1u) << "node " << v << " at n=" << n
                              << ": Show did not wrap within the window";
    }
  }
}

// ---- Lower-bound transformation end to end --------------------------------

TEST(TauTransform, TransformedInstanceVerifiable) {
  // Run the full verifier on the transformed graph G' of a correct
  // instance: quiet; on the transformed non-MST: alarmed.
  Rng rng(6);
  auto g = gen::random_connected(12, 8, rng);
  std::vector<bool> mst(g.m(), false);
  for (auto e : kruskal_mst_edges(g)) mst[e] = true;
  auto good = tau_transform(g, mst, 2);
  {
    VerifierConfig cfg;
    VerifierHarness h(good.graph, cfg, 17);
    auto alarm = h.run(4000);
    if (alarm) {
      const auto& tr = h.protocol().alarm_trace();
      FAIL() << "false alarm on transformed MST"
             << ": " << (tr.empty() ? "" : tr.front().detail);
    }
  }
  std::vector<bool> bad;
  ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
  auto broken = tau_transform(g, bad, 2);
  {
    VerifierConfig cfg;
    VerifierHarness h(broken.graph, cfg, 19, broken.in_tree);
    auto res = h.measure_detection({}, 120000);
    EXPECT_TRUE(res.detected);
  }
}

// ---- Figure 1 example: strings legality (guards the Table 2 bench) --------

TEST(Figure1, LabelsLegalAndVerifierQuiet) {
  auto g = gen::figure1_example();
  auto m = make_labels(g);
  EXPECT_EQ(m.hierarchy->validate(), "");
  EXPECT_EQ(check_hierarchy_certifies_mst(*m.hierarchy), "");
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 23);
  EXPECT_FALSE(h.run(2500).has_value());
}

// ---- Daemon order robustness ----------------------------------------------

TEST(Daemon, AdversarialOrdersStayQuiet) {
  Rng rng(7);
  auto g = gen::random_connected(32, 20, rng);
  for (DaemonOrder order : {DaemonOrder::kRoundRobin, DaemonOrder::kReverse,
                            DaemonOrder::kAdversarial}) {
    VerifierConfig cfg;
    cfg.sync_mode = false;
    auto marker = make_labels(g);
    VerifierProtocol proto(g, cfg);
    VerifierSim sim(g, proto, proto.initial_states(marker));
    Rng daemon(29);
    for (int i = 0; i < 1500; ++i) sim.async_unit(daemon, order);
    EXPECT_FALSE(sim.first_alarm_time().has_value())
        << "order " << static_cast<int>(order);
  }
}

}  // namespace
}  // namespace ssmst
