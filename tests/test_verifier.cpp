#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "util/bits.hpp"
#include "verify/metrology.hpp"

namespace ssmst {
namespace {

VerifierConfig sync_cfg() {
  VerifierConfig cfg;
  cfg.sync_mode = true;
  return cfg;
}

VerifierConfig async_cfg() {
  VerifierConfig cfg;
  cfg.sync_mode = false;
  return cfg;
}

std::uint64_t quiet_budget(NodeId n) {
  // Long enough to cover several full Ask cycles at this size.
  const std::uint64_t base = ceil_log2(std::max<NodeId>(n, 2)) + 2;
  return 40 * base * base + 2000;
}

TEST(Verifier, QuietOnCorrectInstanceSync) {
  Rng rng(1);
  auto g = gen::random_connected(48, 30, rng);
  VerifierHarness h(g, sync_cfg(), 11);
  auto alarm = h.run(quiet_budget(48));
  if (alarm) {
    const auto& tr = h.protocol().alarm_trace();
    FAIL() << "false alarm at t=" << *alarm
           << ": " << (tr.empty() ? "" : tr.front().detail);
  }
}

TEST(Verifier, QuietOnCorrectInstanceAsync) {
  Rng rng(2);
  auto g = gen::random_connected(40, 24, rng);
  VerifierHarness h(g, async_cfg(), 13);
  auto alarm = h.run(quiet_budget(40));
  if (alarm) {
    const auto& tr = h.protocol().alarm_trace();
    FAIL() << "false alarm at t=" << *alarm
           << ": " << (tr.empty() ? "" : tr.front().detail);
  }
}

TEST(Verifier, QuietOnSuiteSync) {
  for (const auto& [name, g] : gen::standard_suite(303)) {
    VerifierHarness h(g, sync_cfg(), 17);
    auto alarm = h.run(quiet_budget(g.n()) / 2);
    if (alarm) {
      const auto& tr = h.protocol().alarm_trace();
      FAIL() << name << ": false alarm at t=" << *alarm
             << ": " << (tr.empty() ? "" : tr.front().detail);
    }
  }
}

TEST(Verifier, DetectsNonMstTreeSync) {
  Rng rng(3);
  auto g = gen::random_connected(64, 64, rng);
  std::vector<bool> bad;
  ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
  VerifierHarness h(g, sync_cfg(), 19, bad);
  auto res = h.measure_detection({}, quiet_budget(64));
  EXPECT_TRUE(res.detected);
}

TEST(Verifier, DetectsNonMstTreeAsync) {
  Rng rng(4);
  auto g = gen::random_connected(48, 48, rng);
  std::vector<bool> bad;
  ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
  VerifierHarness h(g, async_cfg(), 23, bad);
  auto res = h.measure_detection({}, 4 * quiet_budget(48));
  EXPECT_TRUE(res.detected);
}

TEST(Verifier, DetectsTamperedPermanentPiece) {
  Rng rng(5);
  auto g = gen::random_connected(64, 40, rng);
  VerifierHarness h(g, sync_cfg(), 29);
  ASSERT_FALSE(h.run(200).has_value());
  // Tamper a load-bearing permanent piece: claim a wrong minimum.
  auto tampered = h.tamper_loadbearing_piece(3);
  ASSERT_TRUE(tampered.has_value());
  const NodeId victim = *tampered;
  auto res = h.measure_detection({victim}, quiet_budget(64), 50);
  EXPECT_TRUE(res.detected);
  // Detection distance O(log n) for a single fault (Theorem 8.5).
  ASSERT_TRUE(res.distance.has_value());
  EXPECT_LE(*res.distance, 10 * (ceil_log2(64) + 2));
}

TEST(Verifier, DetectsComponentCorruption) {
  Rng rng(6);
  auto g = gen::complete(16, rng);
  VerifierHarness h(g, sync_cfg(), 31);
  ASSERT_FALSE(h.run(100).has_value());
  // Re-point some non-root node's parent to a different neighbour.
  const NodeId root = h.marker().tree->root();
  const NodeId victim = root == 0 ? 1 : 0;
  auto& st = h.sim().state(victim);
  st.parent_port = (st.parent_port + 1) % g.degree(victim);
  auto res = h.measure_detection({victim}, quiet_budget(16));
  EXPECT_TRUE(res.detected);
  EXPECT_LE(res.detection_time, 5u);  // SP catches this within rounds
}

TEST(Verifier, CoordinatedEmptyTrainsCaughtByTimeout) {
  // Adversary consistently empties every train so that no check can ever
  // compare pieces: only the Ask timeout can save us — and it must.
  Rng rng(7);
  auto g = gen::random_connected(24, 12, rng);
  VerifierHarness h(g, sync_cfg(), 37);
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& st = h.sim().state(v);
    st.labels.set_top_perm(nullptr, 0);
    st.labels.set_bot_perm(nullptr, 0);
    st.labels.top_piece_count = 0;
    st.labels.bot_piece_count = 0;
    st.labels.delim = 0;
    st.train[0] = TrainRt{};
    st.train[1] = TrainRt{};
  }
  auto res = h.measure_detection({}, 400000);
  EXPECT_TRUE(res.detected);
}

TEST(Verifier, RandomCorruptionsNeverGoUndetectedWhenTreeBreaks) {
  // Random protocol-level corruption of the component: tree shape changes
  // are always detected quickly.
  Rng rng(8);
  auto g = gen::random_connected(40, 40, rng);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    VerifierHarness h(g, sync_cfg(), 41 + seed);
    ASSERT_FALSE(h.run(50).has_value());
    Rng frng(seed);
    // Corrupt one node's parent port to point at a random neighbour.
    const NodeId victim = static_cast<NodeId>(frng.below(g.n()));
    auto& st = h.sim().state(victim);
    const std::uint32_t old_port = st.parent_port;
    st.parent_port = static_cast<std::uint32_t>(frng.below(g.degree(victim)));
    if (st.parent_port == old_port) continue;  // benign
    const bool still_tree = [&] {
      // The corruption is harmful iff the parent-port map no longer forms
      // the marked spanning tree.
      return st.parent_port == old_port;
    }();
    if (!still_tree) {
      auto res = h.measure_detection({victim}, quiet_budget(40));
      EXPECT_TRUE(res.detected) << "seed " << seed;
    }
  }
}

TEST(Verifier, MemoryStaysLogarithmic) {
  Rng rng(9);
  for (NodeId n : {32u, 128u, 512u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    VerifierHarness h(g, sync_cfg(), 43);
    h.run(60);
    EXPECT_LE(h.sim().stats().peak_bits,
              120u * static_cast<std::size_t>(ceil_log2(n) + 2))
        << "n=" << n;
  }
}

TEST(Verifier, DetectionTimePolylogSync) {
  // The detection time after a piece corruption must not scale linearly
  // with n (polylog shape; the bench sweeps this more finely).
  Rng rng(10);
  std::vector<double> ns, ts;
  for (NodeId n : {64u, 256u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    VerifierHarness h(g, sync_cfg(), 47);
    ASSERT_FALSE(h.run(50).has_value()) << n;
    auto tampered = h.tamper_loadbearing_piece(5);
    ASSERT_TRUE(tampered.has_value()) << n;
    const NodeId victim = *tampered;
    auto res = h.measure_detection({victim}, 4 * quiet_budget(n));
    ASSERT_TRUE(res.detected) << n;
    ns.push_back(n);
    ts.push_back(static_cast<double>(res.detection_time) + 1);
  }
  // Quadrupling n must not quadruple detection time.
  EXPECT_LT(ts[1], ts[0] * 3.0);
}

class NonMstSweep
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint64_t>> {};

TEST_P(NonMstSweep, AlwaysDetected) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  auto g = gen::random_connected(n, n / 2 + 4, rng);
  std::vector<bool> bad;
  ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
  VerifierHarness h(g, sync_cfg(), seed * 7 + 1, bad);
  auto res = h.measure_detection({}, quiet_budget(n));
  EXPECT_TRUE(res.detected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NonMstSweep,
    ::testing::Combine(::testing::Values(12, 40, 100),
                       ::testing::Values(3, 4, 5)));

}  // namespace
}  // namespace ssmst
