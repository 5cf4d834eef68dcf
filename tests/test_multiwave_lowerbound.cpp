#include <gtest/gtest.h>

#include "core/ssmst.hpp"
#include "util/stats.hpp"

namespace ssmst {
namespace {

TEST(MultiWave, CompletesOnSuite) {
  for (const auto& [name, g] : gen::standard_suite(111)) {
    auto m = make_labels(g);
    auto res = run_multiwave(m, /*pipelined=*/true);
    EXPECT_TRUE(res.completed) << name;
  }
}

TEST(MultiWave, PipelinedIsLinear) {
  Rng rng(1);
  std::vector<double> ns, ts;
  for (NodeId n : {64u, 256u, 1024u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    auto m = make_labels(g);
    auto res = run_multiwave(m, true);
    ASSERT_TRUE(res.completed);
    EXPECT_LE(res.sim.rounds, 16ULL * n + 64) << "n=" << n;
    ns.push_back(n);
    ts.push_back(static_cast<double>(res.sim.rounds));
  }
  EXPECT_LT(loglog_slope(ns, ts), 1.35);
}

TEST(MultiWave, NaiveBarrierIsSlower) {
  Rng rng(2);
  auto g = gen::path(512, rng);
  auto m = make_labels(g);
  auto fast = run_multiwave(m, true);
  auto slow = run_multiwave(m, false);
  ASSERT_TRUE(fast.completed);
  ASSERT_TRUE(slow.completed);
  EXPECT_GT(slow.sim.rounds, fast.sim.rounds);
}

TEST(TauTransform, PreservesMstBothWays) {
  // Lemma 9.1's foundation: H(G') is an MST of G' iff H(G) is one of G.
  Rng rng(3);
  for (std::uint32_t tau : {1u, 2u, 4u}) {
    auto g = gen::random_connected(24, 18, rng);
    std::vector<bool> mst(g.m(), false);
    for (auto e : kruskal_mst_edges(g)) mst[e] = true;
    auto good = tau_transform(g, mst, tau);
    EXPECT_TRUE(is_spanning_tree(good.graph, good.in_tree)) << tau;
    EXPECT_TRUE(is_mst(good.graph, good.in_tree)) << tau;

    std::vector<bool> bad;
    ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
    auto broken = tau_transform(g, bad, tau);
    EXPECT_TRUE(is_spanning_tree(broken.graph, broken.in_tree)) << tau;
    EXPECT_FALSE(is_mst(broken.graph, broken.in_tree)) << tau;
  }
}

TEST(TauTransform, SizesAndDistinctWeights) {
  Rng rng(4);
  auto g = gen::random_connected(10, 6, rng);
  auto t = tau_transform(g, std::vector<bool>(g.m(), true), 3);
  EXPECT_EQ(t.graph.n(), g.n() + g.m() * (2 * 3));
  EXPECT_EQ(t.graph.m(), g.m() * (2 * 3 + 1));
  EXPECT_TRUE(t.graph.has_distinct_weights());
  // Origin map: original nodes first, fillers after.
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(t.origin[v], v);
  for (NodeId v = g.n(); v < t.graph.n(); ++v) EXPECT_EQ(t.origin[v], kNoNode);
}

TEST(HardFamily, ShapeAndUniqueness) {
  Rng rng(5);
  for (std::uint32_t h : {2u, 4u, 6u}) {
    auto g = hard_family(h, rng);
    EXPECT_EQ(g.n(), (1u << (h + 1)) - 1);
    EXPECT_TRUE(g.is_connected());
    EXPECT_TRUE(g.has_distinct_weights());
    // Every node adjacent to at most one non-tree edge: degree of leaves
    // is at most 2 (parent + one cross edge).
    const NodeId internal = (NodeId{1} << h) - 1;
    for (NodeId v = internal; v < g.n(); ++v) {
      EXPECT_LE(g.degree(v), 2u);
    }
  }
}

TEST(HardFamily, VerifiableByOurScheme) {
  Rng rng(6);
  auto g = hard_family(4, rng);
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 7);
  EXPECT_FALSE(h.run(600).has_value());
}

TEST(Core, AnalyzeInstanceQuickstart) {
  Rng rng(8);
  auto g = gen::random_connected(48, 30, rng);
  auto rep = analyze_instance(g, 400);
  EXPECT_EQ(rep.n, 48u);
  EXPECT_GT(rep.mst_weight, 0u);
  EXPECT_LE(rep.construction_rounds, 44ULL * 48 + 64);
  EXPECT_GT(rep.fragment_count, 48u);  // singletons + merged fragments
  EXPECT_TRUE(rep.verifier_quiet);
}

}  // namespace
}  // namespace ssmst
