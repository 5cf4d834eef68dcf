#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "mstalgo/ghs_boruvka.hpp"
#include "mstalgo/reference_hierarchy.hpp"
#include "mstalgo/sync_mst.hpp"
#include "util/bits.hpp"

namespace ssmst {
namespace {

TEST(SyncMst, SingleNode) {
  auto g = WeightedGraph::from_edges(1, {});
  auto run = run_sync_mst(g);
  EXPECT_EQ(run.tree->n(), 1u);
  EXPECT_EQ(run.tree->root(), 0u);
}

TEST(SyncMst, TwoNodes) {
  auto g = WeightedGraph::from_edges(2, {{0, 1, 5}});
  auto run = run_sync_mst(g);
  EXPECT_TRUE(is_mst(*run.tree));
}

TEST(SyncMst, ComputesMstOnSuite) {
  for (const auto& [name, g] : gen::standard_suite(2024)) {
    auto run = run_sync_mst(g);
    EXPECT_TRUE(is_mst(*run.tree)) << name;
    // Same edge set as Kruskal (MST unique under the composite order).
    std::vector<bool> in_tree(g.m(), false);
    for (auto e : kruskal_mst_edges(g)) in_tree[e] = true;
    EXPECT_EQ(run.tree->tree_edge_bitmap(), in_tree) << name;
  }
}

TEST(SyncMst, LinearTimeSchedule) {
  // Rounds must stay within the paper's 22 * 2^ell <= 44n schedule.
  Rng rng(5);
  for (NodeId n : {16u, 64u, 256u, 1024u}) {
    auto g = gen::random_connected(n, n, rng);
    auto run = run_sync_mst(g);
    EXPECT_LE(run.sim.rounds, 44ULL * n + 64) << "n=" << n;
  }
}

TEST(SyncMst, LogarithmicMemory) {
  Rng rng(6);
  for (NodeId n : {64u, 256u, 1024u}) {
    auto g = gen::random_connected(n, 2 * n, rng);
    auto run = run_sync_mst(g);
    // O(log n) bits: generous constant 40.
    EXPECT_LE(run.sim.peak_bits,
              40u * static_cast<std::size_t>(ceil_log2(n) + 1))
        << "n=" << n;
  }
}

TEST(ReferenceHierarchy, MatchesKruskal) {
  for (const auto& [name, g] : gen::standard_suite(99)) {
    auto ref = build_reference_hierarchy(g);
    EXPECT_TRUE(is_mst(*ref.tree)) << name;
  }
}

TEST(ReferenceHierarchy, ValidLaminarFamily) {
  for (const auto& [name, g] : gen::standard_suite(100)) {
    auto ref = build_reference_hierarchy(g);
    EXPECT_EQ(ref.hierarchy->validate(), "") << name;
  }
}

TEST(ReferenceHierarchy, Lemma41SizeBounds) {
  // A level-i active fragment satisfies 2^i <= |F| <= 2^(i+1)-1.
  for (const auto& [name, g] : gen::standard_suite(101)) {
    auto ref = build_reference_hierarchy(g);
    for (const Fragment& f : ref.hierarchy->fragments()) {
      const auto sz = static_cast<std::uint64_t>(f.size());
      EXPECT_GE(sz, 1ULL << f.level) << name;
      if (f.has_candidate) {  // the spanning fragment may exceed the cap
        EXPECT_LT(sz, 2ULL << f.level) << name;
      }
    }
  }
}

TEST(ReferenceHierarchy, HeightAtMostLogN) {
  for (const auto& [name, g] : gen::standard_suite(102)) {
    auto ref = build_reference_hierarchy(g);
    EXPECT_LE(ref.hierarchy->height(), ceil_log2(g.n()) + 1) << name;
  }
}

TEST(ReferenceHierarchy, CandidatesAreMinimumOutgoing) {
  for (const auto& [name, g] : gen::standard_suite(103)) {
    auto ref = build_reference_hierarchy(g);
    for (std::uint32_t f = 0; f < ref.hierarchy->fragment_count(); ++f) {
      const Fragment& frag = ref.hierarchy->fragment(f);
      if (!frag.has_candidate) continue;
      auto mo = ref.hierarchy->min_outgoing_edge(f);
      ASSERT_TRUE(mo.has_value()) << name;
      EXPECT_EQ(frag.cand_weight, mo->w) << name;
    }
  }
}

TEST(ReferenceHierarchy, SingletonsPresentForAllNodes) {
  Rng rng(7);
  auto g = gen::random_connected(50, 30, rng);
  auto ref = build_reference_hierarchy(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto f0 = ref.hierarchy->fragment_at(v, 0);
    ASSERT_NE(f0, kNoFragment);
    EXPECT_EQ(ref.hierarchy->fragment(f0).size(), 1u);
    EXPECT_EQ(ref.hierarchy->fragment(f0).root, v);
  }
}

TEST(DistributedVsReference, ActiveTraceMatches) {
  // The distributed run and the centralized twin must agree on every
  // active fragment: (phase, root id, size) multisets coincide.
  for (const auto& [name, g] : gen::standard_suite(2025)) {
    auto run = run_sync_mst(g);
    auto ref = build_reference_hierarchy(g);
    std::multiset<std::tuple<int, std::uint64_t, std::uint64_t>> dist_trace;
    for (const auto& [phase, root, size] : run.active_trace) {
      dist_trace.insert({phase, g.id(root), size});
    }
    std::multiset<std::tuple<int, std::uint64_t, std::uint64_t>> ref_trace;
    for (const Fragment& f : ref.hierarchy->fragments()) {
      ref_trace.insert({f.level, g.id(f.build_root), f.size()});
    }
    EXPECT_EQ(dist_trace, ref_trace) << name;
  }
}

TEST(DistributedVsReference, SameTreeEdges) {
  for (const auto& [name, g] : gen::standard_suite(2026)) {
    auto run = run_sync_mst(g);
    auto ref = build_reference_hierarchy(g);
    EXPECT_EQ(run.tree->tree_edge_bitmap(), ref.tree->tree_edge_bitmap())
        << name;
  }
}

TEST(GhsBaseline, ComputesMstOnSuite) {
  for (const auto& [name, g] : gen::standard_suite(321)) {
    auto run = run_ghs_boruvka(g);
    EXPECT_TRUE(is_mst(*run.tree)) << name;
  }
}

TEST(GhsBaseline, SlowerThanSyncMstAtScale) {
  Rng rng(8);
  auto g = gen::random_connected(512, 512, rng);
  auto ghs = run_ghs_boruvka(g);
  auto fast = run_sync_mst(g);
  // The O(n log n) baseline should take strictly more rounds at this size.
  EXPECT_GT(ghs.sim.rounds, fast.sim.rounds);
}

// Property sweep over random graphs and seeds.
class SyncMstSweep
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint64_t>> {};

TEST_P(SyncMstSweep, DistributedEqualsReferenceEqualsKruskal) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  auto g = gen::random_connected(n, n / 2 + 3, rng);
  auto run = run_sync_mst(g);
  auto ref = build_reference_hierarchy(g);
  EXPECT_TRUE(is_mst(*run.tree));
  EXPECT_EQ(run.tree->tree_edge_bitmap(), ref.tree->tree_edge_bitmap());
  EXPECT_EQ(ref.hierarchy->validate(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SyncMstSweep,
    ::testing::Combine(::testing::Values(5, 13, 32, 67, 128),
                       ::testing::Values(11, 22, 33, 44)));

}  // namespace
}  // namespace ssmst
