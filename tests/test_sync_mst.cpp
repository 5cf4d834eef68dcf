#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

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

// --- Golden construction pin -------------------------------------------------
// Rounds, activations, peak bits and a digest of the tree-edge bitmap of
// SYNC_MST and the GHS baseline, captured before the two protocols shared
// their fragment stages. The tests above check only that each tree is an
// MST and that GHS is slower; a changed schedule must fail here.

std::uint64_t digest_bitmap(const std::vector<bool>& bits) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto add = [&h](std::uint64_t x) {
    std::uint64_t z = h ^ x;  // splitmix64 finalizer over the running state
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  };
  add(bits.size());
  for (const bool b : bits) add(b ? 1 : 0);
  return h;
}

struct RunPin {
  std::uint64_t rounds, activations;
  std::size_t peak_bits;
  std::uint64_t tree;
};

RunPin pin_of(const SimulationStats& s, const RootedTree& t) {
  return {s.rounds, s.activations, s.peak_bits,
          digest_bitmap(t.tree_edge_bitmap())};
}

TEST(ConstructionGolden, SyncMstAndGhsRunsMatchPinnedValues) {
  struct Case {
    std::string name;
    RunPin sync, ghs;
  };
  const std::vector<Case> golden = {
      {"path32", {629u, 20128u, 88u, 0x33051f5be325b3e7ULL},
       {820u, 26240u, 59u, 0x33051f5be325b3e7ULL}},
      {"cycle33", {627u, 20691u, 93u, 0x4334f595e598273aULL},
       {854u, 28182u, 64u, 0x4334f595e598273aULL}},
      {"grid6x7", {623u, 26166u, 98u, 0x17a69b9ba03f0812ULL},
       {1071u, 44982u, 69u, 0x17a69b9ba03f0812ULL}},
      {"star24", {307u, 7368u, 87u, 0x9a121f596b1ed0b0ULL},
       {267u, 6408u, 63u, 0x9a121f596b1ed0b0ULL}},
      {"complete12", {157u, 1884u, 81u, 0x7673d800b85e39e6ULL},
       {305u, 3660u, 59u, 0x7673d800b85e39e6ULL}},
      {"caterpillar8x3", {615u, 19680u, 91u, 0x33051f5be325b3e7ULL},
       {806u, 25792u, 62u, 0x33051f5be325b3e7ULL}},
      {"btree31+10", {314u, 9734u, 85u, 0xfe41958dbfefb967ULL},
       {790u, 24490u, 59u, 0xfe41958dbfefb967ULL}},
      {"rand64+48", {1227u, 78528u, 103u, 0x2b21d1aae3871341ULL},
       {1612u, 103168u, 72u, 0x2b21d1aae3871341ULL}},
      {"rand100+30", {1231u, 123100u, 110u, 0xb6aab26fbf2965ccULL},
       {2515u, 251500u, 79u, 0xb6aab26fbf2965ccULL}},
      {"bdeg96d4", {1230u, 118080u, 105u, 0x483aed56fa38a595ULL},
       {3088u, 296448u, 74u, 0x483aed56fa38a595ULL}},
      {"figure1", {310u, 5580u, 83u, 0x5732af3a0b6e6b2bULL},
       {456u, 8208u, 59u, 0x5732af3a0b6e6b2bULL}},
      {"rand512+512", {9753u, 4993536u, 132u, 0x54eb4bac9aaa3950ULL},
       {16412u, 8402944u, 95u, 0x54eb4bac9aaa3950ULL}},
  };
  std::vector<gen::NamedGraph> graphs = gen::standard_suite(2027);
  Rng rng(8);
  graphs.push_back({"rand512+512", gen::random_connected(512, 512, rng)});
  ASSERT_EQ(graphs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto& [name, g] = graphs[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(name, golden[i].name);
    const auto fast = run_sync_mst(g);
    const auto ghs = run_ghs_boruvka(g);
    for (const auto& [got, want] :
         {std::pair{pin_of(fast.sim, *fast.tree), golden[i].sync},
          std::pair{pin_of(ghs.sim, *ghs.tree), golden[i].ghs}}) {
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.activations, want.activations);
      EXPECT_EQ(got.peak_bits, want.peak_bits);
      EXPECT_EQ(got.tree, want.tree);
    }
  }
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
