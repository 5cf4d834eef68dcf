#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "hierarchy/checker.hpp"
#include "mstalgo/reference_hierarchy.hpp"

namespace ssmst {
namespace {

TEST(Hierarchy, FragmentContains) {
  Fragment f;
  f.nodes = {1, 3, 5, 7};
  EXPECT_TRUE(f.contains(3));
  EXPECT_FALSE(f.contains(4));
}

TEST(Hierarchy, MembershipSortedByLevel) {
  Rng rng(1);
  auto g = gen::random_connected(40, 30, rng);
  auto ref = build_reference_hierarchy(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& mem = ref.hierarchy->membership(v);
    ASSERT_FALSE(mem.empty());
    EXPECT_EQ(mem.front().first, 0);
    for (std::size_t i = 1; i < mem.size(); ++i) {
      EXPECT_LT(mem[i - 1].first, mem[i].first);
      // Strictly growing fragments along the chain.
      EXPECT_LT(ref.hierarchy->fragment(mem[i - 1].second).size(),
                ref.hierarchy->fragment(mem[i].second).size());
    }
  }
}

TEST(Hierarchy, ParentChildConsistent) {
  Rng rng(2);
  auto g = gen::random_connected(60, 40, rng);
  auto ref = build_reference_hierarchy(g);
  const auto& h = *ref.hierarchy;
  for (std::uint32_t f = 0; f < h.fragment_count(); ++f) {
    const Fragment& frag = h.fragment(f);
    if (f == h.top()) {
      EXPECT_EQ(frag.parent, kNoFragment);
      continue;
    }
    ASSERT_NE(frag.parent, kNoFragment) << "fragment " << f;
    const Fragment& par = h.fragment(frag.parent);
    EXPECT_GT(par.level, frag.level);
    for (NodeId v : frag.nodes) EXPECT_TRUE(par.contains(v));
    // This fragment is listed among the parent's children.
    EXPECT_NE(std::find(par.children.begin(), par.children.end(), f),
              par.children.end());
  }
}

TEST(Hierarchy, RebuildFromOwnFragmentsIsIdempotent) {
  // parent/children are derived by the constructor, never appended to what
  // the input fragments already carry.
  Rng rng(6);
  auto g = gen::random_connected(50, 30, rng);
  auto ref = build_reference_hierarchy(g);
  const FragmentHierarchy again(*ref.tree, ref.hierarchy->fragments());
  ASSERT_EQ(again.fragment_count(), ref.hierarchy->fragment_count());
  for (std::uint32_t f = 0; f < again.fragment_count(); ++f) {
    EXPECT_EQ(again.fragment(f).parent, ref.hierarchy->fragment(f).parent);
    EXPECT_EQ(again.fragment(f).children,
              ref.hierarchy->fragment(f).children);
  }
  EXPECT_EQ(again.validate(), "");
}

TEST(Hierarchy, RejectsFragmentsOutOfOrder) {
  Rng rng(7);
  auto g = gen::path(4, rng);
  auto ref = build_reference_hierarchy(g);
  auto frags = ref.hierarchy->fragments();
  std::swap(frags.front(), frags.back());  // the top fragment comes first
  EXPECT_THROW(FragmentHierarchy(*ref.tree, frags), std::invalid_argument);
  frags = ref.hierarchy->fragments();
  std::reverse(frags.back().nodes.begin(), frags.back().nodes.end());
  EXPECT_THROW(FragmentHierarchy(*ref.tree, frags), std::invalid_argument);
}

TEST(Hierarchy, CheckerAcceptsCorrectHierarchy) {
  for (const auto& [name, g] : gen::standard_suite(555)) {
    auto ref = build_reference_hierarchy(g);
    EXPECT_EQ(check_hierarchy_certifies_mst(*ref.hierarchy), "") << name;
  }
}

TEST(Hierarchy, CheckerRejectsInflatedCandidateWeight) {
  Rng rng(3);
  auto g = gen::random_connected(30, 25, rng);
  auto ref = build_reference_hierarchy(g);
  // Tamper: claim a wrong selected-edge weight for some fragment.
  auto frags = ref.hierarchy->fragments();
  bool tampered = false;
  for (auto& f : frags) {
    if (f.has_candidate) {
      f.cand_weight += 1;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  FragmentHierarchy bad(*ref.tree, std::move(frags));
  EXPECT_NE(check_minimality(bad), "");
}

TEST(Hierarchy, ValidateRejectsCrossingFragments) {
  Rng rng(4);
  auto g = gen::path(6, rng);
  auto tree = kruskal_mst_tree(g, 0);
  // Manufacture two crossing "fragments" {0,1,2} and {2,3} plus the
  // required singletons and top.
  std::vector<Fragment> frags;
  for (NodeId v = 0; v < 6; ++v) {
    Fragment s;
    s.root = v;
    s.level = 0;
    s.nodes = {v};
    s.has_candidate = true;
    s.cand_inside = v;
    s.cand_outside = v == 5 ? 4 : v + 1;
    s.cand_weight = 1;
    frags.push_back(s);
  }
  Fragment a;
  a.root = 0;
  a.level = 1;
  a.nodes = {0, 1, 2};
  a.has_candidate = true;
  a.cand_inside = 2;
  a.cand_outside = 3;
  frags.push_back(a);
  Fragment b;
  b.root = 2;
  b.level = 2;
  b.nodes = {2, 3};
  b.has_candidate = true;
  b.cand_inside = 3;
  b.cand_outside = 4;
  frags.push_back(b);
  Fragment top;
  top.root = 0;
  top.level = 3;
  top.nodes = {0, 1, 2, 3, 4, 5};
  frags.push_back(top);
  FragmentHierarchy h(tree, std::move(frags));
  EXPECT_NE(h.validate(), "");
}

TEST(Hierarchy, MinOutgoingOracle) {
  auto g = WeightedGraph::from_edges(
      4, {{0, 1, 4}, {1, 2, 2}, {2, 3, 6}, {0, 3, 8}});
  auto ref = build_reference_hierarchy(g);
  // Singleton {1}: incident weights 4 and 2 -> min 2.
  const auto f1 = ref.hierarchy->fragment_at(1, 0);
  ASSERT_NE(f1, kNoFragment);
  auto mo = ref.hierarchy->min_outgoing_edge(f1);
  ASSERT_TRUE(mo.has_value());
  EXPECT_EQ(mo->w, 2u);
  // The top fragment has no outgoing edge.
  EXPECT_FALSE(ref.hierarchy->min_outgoing_edge(ref.hierarchy->top())
                   .has_value());
}

}  // namespace
}  // namespace ssmst
