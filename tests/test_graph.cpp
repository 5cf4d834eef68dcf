#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/tree.hpp"

namespace ssmst {
namespace {

WeightedGraph triangle() {
  return WeightedGraph::from_edges(
      3, {{0, 1, 5}, {1, 2, 7}, {0, 2, 9}});
}

TEST(Graph, BasicAccessors) {
  auto g = triangle();
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, PortsAreConsistent) {
  auto g = triangle();
  for (NodeId v = 0; v < g.n(); ++v) {
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      const HalfEdge& he = g.half_edge(v, p);
      const HalfEdge& back = g.half_edge(he.to, he.rev_port);
      EXPECT_EQ(back.to, v);
      EXPECT_EQ(back.w, he.w);
      EXPECT_EQ(back.rev_port, p);
      EXPECT_EQ(back.edge_index, he.edge_index);
    }
  }
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 0, 1}}),
               std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, 1}, {1, 0, 2}}),
               std::invalid_argument);
}

TEST(Graph, RejectsOutOfRange) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 5, 1}}),
               std::invalid_argument);
}

TEST(Graph, IdsAreUniquePermutation) {
  Rng rng(1);
  auto g = gen::random_connected(50, 30, rng);
  std::set<std::uint64_t> ids;
  for (NodeId v = 0; v < g.n(); ++v) ids.insert(g.id(v));
  EXPECT_EQ(ids.size(), g.n());
  // node_of_id is the inverse.
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(g.node_of_id(g.id(v)), v);
  }
}

TEST(Graph, SetIdsRejectsDuplicates) {
  auto g = triangle();
  std::vector<std::uint64_t> before;
  for (NodeId v = 0; v < g.n(); ++v) before.push_back(g.id(v));
  EXPECT_THROW(g.set_ids({1, 1, 2}), std::invalid_argument);
  // A rejected call leaves the identifiers and their index unchanged.
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(g.id(v), before[v]);
    EXPECT_EQ(g.node_of_id(before[v]), v);
  }
  g.set_ids({30, 10, 20});
  EXPECT_EQ(g.node_of_id(10), 1u);
  EXPECT_EQ(g.node_of_id(30), 0u);
  EXPECT_EQ(g.node_of_id(before[0]), kNoNode);
}

TEST(Graph, DistinctWeightsDetectsATie) {
  EXPECT_TRUE(triangle().has_distinct_weights());
  const auto tie =
      WeightedGraph::from_edges(3, {{0, 1, 5}, {1, 2, 7}, {0, 2, 5}});
  EXPECT_FALSE(tie.has_distinct_weights());
}

TEST(Graph, Connectivity) {
  auto g = triangle();
  EXPECT_TRUE(g.is_connected());
  auto h = WeightedGraph::from_edges(4, {{0, 1, 1}, {2, 3, 2}});
  EXPECT_FALSE(h.is_connected());
}

TEST(Graph, BfsDistances) {
  Rng rng(2);
  auto g = gen::path(5, rng);
  const auto d = g.bfs_distances(0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
  EXPECT_EQ(g.hop_diameter(), 4u);
}

TEST(Graph, OmegaPrimeDistinctAndTreeFavored) {
  // Equal weights: tree edges must come first, then id order.
  auto g = WeightedGraph::from_edges(3, {{0, 1, 5}, {1, 2, 5}, {0, 2, 5}});
  std::vector<bool> in_tree = {true, false, false};
  auto key = omega_prime(g, in_tree);
  std::set<CompositeWeight> uniq(key.begin(), key.end());
  EXPECT_EQ(uniq.size(), 3u);
  EXPECT_LT(key[0], key[1]);
  EXPECT_LT(key[0], key[2]);
}

TEST(Generators, AllConnectedDistinctWeights) {
  for (const auto& [name, g] : gen::standard_suite(123)) {
    EXPECT_TRUE(g.is_connected()) << name;
    EXPECT_TRUE(g.has_distinct_weights()) << name;
    EXPECT_GE(g.m(), g.n() - 1) << name;
  }
}

TEST(Generators, GridShape) {
  Rng rng(3);
  auto g = gen::grid(3, 4, rng);
  EXPECT_EQ(g.n(), 12u);
  EXPECT_EQ(g.m(), 3u * 3 + 2u * 4);  // rows*(cols-1) + (rows-1)*cols
}

TEST(Generators, BoundedDegreeRespectsCap) {
  Rng rng(4);
  auto g = gen::random_bounded_degree(80, 3, 30, rng);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_LE(g.degree(v), 3u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, Figure1ExampleShape) {
  auto g = gen::figure1_example();
  EXPECT_EQ(g.n(), 18u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.has_distinct_weights());
  EXPECT_EQ(gen::figure1_name(0), "a");
  EXPECT_EQ(gen::figure1_name(17), "r");
}

TEST(RootedTree, FromParentsBasics) {
  Rng rng(5);
  auto g = gen::path(6, rng);
  std::vector<NodeId> parent = {kNoNode, 0, 1, 2, 3, 4};
  auto t = RootedTree::from_parents(g, 0, parent);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.height(), 5u);
  EXPECT_EQ(t.depth(5), 5u);
  EXPECT_EQ(t.subtree_size(0), 6u);
  EXPECT_EQ(t.subtree_size(3), 3u);
  EXPECT_TRUE(t.is_ancestor(2, 5));
  EXPECT_FALSE(t.is_ancestor(5, 2));
  EXPECT_EQ(t.tree_distance(1, 4), 3u);
}

TEST(RootedTree, DfsPreorderCoversAll) {
  Rng rng(6);
  auto g = gen::random_connected(40, 25, rng);
  std::vector<NodeId> parent(g.n(), kNoNode);
  // BFS tree from 0.
  auto dist = g.bfs_distances(0);
  for (NodeId v = 1; v < g.n(); ++v) {
    for (const HalfEdge& he : g.neighbors(v)) {
      if (dist[he.to] + 1 == dist[v]) {
        parent[v] = he.to;
        break;
      }
    }
  }
  auto t = RootedTree::from_parents(g, 0, parent);
  EXPECT_EQ(t.dfs_preorder().size(), g.n());
  EXPECT_EQ(t.dfs_preorder().front(), 0u);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(t.dfs_preorder()[t.dfs_index(v)], v);
    if (v != t.root()) {
      // Parent precedes child in pre-order.
      EXPECT_LT(t.dfs_index(t.parent(v)), t.dfs_index(v));
    }
  }
}

TEST(RootedTree, RejectsCycle) {
  Rng rng(7);
  auto g = gen::cycle(4, rng);
  std::vector<NodeId> parent = {kNoNode, 2, 3, 1};  // 1->2->3->1 cycle
  EXPECT_THROW(RootedTree::from_parents(g, 0, parent),
               std::invalid_argument);
}

TEST(RootedTree, RejectsNonTreeEdgeParent) {
  Rng rng(8);
  auto g = gen::path(4, rng);
  std::vector<NodeId> parent = {kNoNode, 0, 1, 0};  // (3,0) is not an edge
  EXPECT_THROW(RootedTree::from_parents(g, 0, parent),
               std::invalid_argument);
}

}  // namespace
}  // namespace ssmst
