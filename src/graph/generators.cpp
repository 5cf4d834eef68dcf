#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace ssmst::gen {

namespace {

/// Assigns distinct random weights (a permutation of 3..3m+2) to the given
/// endpoint pairs and builds the graph.
WeightedGraph build(NodeId n, std::vector<std::pair<NodeId, NodeId>> ends,
                    Rng& rng) {
  std::vector<Weight> pool(ends.size());
  std::iota(pool.begin(), pool.end(), Weight{3});
  rng.shuffle(pool);
  std::vector<Edge> edges;
  edges.reserve(ends.size());
  for (std::size_t i = 0; i < ends.size(); ++i) {
    edges.push_back(Edge{ends[i].first, ends[i].second, pool[i]});
  }
  return WeightedGraph::from_edges(n, std::move(edges));
}

/// Duplicate-edge filter over undirected edges, keyed on (min << 32) | max.
class EdgeFilter {
 public:
  explicit EdgeFilter(std::size_t expected) { keys_.reserve(expected); }
  /// Adds {u, v}; false if it was already present.
  bool insert(NodeId u, NodeId v) {
    const auto [lo, hi] = std::minmax(u, v);
    return keys_.insert((std::uint64_t{lo} << 32) | hi).second;
  }
  std::size_t size() const { return keys_.size(); }

 private:
  // ssmst-lint: allow(R4): membership only — never iterated, so no
  // generated edge depends on the hash layout.
  std::unordered_set<std::uint64_t> keys_;
};

void add_random_chords(NodeId n, NodeId extra,
                       std::vector<std::pair<NodeId, NodeId>>& ends,
                       Rng& rng, std::uint32_t max_deg = 0) {
  const std::uint64_t max_possible =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  EdgeFilter present(static_cast<std::size_t>(
      std::min<std::uint64_t>(ends.size() + extra, max_possible)));
  std::vector<std::uint32_t> deg(n, 0);
  for (auto [u, v] : ends) {
    present.insert(u, v);
    ++deg[u];
    ++deg[v];
  }
  std::uint64_t budget = std::min<std::uint64_t>(extra, max_possible -
                                                            present.size());
  std::uint64_t attempts = 0;
  const std::uint64_t attempt_cap = 50ULL * (budget + 1) * (n + 1);
  while (budget > 0 && attempts < attempt_cap) {
    ++attempts;
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (max_deg != 0 && (deg[u] >= max_deg || deg[v] >= max_deg)) continue;
    if (!present.insert(u, v)) continue;
    ends.push_back({std::min(u, v), std::max(u, v)});
    ++deg[u];
    ++deg[v];
    --budget;
  }
}

}  // namespace

WeightedGraph path(NodeId n, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId v = 1; v < n; ++v) ends.push_back({v - 1, v});
  return build(n, std::move(ends), rng);
}

WeightedGraph cycle(NodeId n, Rng& rng) {
  if (n < 3) throw std::invalid_argument("cycle needs n >= 3");
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId v = 1; v < n; ++v) ends.push_back({v - 1, v});
  ends.push_back({n - 1, 0});
  return build(n, std::move(ends), rng);
}

WeightedGraph grid(NodeId rows, NodeId cols, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  auto at = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) ends.push_back({at(r, c), at(r, c + 1)});
      if (r + 1 < rows) ends.push_back({at(r, c), at(r + 1, c)});
    }
  }
  return build(rows * cols, std::move(ends), rng);
}

WeightedGraph star(NodeId n, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId v = 1; v < n; ++v) ends.push_back({NodeId{0}, v});
  return build(n, std::move(ends), rng);
}

WeightedGraph complete(NodeId n, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) ends.push_back({u, v});
  }
  return build(n, std::move(ends), rng);
}

WeightedGraph caterpillar(NodeId spine, NodeId legs, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  NodeId next = spine;
  for (NodeId s = 0; s < spine; ++s) {
    if (s + 1 < spine) ends.push_back({s, s + 1});
    for (NodeId l = 0; l < legs; ++l) ends.push_back({s, next++});
  }
  return build(next, std::move(ends), rng);
}

WeightedGraph binary_tree(NodeId n, NodeId extra_edges, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId v = 1; v < n; ++v) ends.push_back({(v - 1) / 2, v});
  add_random_chords(n, extra_edges, ends, rng);
  return build(n, std::move(ends), rng);
}

WeightedGraph random_connected(NodeId n, NodeId extra_edges, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = static_cast<NodeId>(rng.below(v));
    ends.push_back({p, v});
  }
  add_random_chords(n, extra_edges, ends, rng);
  return build(n, std::move(ends), rng);
}

WeightedGraph random_bounded_degree(NodeId n, std::uint32_t max_deg,
                                    NodeId extra_edges, Rng& rng) {
  if (max_deg < 2) throw std::invalid_argument("max_deg must be >= 2");
  std::vector<std::pair<NodeId, NodeId>> ends;
  std::vector<std::uint32_t> deg(n, 0);
  std::vector<NodeId> eligible = {0};
  for (NodeId v = 1; v < n; ++v) {
    // Attach to a uniformly random node that still has degree budget,
    // reserving one slot at v for its own future children.
    const std::size_t idx = rng.below(eligible.size());
    const NodeId p = eligible[idx];
    ends.push_back({p, v});
    ++deg[p];
    ++deg[v];
    if (deg[p] >= max_deg) {
      eligible[idx] = eligible.back();
      eligible.pop_back();
    }
    if (deg[v] < max_deg) eligible.push_back(v);
    if (eligible.empty()) {
      throw std::invalid_argument("degree bound too tight for n");
    }
  }
  add_random_chords(n, extra_edges, ends, rng, max_deg);
  return build(n, std::move(ends), rng);
}

WeightedGraph power_law(NodeId n, std::uint32_t attach, Rng& rng) {
  if (n < 2) throw std::invalid_argument("power_law needs n >= 2");
  if (attach == 0) throw std::invalid_argument("attach must be >= 1");
  std::vector<std::pair<NodeId, NodeId>> ends;
  // Endpoint multiset: sampling uniformly from it is degree-proportional
  // sampling, the classic Barabasi-Albert trick.
  std::vector<NodeId> endpoints;
  std::vector<NodeId> picked;
  for (NodeId v = 1; v < n; ++v) {
    const std::uint32_t k = std::min<std::uint32_t>(attach, v);
    picked.clear();
    while (picked.size() < k) {
      // Degree-proportional draw with a uniform fallback so duplicate
      // targets can't stall small dense prefixes.
      NodeId t = endpoints.empty()
                     ? static_cast<NodeId>(rng.below(v))
                     : endpoints[rng.below(endpoints.size())];
      if (std::find(picked.begin(), picked.end(), t) != picked.end()) {
        t = static_cast<NodeId>(rng.below(v));
        if (std::find(picked.begin(), picked.end(), t) != picked.end()) {
          continue;
        }
      }
      picked.push_back(t);
    }
    for (NodeId t : picked) {
      ends.push_back({t, v});
      endpoints.push_back(t);
      endpoints.push_back(v);
    }
  }
  return build(n, std::move(ends), rng);
}

WeightedGraph expander(NodeId n, std::uint32_t matchings, Rng& rng) {
  if (n < 3) throw std::invalid_argument("expander needs n >= 3");
  std::vector<std::pair<NodeId, NodeId>> ends;
  EdgeFilter present(std::size_t{n} * (matchings + 1));
  auto add = [&](NodeId u, NodeId v) {
    if (!present.insert(u, v)) return;
    ends.push_back({std::min(u, v), std::max(u, v)});
  };
  for (NodeId v = 0; v < n; ++v) add(v, (v + 1) % n);
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (std::uint32_t m = 0; m < matchings; ++m) {
    rng.shuffle(perm);
    for (NodeId i = 0; i + 1 < n; i += 2) add(perm[i], perm[i + 1]);
  }
  return build(n, std::move(ends), rng);
}

WeightedGraph figure1_example() {
  // 18 nodes named a..r (indices 0..17). A fixed weighted graph whose MST
  // produces a multi-level fragment hierarchy akin to the paper's Figure 1.
  // Node indices: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10 l=11 m=12
  //               n=13 o=14 p=15 q=16 r=17
  const NodeId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6, h = 7, i = 8,
               j = 9, k = 10, l = 11, m = 12, nn = 13, o = 14, p = 15, q = 16,
               r = 17;
  std::vector<Edge> edges = {
      // tree-ish backbone (weights chosen to mirror the paper's values)
      {a, b, 2},  {b, g, 18}, {f, g, 6},  {c, g, 12}, {c, h, 10}, {d, h, 21},
      {e, i, 15}, {h, i, 11}, {g, l, 22}, {j, k, 4},  {k, o, 16}, {o, p, 8},
      {k, l, 20}, {l, q, 3},  {m, q, 17}, {m, r, 7},  {nn, r, 14},
      // non-tree chords making verification non-trivial
      {a, f, 25}, {b, c, 27}, {d, e, 29}, {i, nn, 31}, {j, o, 33}, {p, q, 35},
      {e, nn, 37}, {f, j, 39},
  };
  auto graph = WeightedGraph::from_edges(18, std::move(edges));
  // Stable, human-friendly identifiers 1..18 in alphabetical node order.
  std::vector<std::uint64_t> ids(18);
  std::iota(ids.begin(), ids.end(), 1);
  graph.set_ids(std::move(ids));
  return graph;
}

std::string figure1_name(NodeId v) {
  return std::string(1, static_cast<char>('a' + v));
}

std::vector<NamedGraph> standard_suite(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedGraph> suite;
  suite.push_back({"path32", path(32, rng)});
  suite.push_back({"cycle33", cycle(33, rng)});
  suite.push_back({"grid6x7", grid(6, 7, rng)});
  suite.push_back({"star24", star(24, rng)});
  suite.push_back({"complete12", complete(12, rng)});
  suite.push_back({"caterpillar8x3", caterpillar(8, 3, rng)});
  suite.push_back({"btree31+10", binary_tree(31, 10, rng)});
  suite.push_back({"rand64+48", random_connected(64, 48, rng)});
  suite.push_back({"rand100+30", random_connected(100, 30, rng)});
  suite.push_back({"bdeg96d4", random_bounded_degree(96, 4, 20, rng)});
  suite.push_back({"figure1", figure1_example()});
  return suite;
}

}  // namespace ssmst::gen
