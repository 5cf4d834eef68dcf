#include "mstalgo/reference_hierarchy.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/bits.hpp"

namespace ssmst {

namespace {

using EdgeKey = std::tuple<Weight, std::uint64_t, std::uint64_t>;

EdgeKey edge_key(const WeightedGraph& g, NodeId a, NodeId b, Weight w) {
  const std::uint64_t ia = g.id(a);
  const std::uint64_t ib = g.id(b);
  return {w, std::min(ia, ib), std::max(ia, ib)};
}

struct Forest {
  std::vector<NodeId> parent;  // kNoNode for roots

  explicit Forest(NodeId n) : parent(n, kNoNode) {}

  /// Reverses parent pointers along the path from the current root to w,
  /// making w the fragment's root (the paper's "change-root" transfer).
  void reroot_at(NodeId w) {
    NodeId prev = kNoNode;
    NodeId cur = w;
    while (cur != kNoNode) {
      const NodeId next = parent[cur];
      parent[cur] = prev;
      prev = cur;
      cur = next;
    }
  }
};

struct Selection {
  NodeId inside = kNoNode;   // w: endpoint inside the fragment
  NodeId outside = kNoNode;  // x: endpoint outside
  Weight w = 0;
};

ReferenceResult build_hierarchy_impl(const WeightedGraph& g,
                                     const std::vector<bool>* allowed);

}  // namespace

ReferenceResult build_reference_hierarchy(const WeightedGraph& g) {
  return build_hierarchy_impl(g, nullptr);
}

ReferenceResult build_hierarchy_on_tree(const WeightedGraph& g,
                                        const std::vector<bool>& in_tree) {
  return build_hierarchy_impl(g, &in_tree);
}

namespace {

ReferenceResult build_hierarchy_impl(const WeightedGraph& g,
                                     const std::vector<bool>* allowed) {
  if (!g.is_connected()) {
    throw std::invalid_argument("SYNC_MST requires a connected graph");
  }
  const NodeId n = g.n();
  Forest forest(n);
  // The recorded fragments are distinct sets (every active fragment merges
  // in its phase) forming a laminar family over n nodes: fewer than 2n.
  std::vector<Fragment> recorded;
  recorded.reserve(2 * std::size_t{n});
  std::uint64_t schedule_rounds = 0;

  bool done = n == 1;
  if (done) {
    Fragment top;
    top.root = 0;
    top.level = 0;
    top.nodes = {0};
    recorded.push_back(top);
  }

  // Per-phase scratch, allocated once and reset at the start of each phase.
  struct Active {
    NodeId root;
    std::vector<NodeId> members;
    Selection sel;
    bool spans = false;
  };
  std::vector<Active> active;
  std::vector<NodeId> root_now(n);
  std::vector<NodeId> chain;
  std::vector<std::uint64_t> size_of(n);
  std::vector<std::uint32_t> active_of(n);  // root -> active fragment index

  // The order edge_key defines, with the weights compared before any
  // identifier is loaded: identifiers only break weight ties.
  auto lighter = [&](NodeId v, const HalfEdge& he, const Selection& cur) {
    if (he.w != cur.w) return he.w < cur.w;
    return edge_key(g, v, he.to, he.w) <
           edge_key(g, cur.inside, cur.outside, cur.w);
  };

  for (unsigned phase = 0; !done; ++phase) {
    if (phase > 2 * bits_for_values(n) + 4) {
      throw std::logic_error("SYNC_MST reference failed to terminate");
    }
    const std::uint64_t cap = (2ULL << phase) - 1;  // 2^(phase+1) - 1

    // 1. Resolve every node's current root once — a memoized walk up the
    //    parent pointers, O(n) amortized for the whole phase instead of a
    //    chain walk per (root, node) pair — then decide activity by size
    //    and group the members of active fragments in node-index order.
    root_now.assign(n, kNoNode);
    for (NodeId v = 0; v < n; ++v) {
      if (root_now[v] != kNoNode) continue;
      NodeId cur = v;
      chain.clear();
      while (root_now[cur] == kNoNode && forest.parent[cur] != kNoNode) {
        chain.push_back(cur);
        cur = forest.parent[cur];
      }
      const NodeId r = root_now[cur] == kNoNode ? cur : root_now[cur];
      root_now[cur] = r;
      for (NodeId u : chain) root_now[u] = r;
    }
    size_of.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) ++size_of[root_now[v]];

    active.clear();
    active_of.assign(n, kNoFragment);
    for (NodeId r = 0; r < n; ++r) {
      if (forest.parent[r] != kNoNode) continue;  // not a root
      if (size_of[r] > cap) continue;             // inactive this phase
      active_of[r] = static_cast<std::uint32_t>(active.size());
      active.push_back(Active{r, {}, {}, false});
      active.back().members.reserve(size_of[r]);
    }
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t idx = active_of[root_now[v]];
      if (idx != kNoFragment) active[idx].members.push_back(v);
    }

    // 2. Each active fragment finds its minimum outgoing edge.
    for (Active& a : active) {
      bool found = false;
      for (NodeId v : a.members) {
        for (const HalfEdge& he : g.neighbors(v)) {
          if (allowed && !(*allowed)[he.edge_index]) continue;
          if (root_now[he.to] == a.root) continue;  // internal
          if (found && !lighter(v, he, a.sel)) continue;
          found = true;
          a.sel = Selection{v, he.to, he.w};
        }
      }
      a.spans = !found;
    }

    // 3. Record active fragments (the nodes of H_M) with their candidates.
    //    The member lists move into the record; steps 4-5 need only `sel`.
    for (Active& a : active) {
      Fragment f;
      f.root = a.root;
      f.level = static_cast<int>(phase);
      f.nodes = std::move(a.members);
      if (!a.spans) {
        f.has_candidate = true;
        f.cand_inside = a.sel.inside;
        f.cand_outside = a.sel.outside;
        f.cand_weight = a.sel.w;
      }
      recorded.push_back(std::move(f));
      if (a.spans) done = true;
    }
    schedule_rounds = 22ULL << phase;  // end of phase i = 22*2^i
    if (done) break;

    // 4. Root transfer: every active fragment re-roots at the inner
    //    endpoint of its selected edge.
    for (const Active& a : active) forest.reroot_at(a.sel.inside);

    // 5. Handshake & hook (simultaneous at round (11+11)*2^i - 1):
    //    mutual selection of the same edge -> the smaller-ID endpoint
    //    hooks onto the larger-ID one; otherwise the selecting endpoint
    //    hooks onto the outside endpoint.
    for (const Active& a : active) {
      const NodeId w = a.sel.inside;
      const NodeId x = a.sel.outside;
      const std::uint32_t fx = active_of[root_now[x]];
      bool mutual = false;
      if (fx != kNoFragment) {
        const Selection& other = active[fx].sel;
        mutual = other.inside == x && other.outside == w;
      }
      if (mutual && g.id(x) < g.id(w)) {
        continue;  // we win; x's side will hook onto w
      }
      forest.parent[w] = x;
    }
  }

  // Assemble outputs.
  NodeId final_root = kNoNode;
  for (NodeId v = 0; v < n; ++v) {
    if (forest.parent[v] == kNoNode) {
      if (final_root != kNoNode) {
        throw std::logic_error("SYNC_MST reference left two roots");
      }
      final_root = v;
    }
  }
  ReferenceResult res;
  res.tree = std::make_unique<RootedTree>(
      RootedTree::from_parents(g, final_root, forest.parent));
  // The recorded root of each fragment is its root at construction time;
  // later root transfers may have re-oriented the fragment's edges. The
  // canonical root r(F) is the member closest to the final tree's root: a
  // fragment is a connected subtree of T, so that is its unique shallowest
  // member.
  const RootedTree& t = *res.tree;
  for (Fragment& f : recorded) {
    f.build_root = f.root;
    f.root = *std::min_element(
        f.nodes.begin(), f.nodes.end(),
        [&](NodeId a, NodeId b) { return t.depth(a) < t.depth(b); });
  }
  res.hierarchy = std::make_unique<FragmentHierarchy>(*res.tree,
                                                      std::move(recorded));
  res.schedule_rounds = schedule_rounds;
  return res;
}

}  // namespace

}  // namespace ssmst
