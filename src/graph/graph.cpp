#include "graph/graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace ssmst {

namespace {

/// The (id, node) pairs sorted by id: node_of_id's search index.
std::vector<std::pair<std::uint64_t, NodeId>> sorted_id_index(
    const std::vector<std::uint64_t>& ids) {
  std::vector<std::pair<std::uint64_t, NodeId>> index(ids.size());
  for (NodeId v = 0; v < ids.size(); ++v) index[v] = {ids[v], v};
  std::sort(index.begin(), index.end());
  return index;
}

}  // namespace

WeightedGraph WeightedGraph::from_edges(NodeId n, std::vector<Edge> edges) {
  WeightedGraph g;
  // Pass 1: validate, canonicalize endpoint order, count degrees.
  std::vector<std::uint32_t> deg(n, 0);
  for (Edge& e : edges) {
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("edge endpoint out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("self-loop not allowed");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
    ++deg[e.u];
    ++deg[e.v];
  }
  // Duplicate detection on a sorted key array (no per-edge set nodes).
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(edges.size());
    for (const Edge& e : edges) {
      keys.push_back((static_cast<std::uint64_t>(e.u) << 32) | e.v);
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      throw std::invalid_argument("duplicate edge");
    }
  }
  // Pass 2: prefix sums, then fill both halves of every edge. Ports are
  // positions in insertion order, matching the old nested layout exactly.
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + deg[v];
    g.max_degree_ = std::max(g.max_degree_, deg[v]);
  }
  g.half_edges_.resize(2 * edges.size());
  std::vector<std::uint32_t> cursor(n, 0);
  for (std::uint32_t idx = 0; idx < edges.size(); ++idx) {
    const Edge& e = edges[idx];
    const std::uint32_t port_u = cursor[e.u]++;
    const std::uint32_t port_v = cursor[e.v]++;
    g.half_edges_[g.offsets_[e.u] + port_u] = HalfEdge{e.v, e.w, port_v, idx};
    g.half_edges_[g.offsets_[e.v] + port_v] = HalfEdge{e.u, e.w, port_u, idx};
  }
  g.edges_ = std::move(edges);
  // Default identifiers: a fixed pseudo-random permutation of [0, n), so
  // that ID order differs from index order (algorithms must not rely on
  // index order). Deterministic so tests are stable.
  g.ids_.resize(n);
  for (NodeId v = 0; v < n; ++v) g.ids_[v] = v;
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  for (NodeId v = n; v > 1; --v) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    std::swap(g.ids_[v - 1], g.ids_[s % v]);
  }
  g.build_indices();
  return g;
}

void WeightedGraph::build_indices() {
  const NodeId nn = n();
  // Hub index: nodes above kHubDegree get a (neighbour, port) list sorted
  // by neighbour id, packed CSR-style into hub_entries_.
  hub_off_.assign(static_cast<std::size_t>(nn) + 1, 0);
  for (NodeId v = 0; v < nn; ++v) {
    hub_off_[v + 1] =
        hub_off_[v] + (degree(v) > kHubDegree ? degree(v) : 0);
  }
  hub_entries_.resize(hub_off_[nn]);
  for (NodeId v = 0; v < nn; ++v) {
    if (degree(v) <= kHubDegree) continue;
    const auto nbrs = neighbors(v);
    auto* out = hub_entries_.data() + hub_off_[v];
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      out[p] = {nbrs[p].to, p};
    }
    std::sort(out, out + nbrs.size());
  }
  id_index_ = sorted_id_index(ids_);
}

NodeId WeightedGraph::node_of_id(std::uint64_t id) const {
  const auto it = std::lower_bound(
      id_index_.begin(), id_index_.end(), id,
      [](const std::pair<std::uint64_t, NodeId>& e, std::uint64_t x) {
        return e.first < x;
      });
  if (it != id_index_.end() && it->first == id) return it->second;
  return kNoNode;
}

void WeightedGraph::set_ids(std::vector<std::uint64_t> ids) {
  if (ids.size() != n()) {
    throw std::invalid_argument("id vector size mismatch");
  }
  // Uniqueness is checked on the sorted index itself, built into a
  // temporary so a rejected call leaves ids_ and id_index_ unchanged.
  auto index = sorted_id_index(ids);
  if (std::adjacent_find(index.begin(), index.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }) != index.end()) {
    throw std::invalid_argument("node identifiers must be unique");
  }
  ids_ = std::move(ids);
  id_index_ = std::move(index);
}

bool WeightedGraph::has_distinct_weights() const {
  std::vector<Weight> ws(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) ws[e] = edges_[e].w;
  std::sort(ws.begin(), ws.end());
  return std::adjacent_find(ws.begin(), ws.end()) == ws.end();
}

bool WeightedGraph::is_connected() const {
  if (n() == 0) return true;
  const auto dist = bfs_distances(0);
  return std::none_of(dist.begin(), dist.end(), [](std::uint32_t d) {
    return d == std::numeric_limits<std::uint32_t>::max();
  });
}

std::uint32_t WeightedGraph::port_to(NodeId v, NodeId u) const {
  const auto nbrs = neighbors(v);
  if (nbrs.size() <= kHubDegree) {
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      if (nbrs[p].to == u) return p;
    }
    return kNoPort;
  }
  const auto first = hub_entries_.begin() + hub_off_[v];
  const auto last = hub_entries_.begin() + hub_off_[v + 1];
  const auto it = std::lower_bound(
      first, last, u,
      [](const std::pair<NodeId, std::uint32_t>& e, NodeId x) {
        return e.first < x;
      });
  if (it != last && it->first == u) return it->second;
  return kNoPort;
}

std::vector<std::uint32_t> WeightedGraph::bfs_distances(NodeId src) const {
  std::vector<std::uint32_t> dist(n(),
                                  std::numeric_limits<std::uint32_t>::max());
  std::queue<NodeId> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const HalfEdge& he : neighbors(v)) {
      if (dist[he.to] == std::numeric_limits<std::uint32_t>::max()) {
        dist[he.to] = dist[v] + 1;
        q.push(he.to);
      }
    }
  }
  return dist;
}

std::uint32_t WeightedGraph::hop_diameter() const {
  std::uint32_t diam = 0;
  for (NodeId v = 0; v < n(); ++v) {
    for (std::uint32_t d : bfs_distances(v)) {
      if (d != std::numeric_limits<std::uint32_t>::max()) {
        diam = std::max(diam, d);
      }
    }
  }
  return diam;
}

std::string WeightedGraph::summary() const {
  std::ostringstream os;
  os << "graph(n=" << n() << ", m=" << m() << ", maxdeg=" << max_degree_
     << ")";
  return os.str();
}

std::vector<CompositeWeight> omega_prime(const WeightedGraph& g,
                                         const std::vector<bool>& in_tree) {
  std::vector<CompositeWeight> out(g.m());
  for (std::uint32_t e = 0; e < g.m(); ++e) {
    const Edge& edge = g.edge(e);
    const std::uint64_t iu = g.id(edge.u);
    const std::uint64_t iv = g.id(edge.v);
    out[e] = CompositeWeight{
        edge.w,
        static_cast<std::uint8_t>(in_tree[e] ? 0 : 1),
        std::min(iu, iv),
        std::max(iu, iv),
    };
  }
  return out;
}

}  // namespace ssmst
