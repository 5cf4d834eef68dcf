#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "labels/marker.hpp"
#include "labels/verify1.hpp"
#include "util/bits.hpp"
#include "verify/verifier.hpp"

namespace ssmst {
namespace {

/// Label reader over plain vectors (centralized test fixture); `Labels`
/// is NodeLabels for the base check and KkpLabels for the KKP check.
template <typename Labels>
struct VecReader {
  const WeightedGraph& g;
  NodeId v;
  const std::vector<Labels>& all;
  const std::vector<std::uint32_t>& ports;
  const Labels& labels(std::uint32_t port) const {
    return all[g.half_edge(v, port).to];
  }
  std::uint32_t parent_port(std::uint32_t port) const {
    return ports[g.half_edge(v, port).to];
  }
};

std::string check_all(const WeightedGraph& g,
                      const std::vector<NodeLabels>& labels,
                      const std::vector<std::uint32_t>& ports) {
  for (NodeId v = 0; v < g.n(); ++v) {
    const VecReader<NodeLabels> reader{g, v, labels, ports};
    if (const LabelViolation e =
            verify_labels_1round(g, v, labels[v], ports[v], reader);
        e != LabelViolation::kNone) {
      return "node " + std::to_string(v) + ": " + describe(e);
    }
  }
  return {};
}

TEST(Marker, LabelsPass1RoundChecksOnSuite) {
  for (const auto& [name, g] : gen::standard_suite(808)) {
    auto m = make_labels(g);
    EXPECT_EQ(check_all(g, m.labels, m.parent_ports()), "") << name;
  }
}

TEST(Marker, LabelsPass1RoundChecksOnNonMstTree) {
  // Well-forming holds for any spanning tree; only minimality fails, and
  // minimality is not a 1-round string property.
  Rng rng(1);
  auto g = gen::random_connected(60, 60, rng);
  std::vector<bool> bad;
  ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
  auto m = make_labels_for_tree(g, bad);
  EXPECT_EQ(check_all(g, m.labels, m.parent_ports()), "");
}

TEST(Marker, ScheduleIsLinear) {
  Rng rng(2);
  for (NodeId n : {64u, 256u, 1024u}) {
    auto g = gen::random_connected(n, n, rng);
    auto m = make_labels(g);
    EXPECT_LE(m.schedule_rounds, 44ULL * n + 64) << n;
  }
}

TEST(Marker, LabelBitsLogarithmic) {
  Rng rng(3);
  for (NodeId n : {64u, 256u, 1024u, 4096u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    auto m = make_labels(g);
    Weight maxw = 0;
    for (const Edge& e : g.edges()) maxw = std::max(maxw, e.w);
    std::size_t max_bits = 0;
    for (NodeId v = 0; v < n; ++v) {
      max_bits =
          std::max(max_bits, label_bits(m.labels[v], n, maxw, g.degree(v)));
    }
    EXPECT_LE(max_bits, 40u * static_cast<std::size_t>(ceil_log2(n) + 1))
        << "n=" << n;
  }
}

TEST(Marker, KkpLabelBitsQuadraticInLogN) {
  // The KKP baseline stores Theta(log^2 n) bits; ours stays O(log n): the
  // per-node overhead ratio kkp/ours must grow monotonically with n
  // (measured: 1.38 at n=64 up to 1.71 at n=4096 on this family).
  Rng rng(4);
  double prev_ratio = 0.0;
  for (NodeId n : {64u, 256u, 1024u, 4096u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    auto m = make_labels(g);
    Weight maxw = 0;
    for (const Edge& e : g.edges()) maxw = std::max(maxw, e.w);
    std::size_t ours = 0, kkp = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      ours = std::max(ours, label_bits(m.labels[v], n, maxw, g.degree(v)));
      kkp = std::max(kkp, kkp_label_bits(m.kkp_label(v), n, maxw,
                                         g.degree(v)));
    }
    const double ratio = static_cast<double>(kkp) / static_cast<double>(ours);
    EXPECT_GT(ratio, prev_ratio) << "n=" << n;
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 1.6);  // clear divergence at n=4096
}

// ---- Mutation testing: every string-condition violation is caught -------

struct Mutation {
  const char* name;
  void (*apply)(std::vector<NodeLabels>&, std::vector<std::uint32_t>&,
                const RootedTree&);
};

NodeId some_non_root(const RootedTree& t) {
  return t.root() == 0 ? 1 : 0;
}

TEST(Mutations, EveryStringViolationDetected) {
  Rng rng(5);
  auto g = gen::random_connected(80, 50, rng);
  auto fresh = [&] { return make_labels(g); };

  const std::vector<Mutation> mutations = {
      {"RS3 level0 not one",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) {
         l[some_non_root(t)].roots()[0] = RootsEntry::kStar;
       }},
      {"RS4 non-root top entry",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) {
         auto r = l[some_non_root(t)].roots();
         r.back() = RootsEntry::kOne;
       }},
      {"RS2 root with zero",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) { l[t.root()].roots().back() = RootsEntry::kZero; }},
      {"RS0 one after zero",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) {
         auto r = l[some_non_root(t)].roots();
         if (r.size() >= 3) {
           r[1] = RootsEntry::kZero;
           r[2] = RootsEntry::kOne;
         }
       }},
      {"EndP star mismatch",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) {
         l[some_non_root(t)].endp()[0] = EndpEntry::kStar;
       }},
      {"EPS5 detached node",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) {
         const NodeId v = some_non_root(t);
         for (auto& e : l[v].endp()) {
           if (e == EndpEntry::kUp) e = EndpEntry::kNone;
         }
         for (auto& b : l[v].parents()) b = 0;
       }},
      {"SP wrong distance",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) { l[some_non_root(t)].sp_dist += 5; }},
      {"NumK wrong count",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) { l[some_non_root(t)].subtree_count += 1; }},
      {"NumK disagreeing n",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) { l[some_non_root(t)].n_claim += 1; }},
      {"partition orphan part",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) {
         l[some_non_root(t)].top_part_root_id = 999999;
       }},
      {"EPS1 duplicated endpoint",
       [](std::vector<NodeLabels>& l, std::vector<std::uint32_t>&,
          const RootedTree& t) {
         // Claim an extra endpoint at some node that has none at level 1.
         for (NodeId v = 0; v < l.size(); ++v) {
           if (v != t.root() && l[v].endp().size() > 1 &&
               l[v].endp()[1] == EndpEntry::kNone) {
             l[v].endp()[1] = EndpEntry::kUp;
             return;
           }
         }
       }},
  };

  for (const auto& m : mutations) {
    auto out = fresh();
    auto labels = out.labels;
    auto ports = out.parent_ports();
    m.apply(labels, ports, *out.tree);
    EXPECT_NE(check_all(g, labels, ports), "") << m.name;
  }
}

TEST(Mutations, ComponentCorruptionDetected) {
  // Re-pointing a node's parent to a non-tree neighbour breaks SP.
  Rng rng(6);
  auto g = gen::complete(12, rng);
  auto m = make_labels(g);
  auto labels = m.labels;
  auto ports = m.parent_ports();
  const NodeId v = some_non_root(*m.tree);
  for (std::uint32_t p = 0; p < g.degree(v); ++p) {
    if (p != ports[v]) {
      ports[v] = p;
      break;
    }
  }
  EXPECT_NE(check_all(g, labels, ports), "");
}

// ---- KKP 1-round scheme ---------------------------------------------------

std::string check_kkp_all(const WeightedGraph& g, const MarkerOutput& m,
                          const std::vector<KkpLabels>& kkp) {
  auto ports = m.parent_ports();
  for (NodeId v = 0; v < g.n(); ++v) {
    const VecReader<KkpLabels> reader{g, v, kkp, ports};
    if (const LabelViolation e =
            verify_kkp_1round(g, v, kkp[v], ports[v], reader);
        e != LabelViolation::kNone) {
      return "node " + std::to_string(v) + ": " + describe(e);
    }
  }
  return {};
}

TEST(Kkp, AcceptsCorrectInstances) {
  for (const auto& [name, g] : gen::standard_suite(909)) {
    auto m = make_labels(g);
    EXPECT_EQ(check_kkp_all(g, m, m.kkp_label_vector()), "") << name;
  }
}

TEST(Kkp, RejectsNonMstTree) {
  Rng rng(7);
  auto g = gen::random_connected(70, 70, rng);
  std::vector<bool> bad;
  ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
  auto m = make_labels_for_tree(g, bad);
  EXPECT_NE(check_kkp_all(g, m, m.kkp_label_vector()), "");
}

TEST(Kkp, RejectsTamperedPieceWeight) {
  Rng rng(8);
  auto g = gen::random_connected(50, 40, rng);
  auto m = make_labels(g);
  auto kkp = m.kkp_label_vector();
  for (NodeId v = 0; v < g.n(); ++v) {
    for (auto& p : kkp[v].pieces) {
      if (p && p->min_out_w != Piece::kNoOutgoing) {
        p->min_out_w += 1;
        EXPECT_NE(check_kkp_all(g, m, kkp), "");
        return;
      }
    }
  }
  FAIL() << "no piece found to tamper";
}

TEST(Kkp, RejectsTamperedFragmentId) {
  Rng rng(9);
  auto g = gen::random_connected(50, 40, rng);
  auto m = make_labels(g);
  auto kkp = m.kkp_label_vector();
  // Change one node's fragment identifier at some shared level.
  for (NodeId v = 0; v < g.n(); ++v) {
    for (auto& p : kkp[v].pieces) {
      if (p && p->level > 0) {
        p->root_id ^= 0x5555;
        EXPECT_NE(check_kkp_all(g, m, kkp), "");
        return;
      }
    }
  }
  FAIL() << "no piece found to tamper";
}

// --- Bit-size invariance pins ----------------------------------------------
// The paper's Table 1/2 numbers are *semantic* bit counts. These constants
// were captured on the heap-vector label layout immediately before the
// flat inline storage landed; the flattening (and any future layout work)
// must not shift them — label_bits/state_bits cost the live content, never
// the in-memory representation.

TEST(BitSizePins, LabelAndStateBitsUnchangedByFlatLayout) {
  Rng rng(9);
  auto g = gen::random_connected(64, 32, rng);
  auto m = make_labels(g, 2);
  VerifierConfig cfg;
  VerifierProtocol proto(g, cfg);
  auto init = proto.initial_states(m);
  Weight maxw = 0;
  for (const Edge& e : g.edges()) maxw = std::max(maxw, e.w);
  std::size_t lab_sum = 0, st_sum = 0, lab_max = 0, st_max = 0, kkp_sum = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto lb = label_bits(m.labels[v], g.n(), maxw, g.degree(v));
    const auto sb = proto.state_bits(init[v], v);
    lab_sum += lb;
    st_sum += sb;
    lab_max = std::max(lab_max, lb);
    st_max = std::max(st_max, sb);
    kkp_sum += kkp_label_bits(m.kkp_label(v), g.n(), maxw, g.degree(v));
  }
  EXPECT_EQ(lab_sum, 9584u);
  EXPECT_EQ(lab_max, 190u);
  EXPECT_EQ(st_sum, 32457u);
  EXPECT_EQ(st_max, 556u);
  EXPECT_EQ(kkp_sum, 13856u);
}

TEST(BitSizePins, StarAndPathFamilies) {
  {
    Rng rng(5);
    auto g = gen::star(33, rng);
    auto m = make_labels(g, 4);
    Weight maxw = 0;
    for (const Edge& e : g.edges()) maxw = std::max(maxw, e.w);
    std::size_t lab_sum = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      lab_sum += label_bits(m.labels[v], g.n(), maxw, g.degree(v));
    }
    EXPECT_EQ(lab_sum, 4272u);
  }
  {
    Rng rng(5);
    auto g = gen::path(41, rng);
    auto m = make_labels(g, 2);
    Weight maxw = 0;
    for (const Edge& e : g.edges()) maxw = std::max(maxw, e.w);
    std::size_t lab_sum = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      lab_sum += label_bits(m.labels[v], g.n(), maxw, g.degree(v));
    }
    EXPECT_EQ(lab_sum, 5679u);
  }
}

TEST(BitSizePins, BitsCostContentNotStorage) {
  // Two labels with equal content but different storage coordinates — one
  // in the marker's arena, one cloned into a fresh arena at a different
  // offset (with another label interleaved before it) — must report the
  // same size and compare equal: label_bits and operator== cost/compare
  // the live content, never the in-memory representation.
  Rng rng(9);
  auto g = gen::random_connected(16, 8, rng);
  auto m = make_labels(g, 2);
  const NodeLabels& a = m.labels[3];
  auto arena = LabelArenaPool::instance().acquire();
  NodeLabels pad;
  pad.clone_from(m.labels[7], *arena);  // shift the offsets
  NodeLabels b;
  b.clone_from(a, *arena);
  ASSERT_NE(a.arena, b.arena);
  ASSERT_NE(a.lvl_off, b.lvl_off);
  Weight maxw = 0;
  for (const Edge& e : g.edges()) maxw = std::max(maxw, e.w);
  EXPECT_EQ(label_bits(a, g.n(), maxw, 3), label_bits(b, g.n(), maxw, 3));
  EXPECT_TRUE(a == b);
  // Mutating the clone must not write through to the original.
  const RootsEntry orig = a.roots()[0];
  b.roots()[0] = orig == RootsEntry::kOne ? RootsEntry::kStar
                                          : RootsEntry::kOne;
  EXPECT_FALSE(a == b);
  EXPECT_EQ(m.labels[3].roots()[0], orig);
}

}  // namespace
}  // namespace ssmst
