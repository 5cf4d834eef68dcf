#include <gtest/gtest.h>

#include <iterator>
#include <string>

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
    const LabelWidths widths(g);
    std::size_t max_bits = 0;
    for (NodeId v = 0; v < n; ++v) {
      max_bits = std::max(max_bits, label_bits(m.labels[v], widths));
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
    const LabelWidths widths(g);
    std::size_t ours = 0, kkp = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      ours = std::max(ours, label_bits(m.labels[v], widths));
      kkp = std::max(kkp, kkp_label_bits(m.kkp_label(v), widths));
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
  const LabelWidths widths(g);
  std::size_t lab_sum = 0, st_sum = 0, lab_max = 0, st_max = 0, kkp_sum = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto lb = label_bits(m.labels[v], widths);
    const auto sb = proto.state_bits(init[v], v);
    lab_sum += lb;
    st_sum += sb;
    lab_max = std::max(lab_max, lb);
    st_max = std::max(st_max, sb);
    kkp_sum += kkp_label_bits(m.kkp_label(v), widths);
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
    const LabelWidths widths(g);
    std::size_t lab_sum = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      lab_sum += label_bits(m.labels[v], widths);
    }
    EXPECT_EQ(lab_sum, 4272u);
  }
  {
    Rng rng(5);
    auto g = gen::path(41, rng);
    auto m = make_labels(g, 2);
    const LabelWidths widths(g);
    std::size_t lab_sum = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      lab_sum += label_bits(m.labels[v], widths);
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
  const LabelWidths widths(g);
  EXPECT_EQ(label_bits(a, widths), label_bits(b, widths));
  EXPECT_TRUE(a == b);
  // Mutating the clone must not write through to the original.
  const RootsEntry orig = a.roots()[0];
  b.roots()[0] = orig == RootsEntry::kOne ? RootsEntry::kStar
                                          : RootsEntry::kOne;
  EXPECT_FALSE(a == b);
  EXPECT_EQ(m.labels[3].roots()[0], orig);
}

// --- Golden marker pin -------------------------------------------------------
// Digests of the whole make_labels output — label content (never arena
// offsets), the hierarchy, both partitions and the tree — captured before
// the marker's flat CSR layout landed. Any layout or speed work on the
// marker must reproduce them bit for bit: every algorithm and tie-break
// (Procedure Merge's on node index included) stays as it was.

struct Digest {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  void add(std::uint64_t x) {
    std::uint64_t z = h ^ x;  // splitmix64 finalizer over the running state
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  template <typename Range>
  void add_all(const Range& r) {
    add(static_cast<std::uint64_t>(std::size(r)));
    for (const auto x : r) add(static_cast<std::uint64_t>(x));
  }
  template <typename Pieces>
  void add_pieces(const Pieces& ps) {
    add(static_cast<std::uint64_t>(ps.size()));
    for (const Piece& p : ps) {
      add(p.root_id);
      add(p.level);
      add(p.min_out_w);
    }
  }
};

struct MarkerDigests {
  std::uint64_t labels, hierarchy, partitions, tree;
};

MarkerDigests digest_marker(const MarkerOutput& m) {
  const RootedTree& t = *m.tree;
  const FragmentHierarchy& h = *m.hierarchy;
  const Partitions& p = m.partitions;
  const NodeId n = t.n();
  MarkerDigests out{};

  Digest dl;
  dl.add(m.schedule_rounds);
  for (const NodeLabels& l : m.labels) {
    for (const std::uint64_t x :
         {l.sp_root_id, std::uint64_t{l.sp_dist}, l.self_id, l.parent_id,
          std::uint64_t{l.n_claim}, std::uint64_t{l.subtree_count},
          l.top_part_root_id, std::uint64_t{l.top_part_depth},
          std::uint64_t{l.top_piece_count}, l.bot_part_root_id,
          std::uint64_t{l.bot_part_depth}, std::uint64_t{l.bot_piece_count},
          std::uint64_t{l.delim}, std::uint64_t{l.pack},
          std::uint64_t{l.string_length()}}) {
      dl.add(x);
    }
    for (std::size_t j = 0; j < l.string_length(); ++j) {
      dl.add(static_cast<std::uint64_t>(l.roots()[j]));
      dl.add(static_cast<std::uint64_t>(l.endp()[j]));
      dl.add(l.parents()[j]);
      dl.add(l.endp_cnt()[j]);
    }
    dl.add_pieces(l.top_perm());
    dl.add_pieces(l.bot_perm());
  }
  out.labels = dl.h;

  Digest dh;
  dh.add(h.fragment_count());
  dh.add(h.top());
  dh.add(static_cast<std::uint64_t>(h.height()));
  for (const Fragment& f : h.fragments()) {
    dh.add(f.root);
    dh.add(f.build_root);
    dh.add(static_cast<std::uint64_t>(f.level));
    dh.add_all(f.nodes);
    dh.add(f.parent);
    dh.add_all(f.children);
    dh.add(f.has_candidate);
    dh.add(f.cand_inside);
    dh.add(f.cand_outside);
    dh.add(f.cand_weight);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [lev, f] : h.membership(v)) {
      dh.add(static_cast<std::uint64_t>(lev));
      dh.add(f);
    }
  }
  out.hierarchy = dh.h;

  Digest dp;
  dp.add(p.theta);
  dp.add(p.pack);
  dp.add_all(p.frag_is_top);
  dp.add_all(p.frag_is_red);
  dp.add_all(p.frag_is_blue);
  for (const auto* parts : {&p.top_parts, &p.bot_parts}) {
    dp.add(parts->size());
    for (const Partitions::Part& part : *parts) {
      dp.add(part.root);
      dp.add_all(part.nodes);
      dp.add_pieces(part.pieces);
    }
  }
  dp.add_all(p.top_part_of);
  dp.add_all(p.bot_part_of);
  dp.add_all(p.delim);
  for (NodeId v = 0; v < n; ++v) {
    dp.add(p.top_dfs_index(v));
    dp.add(p.bot_dfs_index(v));
  }
  out.partitions = dp.h;

  Digest dt;
  dt.add(t.root());
  for (NodeId v = 0; v < n; ++v) {
    dt.add(v == t.root() ? kNoPort : t.parent_port(v));
    dt.add(t.dfs_index(v));
    dt.add(t.depth(v));
    dt.add(t.subtree_size(v));
    dt.add_all(t.children(v));
  }
  out.tree = dt.h;
  return out;
}

struct GoldenCase {
  std::string name;
  MarkerDigests want;
};

TEST(MarkerGolden, WholeOutputMatchesPinnedDigests) {
  const std::vector<GoldenCase> golden = {
      {"path32",
       {0x39de860255cbb284ULL, 0xd93756a67997192dULL, 0x976c774ef6f9ec1eULL,
        0x50291aa953fd5603ULL}},
      {"cycle33",
       {0xdd9c7a5a1e529145ULL, 0xd2bca95ff103ee65ULL, 0x2f87a1af800eb4faULL,
        0x2f8a9a09b6eb71ffULL}},
      {"grid6x7",
       {0x3b73ab5ccea51986ULL, 0x2f9f95f7fd7ef569ULL, 0x693fd4d3000c9aaaULL,
        0x94b8b8c417ae03f9ULL}},
      {"star24",
       {0x608f1550ba840852ULL, 0x5b5290bf8b756474ULL, 0x44e52763e909736cULL,
        0x4d88b3a43c90abbaULL}},
      {"complete12",
       {0x0c1cf944188f9904ULL, 0xa713bcaaa4725290ULL, 0xe3d87821e8f971ccULL,
        0x5387d5b80757af87ULL}},
      {"caterpillar8x3",
       {0x9e1dc3802dca33f7ULL, 0x678505510876636dULL, 0x9ad319e0849ff5ccULL,
        0xd1fceaf80a90dce9ULL}},
      {"btree31+10",
       {0x3eb48b1173d68b7bULL, 0x67a49d347f3e24dcULL, 0x980a9837cf862a7bULL,
        0x8340223f7286fba9ULL}},
      {"rand64+48",
       {0xbbeec38b70f68b3cULL, 0x2ab26fbbd81d6a36ULL, 0xd3e75042bc842079ULL,
        0xcb69ff36475f2f6cULL}},
      {"rand100+30",
       {0xda88d6c16794015aULL, 0x63972b4abcdc734cULL, 0xb4ebee3320ed3042ULL,
        0xb8d6766b43a5f1f4ULL}},
      {"bdeg96d4",
       {0xac3f0eafbbf6a385ULL, 0xacf157cf0bf20169ULL, 0x6f2bc5d7f6831d31ULL,
        0xc582382e9f0562efULL}},
      {"figure1",
       {0x7bd5e7b4990a8df3ULL, 0x337cadd8f7ff2cbeULL, 0x3c1540d0740d74baULL,
        0xb64b4839b055fc3cULL}},
      {"non-mst rand60+60",
       {0x61bcdec0bfd19ec9ULL, 0xef49832b23b0622dULL, 0x0c807e452ed0fbbeULL,
        0xcaf78cdd8bad92a4ULL}},
      {"pack4 rand80+40",
       {0x4b96f55acc70d839ULL, 0x4de2d101e4bf8670ULL, 0xd6c6488a14fbca20ULL,
        0x0b82fb45d63cc35cULL}},
      {"rand4096+2048",
       {0x1048f009f6c34078ULL, 0xd0e7cb656a1eb011ULL, 0x39bdacc2b3f1ef82ULL,
        0xd4200d02454a4207ULL}},
  };
  std::vector<std::pair<std::string, MarkerDigests>> got;
  for (const auto& [name, g] : gen::standard_suite(808)) {
    got.emplace_back(name, digest_marker(make_labels(g)));
  }
  {
    Rng rng(1);
    const auto g = gen::random_connected(60, 60, rng);
    std::vector<bool> bad;
    ASSERT_TRUE(make_non_mst_spanning_tree(g, bad));
    got.emplace_back("non-mst rand60+60",
                     digest_marker(make_labels_for_tree(g, bad)));
  }
  {
    Rng rng(4);
    const auto g = gen::random_connected(80, 40, rng);
    got.emplace_back("pack4 rand80+40", digest_marker(make_labels(g, 4)));
  }
  {
    Rng rng(21);
    const auto g = gen::random_connected(4096, 2048, rng);
    got.emplace_back("rand4096+2048", digest_marker(make_labels(g)));
  }
  ASSERT_EQ(got.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto& [name, d] = got[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(name, golden[i].name);
    EXPECT_EQ(d.labels, golden[i].want.labels);
    EXPECT_EQ(d.hierarchy, golden[i].want.hierarchy);
    EXPECT_EQ(d.partitions, golden[i].want.partitions);
    EXPECT_EQ(d.tree, golden[i].want.tree);
  }
}

}  // namespace
}  // namespace ssmst
