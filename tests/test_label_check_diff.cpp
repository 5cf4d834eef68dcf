// Differential pin of the fused 1-round label checks (labels/verify1.hpp)
// against the reference bodies in label_check_reference.hpp: on every node
// of the standard suite, after seeded corruption, describe(new verdict)
// must equal the reference text, for the base check, the KKP check and
// every (port, level) pair of the pair check.
//
// Three corruption classes: VerifierProtocol::corrupt draws,
// KkpVerifierProtocol::corrupt draws, and raw bytes — any byte of a
// LevelEntry (out-of-range enum values included), header scalars, parent
// ports, permanent-piece and piece-table fields, and a live length within
// capacity; after a raw write the victim's parent sometimes re-derives its
// EPS1 counts, which carries the fault past the count comparison. The
// test also runs under the ASan + UBSan CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "label_check_reference.hpp"
#include "labels/marker.hpp"
#include "labels/verify1.hpp"
#include "selfstab/baselines.hpp"
#include "verify/verifier.hpp"

namespace ssmst {
namespace {

constexpr int kTrialsPerGraph = 60;

const NodeLabels& base_of(const VerifierState& s) { return s.labels; }
const NodeLabels& base_of(const KkpState& s) { return s.labels.base; }

/// Reader over a register vector, as node v sees its neighbours: whole
/// labels (KkpLabels for KKP registers) or, with kBase, the base labels.
template <typename State, bool kBase>
struct StateReader {
  const WeightedGraph& g;
  NodeId v;
  const std::vector<State>& regs;
  const auto& labels(std::uint32_t port) const {
    const State& s = regs[g.half_edge(v, port).to];
    if constexpr (kBase) {
      return base_of(s);
    } else {
      return s.labels;
    }
  }
  std::uint32_t parent_port(std::uint32_t port) const {
    return regs[g.half_edge(v, port).to].parent_port;
  }
};

struct Diff {
  std::size_t checks = 0;
  std::size_t violations = 0;
  std::size_t mismatches = 0;
  std::set<LabelViolation> reached;
  std::string first_mismatch;

  /// `what` names the check; `port` and `level` locate a pair event.
  void compare(LabelViolation got, const std::string& want, NodeId v,
               const char* what, std::uint32_t port = 0,
               std::uint32_t level = 0) {
    ++checks;
    if (got != LabelViolation::kNone) {
      ++violations;
      reached.insert(got);
    }
    if (want != describe(got) && mismatches++ == 0) {
      first_mismatch = "node " + std::to_string(v) + " " + what + " port " +
                       std::to_string(port) + " level " +
                       std::to_string(level) + ": got \"" + describe(got) +
                       "\", want \"" + want + "\"";
    }
  }
};

/// Runs the new and the reference checks at node v of `regs`: the base
/// check, every (port, level) pair event for levels 0..len (one past the
/// end, to reach the range check) with pieces from `tables`, and, for KKP
/// registers, the KKP check.
template <typename State>
void diff_node(const WeightedGraph& g, const std::vector<State>& regs,
               const std::vector<KkpLabels>& tables, NodeId v, Diff& d) {
  const StateReader<State, true> base{g, v, regs};
  const NodeLabels& own = base_of(regs[v]);
  const std::uint32_t own_port = regs[v].parent_port;
  d.compare(verify_labels_1round(g, v, own, own_port, base),
            reference::verify_labels_1round(g, v, own, own_port, base), v,
            "base");
  if constexpr (std::is_same_v<State, KkpState>) {
    const StateReader<State, false> nbr{g, v, regs};
    d.compare(verify_kkp_1round(g, v, regs[v].labels, own_port, nbr),
              reference::verify_kkp_1round(g, v, regs[v].labels, own_port,
                                           nbr),
              v, "kkp");
  }
  for (std::uint32_t p = 0; p < g.degree(v); ++p) {
    const NodeId u = g.half_edge(v, p).to;
    const auto& mine_t = tables[v].pieces;
    const auto& theirs_t = tables[u].pieces;
    for (std::uint32_t j = 0; j <= own.string_length(); ++j) {
      const std::optional<Piece> mine =
          j < mine_t.size() ? mine_t[j] : std::nullopt;
      const std::optional<Piece> theirs =
          j < theirs_t.size() ? theirs_t[j] : std::nullopt;
      d.compare(check_pair_event(g, v, p, j, own, own_port, base_of(regs[u]),
                                 regs[u].parent_port, mine ? &*mine : nullptr,
                                 theirs ? &*theirs : nullptr),
                reference::check_pair_event(g, v, p, j, own, own_port,
                                            base_of(regs[u]),
                                            regs[u].parent_port, mine, theirs),
                v, "pair", p, j);
    }
  }
}

template <typename State>
void diff_all(const WeightedGraph& g, const std::vector<State>& regs,
              const std::vector<KkpLabels>& tables, Diff& d) {
  for (NodeId v = 0; v < g.n(); ++v) diff_node(g, regs, tables, v, d);
}

std::vector<KkpLabels> tables_of(const std::vector<KkpState>& regs) {
  std::vector<KkpLabels> t;
  for (const KkpState& s : regs) t.push_back(s.labels);
  return t;
}

/// A scalar perturbation that stays near the valid value often enough to
/// reach the later checks: +-1, zero, another node's value, or noise.
template <typename T>
void perturb(T& x, T other, Rng& rng) {
  switch (rng.below(5)) {
    case 0: x = static_cast<T>(x + 1); break;
    case 1: x = static_cast<T>(x - 1); break;
    case 2: x = 0; break;
    case 3: x = other; break;
    default: x = static_cast<T>(rng.next()); break;
  }
}

void corrupt_piece(Piece& pc, const Piece& other, Rng& rng) {
  switch (rng.below(3)) {
    case 0: perturb(pc.root_id, other.root_id, rng); break;
    case 1: perturb(pc.level, other.level, rng); break;
    default: perturb(pc.min_out_w, other.min_out_w, rng); break;
  }
}

/// Writes a small value (a valid enum or count, or one past) into 1-2
/// random bytes of a LevelEntry.
void scribble(LevelEntry& e, Rng& rng) {
  auto* bytes = reinterpret_cast<unsigned char*>(&e);
  for (std::uint64_t i = 1 + rng.below(2); i > 0; --i) {
    bytes[rng.below(4)] = static_cast<unsigned char>(rng.below(4));
  }
}

/// One raw-byte corruption of register `s`; `o` is another node's register,
/// often a neighbour's.
void corrupt_raw(KkpState& s, KkpState& o, std::uint32_t deg, Rng& rng) {
  NodeLabels& l = s.labels.base;
  NodeLabels& ol = o.labels.base;
  switch (rng.below(8)) {
    case 0: {  // any byte of a LevelEntry, out-of-range values included
      if (l.lvl_cap == 0) break;
      auto* bytes = reinterpret_cast<unsigned char*>(
          l.arena->levels(l.lvl_off) + rng.below(l.lvl_cap));
      bytes[rng.below(4)] = static_cast<unsigned char>(
          rng.chance(0.5) ? rng.below(4) : rng.below(256));
      break;
    }
    case 1:
      switch (rng.below(14)) {
        case 0: perturb(l.sp_root_id, ol.sp_root_id, rng); break;
        case 1: perturb(l.sp_dist, ol.sp_dist, rng); break;
        case 2: perturb(l.self_id, ol.self_id, rng); break;
        case 3: perturb(l.parent_id, ol.parent_id, rng); break;
        case 4: perturb(l.n_claim, ol.n_claim, rng); break;
        case 5: perturb(l.subtree_count, ol.subtree_count, rng); break;
        case 6: perturb(l.top_part_root_id, ol.top_part_root_id, rng); break;
        case 7: perturb(l.top_part_depth, ol.top_part_depth, rng); break;
        case 8: perturb(l.top_piece_count, ol.top_piece_count, rng); break;
        case 9: perturb(l.bot_part_root_id, ol.bot_part_root_id, rng); break;
        case 10: perturb(l.bot_part_depth, ol.bot_part_depth, rng); break;
        case 11: perturb(l.bot_piece_count, ol.bot_piece_count, rng); break;
        case 12: perturb(l.delim, ol.delim, rng); break;
        default: perturb(l.pack, ol.pack, rng); break;
      }
      break;
    case 2: {  // a port in range, one past it, the root marker or noise
      const std::uint64_t r = rng.below(4);
      if (r < 2) {
        s.parent_port = static_cast<std::uint32_t>(rng.below(deg));
      } else if (r == 2) {
        s.parent_port = deg;
      } else {
        s.parent_port = rng.chance(0.5)
                            ? kNoPort
                            : static_cast<std::uint32_t>(rng.next());
      }
      break;
    }
    case 3:  // a permanent-piece field, or a pack count within capacity
      if (rng.chance(0.25)) {
        const auto n = static_cast<std::uint8_t>(rng.below(l.perm_cap + 1u));
        (rng.chance(0.5) ? l.top_n : l.bot_n) = n;
      } else if (const auto perm = rng.chance(0.5) ? l.top_perm()
                                                   : l.bot_perm();
                 !perm.empty()) {
        const Piece other = ol.top_n > 0 ? ol.top_perm()[0] : Piece{};
        corrupt_piece(perm[rng.below(perm.size())], other, rng);
      }
      break;
    case 4: {  // a piece-table field, presence bit or table length
      auto& t = s.labels.pieces;
      if (rng.chance(0.15)) {
        t.resize(rng.below(t.size() + 2));
      } else if (!t.empty()) {
        auto& pc = t[rng.below(t.size())];
        const auto& ot = o.labels.pieces;
        const std::optional<Piece> other =
            ot.empty() ? std::nullopt : ot[rng.below(ot.size())];
        if (rng.chance(0.3) || !pc) {
          pc = pc ? std::nullopt : other;
        } else {
          corrupt_piece(*pc, other.value_or(Piece{}), rng);
        }
      }
      break;
    }
    case 5:  // live length within capacity
      l.set_string_length(
          static_cast<std::uint32_t>(rng.below(l.lvl_cap + 1u)));
      break;
    case 6: {  // the same level at both registers, so the pair stays
               // consistent enough to reach the later per-level checks; or
               // two levels of one register, to pit one level's violation
               // against another's
      const std::uint32_t cap = std::min(l.lvl_cap, ol.lvl_cap);
      if (cap == 0) break;
      const auto j = rng.below(cap);
      scribble(l.arena->levels(l.lvl_off)[j], rng);
      if (rng.chance(0.5)) {
        scribble(ol.arena->levels(ol.lvl_off)[j], rng);
      } else {
        scribble(l.arena->levels(l.lvl_off)[rng.below(l.lvl_cap)], rng);
      }
      break;
    }
    default: {  // copy one level entry from another node
      if (l.lvl_cap == 0 || ol.lvl_len == 0) break;
      l.arena->levels(l.lvl_off)[rng.below(l.lvl_cap)] =
          ol.arena->levels(ol.lvl_off)[rng.below(ol.lvl_len)];
      break;
    }
  }
}

/// Re-derives node v's EPS1 counts from its own EndP string and its
/// children's counts, as an adversary covering its tracks would, so that
/// the checks after the count comparison see the corruption below v.
void rederive_counts(const WeightedGraph& g, std::vector<KkpState>& regs,
                     NodeId v) {
  NodeLabels& l = regs[v].labels.base;
  for (std::uint32_t j = 0; j < l.string_length(); ++j) {
    unsigned sum =
        l.endp()[j] == EndpEntry::kUp || l.endp()[j] == EndpEntry::kDown;
    for (const HalfEdge& he : g.neighbors(v)) {
      const NodeLabels& c = regs[he.to].labels.base;
      if (regs[he.to].parent_port == he.rev_port && j < c.string_length() &&
          c.roots()[j] == RootsEntry::kZero) {
        sum += c.endp_cnt()[j];
      }
    }
    l.endp_cnt()[j] = static_cast<std::uint8_t>(std::min(sum, 2u));
  }
}

/// Runs kTrialsPerGraph trials per graph of standard_suite(1) and
/// standard_suite(2); each trial corrupts 1-3 victims of fresh registers
/// and diffs every node.
template <typename Fn>
Diff run_class(Fn&& trial) {
  Diff d;
  for (std::uint64_t seed : {1u, 2u}) {
    for (const auto& [name, g] : gen::standard_suite(seed)) {
      const MarkerOutput m = make_labels(g);
      const std::vector<KkpLabels> pristine = m.kkp_label_vector();
      Rng rng(seed * 7919 + g.n());
      for (int t = 0; t < kTrialsPerGraph; ++t) trial(g, m, pristine, rng, d);
    }
  }
  return d;
}

/// No mismatch, and enough violations and distinct codes that the class
/// actually exercised the checks (the floors sit below the seeded counts).
void expect_clean(const Diff& d, std::size_t min_codes) {
  EXPECT_EQ(d.mismatches, 0u) << d.first_mismatch;
  EXPECT_GT(d.violations, d.checks / 100);
  EXPECT_GE(d.reached.size(), min_codes);
  std::printf("%zu checks, %zu violations, %zu distinct codes, %zu "
              "mismatches\n",
              d.checks, d.violations, d.reached.size(), d.mismatches);
}

TEST(LabelCheckDiff, VerifierCorruptDraws) {
  const Diff d = run_class([](const WeightedGraph& g, const MarkerOutput& m,
                              const std::vector<KkpLabels>& pristine, Rng& rng,
                              Diff& acc) {
    VerifierProtocol proto(g, VerifierConfig{});
    auto regs = proto.initial_states(m);
    const auto arena = proto.adopt_register_file(regs);
    const auto k = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < k; ++i) {
      const auto v = static_cast<NodeId>(rng.below(g.n()));
      proto.corrupt(regs[v], v, rng);
    }
    diff_all(g, regs, pristine, acc);
  });
  expect_clean(d, 20);
}

TEST(LabelCheckDiff, KkpCorruptDraws) {
  const Diff d = run_class([](const WeightedGraph& g, const MarkerOutput& m,
                              const std::vector<KkpLabels>&, Rng& rng,
                              Diff& acc) {
    KkpVerifierProtocol proto(g);
    auto regs = proto.initial_states(m);
    const auto arena = proto.adopt_register_file(regs);
    const auto k = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < k; ++i) {
      const auto v = static_cast<NodeId>(rng.below(g.n()));
      proto.corrupt(regs[v], v, rng);
    }
    diff_all(g, regs, tables_of(regs), acc);
  });
  expect_clean(d, 20);
}

TEST(LabelCheckDiff, RawByteCorruption) {
  const Diff d = run_class([](const WeightedGraph& g, const MarkerOutput& m,
                              const std::vector<KkpLabels>&, Rng& rng,
                              Diff& acc) {
    KkpVerifierProtocol proto(g);
    auto regs = proto.initial_states(m);
    const auto arena = proto.adopt_register_file(regs);
    const auto k = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < k; ++i) {
      const auto v = static_cast<NodeId>(rng.below(g.n()));
      const NodeId o = rng.chance(0.5)
                           ? g.half_edge(v, static_cast<std::uint32_t>(
                                                rng.below(g.degree(v))))
                                 .to
                           : static_cast<NodeId>(rng.below(g.n()));
      corrupt_raw(regs[v], regs[o], g.degree(v), rng);
      if (const std::uint32_t pp = regs[v].parent_port;
          pp < g.degree(v) && rng.chance(0.5)) {
        rederive_counts(g, regs, g.half_edge(v, pp).to);
      }
    }
    diff_all(g, regs, tables_of(regs), acc);
  });
  expect_clean(d, 55);
}

// Every LevelEntry of every node of standard_suite(1), with one or two of
// its four bytes set to each of {0, 1, 2, 3, 0xFF} (valid values, one past
// the largest enum, and noise): the combinations that reach two
// conditions at one level pin the order of the conditions within a level.
// Besides the node, only its tree neighbours read its level entries (the
// parent walks its children's, a child reads its parent's), so only their
// base checks are diffed.
TEST(LabelCheckDiff, EveryLevelEntryByteCombination) {
  constexpr unsigned char kValues[] = {0, 1, 2, 3, 0xFF};
  Diff d;
  for (const auto& [name, g] : gen::standard_suite(1)) {
    const MarkerOutput m = make_labels(g);
    KkpVerifierProtocol proto(g);
    auto regs = proto.initial_states(m);
    const auto arena = proto.adopt_register_file(regs);
    const std::vector<KkpLabels> tables = tables_of(regs);
    auto diff_base = [&](NodeId u) {
      const StateReader<KkpState, true> nbr{g, u, regs};
      const NodeLabels& own = regs[u].labels.base;
      const std::uint32_t port = regs[u].parent_port;
      d.compare(verify_labels_1round(g, u, own, port, nbr),
                reference::verify_labels_1round(g, u, own, port, nbr), u,
                "base");
    };
    auto diff_around = [&](NodeId v) {
      diff_base(v);
      for (std::uint32_t p = 0; p < g.degree(v); ++p) {
        const HalfEdge& he = g.half_edge(v, p);
        if (p == regs[v].parent_port ||
            regs[he.to].parent_port == he.rev_port) {
          diff_base(he.to);
        }
      }
    };
    for (NodeId v = 0; v < g.n(); ++v) {
      const NodeLabels& l = regs[v].labels.base;
      for (std::uint32_t j = 0; j < l.string_length(); ++j) {
        auto* bytes =
            reinterpret_cast<unsigned char*>(l.arena->levels(l.lvl_off) + j);
        unsigned char saved[4];
        std::memcpy(saved, bytes, 4);
        for (int b1 = 0; b1 < 4; ++b1) {
          for (unsigned char x1 : kValues) {
            bytes[b1] = x1;
            diff_around(v);
            for (int b2 = b1 + 1; b2 < 4; ++b2) {
              for (unsigned char x2 : kValues) {
                bytes[b2] = x2;
                diff_around(v);
              }
              bytes[b2] = saved[b2];
            }
          }
          bytes[b1] = saved[b1];
        }
      }
    }
  }
  expect_clean(d, 15);
}

// Two conditions only the tree root checks, on every graph of
// standard_suite(1): (a) one flipped bit of the root's sp_root_id is the SP
// root-identity violation at the root; (b) n_claim + 1 at every node is a
// lie that every neighbour agrees with, so only the root's count check
// (subtree_count == n_claim) sees it and no other node alarms.
TEST(LabelCheckDiff, RootIdentityAndNetworkWideCountLie) {
  for (const auto& [name, g] : gen::standard_suite(1)) {
    const MarkerOutput m = make_labels(g);
    const NodeId root = m.tree->root();
    KkpVerifierProtocol proto(g);
    // Diffs every node of the corrupted registers and returns each node's
    // reached codes, less kPairLevel: diff_node probes the pair event one
    // level past the end, which every node reports.
    auto codes_after = [&](auto&& corrupt) {
      auto regs = proto.initial_states(m);
      const auto arena = proto.adopt_register_file(regs);
      corrupt(regs);
      const std::vector<KkpLabels> tables = tables_of(regs);
      std::vector<std::set<LabelViolation>> codes(g.n());
      for (NodeId v = 0; v < g.n(); ++v) {
        Diff d;
        diff_node(g, regs, tables, v, d);
        EXPECT_EQ(d.mismatches, 0u) << name << ": " << d.first_mismatch;
        d.reached.erase(LabelViolation::kPairLevel);
        codes[v] = d.reached;
      }
      return codes;
    };
    const auto sp = codes_after([&](std::vector<KkpState>& regs) {
      regs[root].labels.base.sp_root_id ^= 1;
    });
    EXPECT_TRUE(sp[root].contains(LabelViolation::kSpRootId)) << name;
    const auto numk = codes_after([](std::vector<KkpState>& regs) {
      for (KkpState& s : regs) s.labels.base.n_claim += 1;
    });
    for (NodeId v = 0; v < g.n(); ++v) {
      if (v == root) {
        EXPECT_TRUE(numk[v].contains(LabelViolation::kNumKRoot)) << name;
      } else {
        EXPECT_TRUE(numk[v].empty()) << name << " node " << v;
      }
    }
  }
}

}  // namespace
}  // namespace ssmst
