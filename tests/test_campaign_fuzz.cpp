// Property-based fuzz suite for the fault-campaign engine and the
// differential MST oracle. All randomness is index-derived (the BatchRunner
// job_rng idiom): a failing seed is printed with the episode config and
// replays exactly via campaign::run_episode(cfg, seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "labels/marker.hpp"
#include "mstalgo/ghs_boruvka.hpp"
#include "mstalgo/sync_mst.hpp"
#include "selfstab/baselines.hpp"
#include "selfstab/reset.hpp"
#include "selfstab/synchronizer.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/faults.hpp"
#include "verify/metrology.hpp"
#include "verify/oracle.hpp"

namespace ssmst {
namespace {

using campaign::CampaignClass;
using campaign::CampaignConfig;
using campaign::EpisodeResult;
using campaign::GraphFamily;

// ------------------------------------------------------------- the oracle

TEST(Oracle, AcceptsTheTrueMst) {
  for (const auto& [name, g] : gen::standard_suite(71)) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(oracle::check_precondition(g).ok);
    const RootedTree tree = kruskal_mst_tree(g);
    std::vector<std::uint32_t> ports(g.n(), kNoPort);
    for (NodeId v = 0; v < g.n(); ++v) {
      if (v != tree.root()) ports[v] = tree.parent_port(v);
    }
    const auto rep = oracle::check_tree_is_mst(g, ports);
    EXPECT_TRUE(rep.ok) << rep.detail;
  }
}

TEST(Oracle, RejectsNonMstSpanningTrees) {
  // Differential cross-check: the oracle's verdict on a marked tree must
  // match the existing cycle-property checker on every suite graph where a
  // non-MST spanning tree exists.
  for (const auto& [name, g] : gen::standard_suite(72)) {
    SCOPED_TRACE(name);
    std::vector<bool> in_tree;
    if (!make_non_mst_spanning_tree(g, in_tree)) continue;  // tree graphs
    ASSERT_FALSE(is_mst(g, in_tree));
    const MarkerOutput marker = make_labels_for_tree(g, in_tree);
    const auto rep = oracle::check_marked_instance(g, marker);
    EXPECT_FALSE(rep.ok) << name << ": oracle accepted a non-MST marking";
  }
}

TEST(Oracle, RejectsMalformedParentPorts) {
  Rng rng(73);
  auto g = gen::random_connected(12, 8, rng);
  const RootedTree tree = kruskal_mst_tree(g);
  std::vector<std::uint32_t> good(g.n(), kNoPort);
  for (NodeId v = 0; v < g.n(); ++v) {
    if (v != tree.root()) good[v] = tree.parent_port(v);
  }
  ASSERT_TRUE(oracle::check_tree_is_mst(g, good).ok);

  auto ports = good;
  ports[(tree.root() + 1) % g.n()] = kNoPort;  // two roots -> a forest
  EXPECT_FALSE(oracle::check_tree_is_mst(g, ports).ok);

  ports = good;
  const NodeId v = tree.root() == 0 ? 1 : 0;
  ports[v] = g.degree(v);  // out-of-range port
  EXPECT_FALSE(oracle::check_tree_is_mst(g, ports).ok);

  ports = good;
  ports.pop_back();  // wrong length
  EXPECT_FALSE(oracle::check_tree_is_mst(g, ports).ok);
}

TEST(Oracle, PreconditionCatchesDuplicateWeights) {
  std::vector<Edge> edges = {{0, 1, 5}, {1, 2, 5}, {0, 2, 7}};
  auto g = WeightedGraph::from_edges(3, std::move(edges));
  const auto rep = oracle::check_precondition(g);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.detail.find("duplicate"), std::string::npos) << rep.detail;
}

TEST(Oracle, ReferenceMstMatchesLibraryKruskal) {
  // Same edge set, independently computed (union-by-size vs union-by-rank).
  for (const auto& [name, g] : gen::standard_suite(74)) {
    SCOPED_TRACE(name);
    auto ours = oracle::reference_mst_edges(g);
    auto theirs = kruskal_mst_edges(g);
    std::sort(theirs.begin(), theirs.end());
    EXPECT_EQ(ours, theirs);
  }
}

// -------------------------------------------- generator invariants (fuzz)

TEST(GeneratorFuzz, FamiliesSatisfyTheOraclePrecondition) {
  // 100 index-derived seeds x 4 nontrivial families: connected with
  // pairwise-distinct weights — the MST-uniqueness precondition every
  // campaign and oracle check relies on.
  for (std::size_t i = 0; i < 100; ++i) {
    Rng rng = BatchRunner::job_rng(/*sweep_seed=*/424242, i);
    const NodeId n = 16 + static_cast<NodeId>(rng.below(48));
    struct Named {
      const char* name;
      WeightedGraph g;
    };
    const Named graphs[] = {
        {"grid", gen::grid(2 + n / 8, 2 + n / 8, rng)},
        {"bdeg", gen::random_bounded_degree(n, 3 + n % 3, n / 4, rng)},
        {"powerlaw", gen::power_law(n, 1 + n % 3, rng)},
        {"expander", gen::expander(n, 1 + n % 4, rng)},
    };
    for (const auto& [name, g] : graphs) {
      const auto rep = oracle::check_precondition(g);
      ASSERT_TRUE(rep.ok) << name << " seed index " << i << ": " << rep.detail;
      ASSERT_TRUE(g.is_connected()) << name << " seed index " << i;
      ASSERT_TRUE(g.has_distinct_weights()) << name << " seed index " << i;
    }
  }
}

TEST(GeneratorFuzz, NewFamiliesRejectDegenerateArguments) {
  Rng rng(75);
  EXPECT_THROW(gen::power_law(1, 2, rng), std::invalid_argument);
  EXPECT_THROW(gen::power_law(8, 0, rng), std::invalid_argument);
  EXPECT_THROW(gen::expander(2, 1, rng), std::invalid_argument);
}

TEST(GeneratorFuzz, ExpanderRespectsDegreeBound) {
  Rng rng(76);
  for (std::uint32_t m : {1u, 3u, 5u}) {
    auto g = gen::expander(64, m, rng);
    EXPECT_LE(g.max_degree(), 2 + m);
  }
}

// -------------------------------------------------- corrupt override pins

/// Byte-compare for trivially-copyable registers (copies preserve padding).
template <typename S>
bool same_bytes(const S& a, const S& b) {
  return std::memcmp(&a, &b, sizeof(S)) == 0;
}

/// Pins that a protocol's corrupt (a) actually perturbs the register over
/// a few draws and (b) is a pure function of the rng stream. `eq` compares
/// registers (byte-compare for trivially-copyable states; heap-backed
/// states pass a semantic comparison).
template <typename S, typename P, typename Eq>
void expect_randomized_corruption(const P& proto, const S& initial, Eq eq) {
  Rng ra(91), rb(91);
  S a = initial, b = initial;
  bool changed = false;
  for (int i = 0; i < 4; ++i) {
    proto.corrupt(a, 0, ra);
    proto.corrupt(b, 0, rb);
    ASSERT_TRUE(eq(a, b)) << "corrupt not rng-deterministic";
    changed = changed || !eq(a, initial);
  }
  EXPECT_TRUE(changed) << "corrupt never changed the register";
}

template <typename S, typename P>
void expect_randomized_corruption(const P& proto, const S& initial) {
  expect_randomized_corruption(proto, initial,
                               [](const S& a, const S& b) {
                                 return same_bytes(a, b);
                               });
}

TEST(CorruptCoverage, DefaultFailsLoudly) {
  // A protocol that forgets to override corrupt must not silently no-op
  // (the old value-initializing default reported vacuous "detections").
  struct NopState {
    int x = 0;
  };
  class NopProtocol final : public Protocol<NopState> {
   public:
    void step(NodeId, NopState&, const NeighborReader<NopState>&,
              std::uint64_t) override {}
    std::size_t state_bits(const NopState&, NodeId) const override {
      return 1;
    }
  };
  NopProtocol proto;
  NopState s;
  Rng rng(90);
  EXPECT_THROW(proto.corrupt(s, 0, rng), std::logic_error);
}

// Every library protocol that faults are injected into overrides corrupt;
// the two tree constructions keep the throwing default.
TEST(CorruptCoverage, EveryLibraryProtocolOverrides) {
  Rng rng(92);
  auto g = gen::random_connected(16, 10, rng);
  const MarkerOutput marker = make_labels(g);

  {
    SCOPED_TRACE("VerifierProtocol");
    VerifierConfig cfg;
    VerifierProtocol p(g, cfg);
    expect_randomized_corruption(p, p.initial_states(marker)[0]);
  }
  {
    SCOPED_TRACE("KkpVerifierProtocol");
    KkpVerifierProtocol p(g);
    // KkpState is heap-backed (not trivially copyable), so compare the
    // fields corrupt can touch instead of raw bytes.
    auto kkp_eq = [](const KkpState& x, const KkpState& y) {
      if (x.parent_port != y.parent_port || x.alarm != y.alarm) return false;
      if (x.labels.base.subtree_count != y.labels.base.subtree_count) {
        return false;
      }
      if (x.labels.pieces.size() != y.labels.pieces.size()) return false;
      for (std::size_t i = 0; i < x.labels.pieces.size(); ++i) {
        const auto& px = x.labels.pieces[i];
        const auto& py = y.labels.pieces[i];
        if (px.has_value() != py.has_value()) return false;
        if (px && px->min_out_w != py->min_out_w) return false;
      }
      const auto rx = x.labels.base.roots();
      const auto ry = y.labels.base.roots();
      if (rx.size() != ry.size()) return false;
      for (std::size_t i = 0; i < rx.size(); ++i) {
        if (rx[i] != ry[i]) return false;
      }
      return true;
    };
    expect_randomized_corruption(p, p.initial_states(marker)[0], kkp_eq);
  }
  {
    // The constructions are not self-stabilizing and the transformer
    // restarts them from initial_states(), so no fault is ever injected
    // into them: they keep the default, which fails loudly.
    SyncMstProtocol sync(g);
    SyncMstState s = sync.initial_states()[0];
    EXPECT_THROW(sync.corrupt(s, 0, rng), std::logic_error);
    GhsBoruvkaProtocol ghs(g);
    GhsState h = ghs.initial_states()[0];
    EXPECT_THROW(ghs.corrupt(h, 0, rng), std::logic_error);
  }
  {
    SCOPED_TRACE("ResetProtocol");
    ResetProtocol p(g);
    expect_randomized_corruption(p, ResetState{});
  }
  {
    SCOPED_TRACE("Synchronizer");
    ResetProtocol inner(g);
    Synchronizer<ResetState> p(g, inner);
    expect_randomized_corruption(p, SynchronizedState<ResetState>{});
  }
}

// ----------------------------------------------- sentinel regression pins

TEST(DetectionResult, UndetectedRunsCarryNoDistance) {
  // The no-alarm path: measure_detection on a quiet instance must report
  // detected=false and a nullopt distance — not the old UINT32_MAX
  // sentinel that poisoned medians and --json aggregates.
  Rng rng(93);
  auto g = gen::random_connected(24, 12, rng);
  VerifierConfig cfg;
  cfg.sync_mode = true;
  VerifierHarness h(g, cfg, 17);
  const auto res = h.measure_detection({0}, /*max_units=*/8);
  EXPECT_FALSE(res.detected);
  EXPECT_EQ(res.distance, std::nullopt);
}

TEST(DetectionResult, NumKFaultReadsOneUnitUnderBothSchedulers) {
  // A NumK label fault is caught by the first step after injection under
  // either scheduler. detection_time counts units run, so it reads 1
  // whether the alarm is stamped after its round (sync) or with the clock
  // before its unit (async).
  Rng rng(94);
  auto g = gen::random_connected(48, 24, rng);
  const NodeId victim = g.n() / 2;
  for (const bool sync : {true, false}) {
    VerifierConfig cfg;
    cfg.sync_mode = sync;
    VerifierHarness h(g, cfg, 18);
    ASSERT_FALSE(h.run(64).has_value()) << "sync=" << sync;
    h.sim().state(victim).labels.subtree_count += 1;
    const auto res = h.measure_detection({victim}, /*max_units=*/64);
    ASSERT_TRUE(res.detected) << "sync=" << sync;
    EXPECT_EQ(res.detection_time, 1u) << "sync=" << sync;
  }
}

// --------------------------------------------------- oracle-checked fuzz

/// >= 100 replayable episodes across >= 5 graph families and all campaign
/// classes, each one oracle-checked (the tentpole acceptance property).
TEST(CampaignFuzz, OracleCheckedEpisodesAcrossFamiliesAndClasses) {
  constexpr GraphFamily kFamilies[] = {
      GraphFamily::kRandom,   GraphFamily::kGrid,
      GraphFamily::kBoundedDegree, GraphFamily::kPowerLaw,
      GraphFamily::kExpander,
  };
  constexpr CampaignClass kClasses[] = {
      CampaignClass::kQuiet,     CampaignClass::kScattered,
      CampaignClass::kCorrelated, CampaignClass::kStorm,
  };
  std::size_t episodes = 0;
  for (GraphFamily fam : kFamilies) {
    for (CampaignClass cls : kClasses) {
      CampaignConfig cfg;
      cfg.family = fam;
      cfg.cls = cls;
      cfg.n = 32;
      cfg.faults = 3;
      cfg.waves = 2;
      for (std::size_t i = 0; i < 5; ++i) {
        const std::uint64_t seed = campaign::episode_seed(0xC0FFEE, i);
        const EpisodeResult r = campaign::run_episode(cfg, seed);
        ++episodes;
        ASSERT_TRUE(r.ok || r.skipped)
            << "class=" << campaign::campaign_name(cls)
            << " family=" << campaign::family_name(fam) << " seed=" << seed
            << ": " << r.error;
        if (r.detected) {
          ASSERT_TRUE(r.distance.has_value());
          // Detection counts units run, and nothing is seen before one.
          EXPECT_GE(r.detection_units, 1u);
        }
      }
    }
  }
  EXPECT_GE(episodes, 100u);
}

TEST(CampaignFuzz, MustDetectClassesDetect) {
  // The slow classes (piece tamper O(log^2 n) trains, non-MST marking) at
  // a few seeds each: detection is mandatory, and the non-MST class pins
  // the oracle and the verifier agreeing on the planted lie.
  for (CampaignClass cls :
       {CampaignClass::kPieceTamper, CampaignClass::kNonMstMark}) {
    for (GraphFamily fam : {GraphFamily::kRandom, GraphFamily::kGrid}) {
      CampaignConfig cfg;
      cfg.family = fam;
      cfg.cls = cls;
      cfg.n = 32;
      for (std::size_t i = 0; i < 3; ++i) {
        const std::uint64_t seed = campaign::episode_seed(0xBEEF, i);
        const EpisodeResult r = campaign::run_episode(cfg, seed);
        ASSERT_TRUE(r.ok || r.skipped)
            << "class=" << campaign::campaign_name(cls)
            << " family=" << campaign::family_name(fam) << " seed=" << seed
            << ": " << r.error;
        if (!r.skipped) {
          EXPECT_TRUE(r.detection_expected);
          EXPECT_TRUE(r.detected);
        }
      }
    }
  }
}

TEST(CampaignFuzz, NonMstMarkSkipsTreeFamilies) {
  // Star and path graphs are trees: no non-MST spanning tree exists, so
  // the class reports skipped rather than failing or "passing" vacuously.
  for (GraphFamily fam : {GraphFamily::kStar, GraphFamily::kPath}) {
    CampaignConfig cfg;
    cfg.family = fam;
    cfg.cls = CampaignClass::kNonMstMark;
    cfg.n = 16;
    const EpisodeResult r =
        campaign::run_episode(cfg, campaign::episode_seed(7, 0));
    EXPECT_TRUE(r.skipped) << r.error;
  }
}

TEST(CampaignFuzz, EpisodesReplayBitIdentically) {
  CampaignConfig cfg;
  cfg.family = GraphFamily::kPowerLaw;
  cfg.cls = CampaignClass::kScattered;
  cfg.n = 32;
  const std::uint64_t seed = campaign::episode_seed(99, 3);
  const EpisodeResult a = campaign::run_episode(cfg, seed);
  const EpisodeResult b = campaign::run_episode(cfg, seed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.detection_units, b.detection_units);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.faults_landed, b.faults_landed);
}

TEST(CampaignFuzz, CampaignFanOutMatchesSerial) {
  // run_campaign over a BatchRunner must be episode-for-episode identical
  // to the serial loop (index-derived seeds, stable slot order).
  CampaignConfig cfg;
  cfg.family = GraphFamily::kExpander;
  cfg.cls = CampaignClass::kCorrelated;
  cfg.n = 24;
  BatchRunner runner(4);
  const auto par = campaign::run_campaign(cfg, 55, 6, &runner);
  const auto ser = campaign::run_campaign(cfg, 55, 6, nullptr);
  ASSERT_EQ(par.episodes.size(), ser.episodes.size());
  for (std::size_t i = 0; i < par.episodes.size(); ++i) {
    EXPECT_EQ(par.episodes[i].seed, ser.episodes[i].seed);
    EXPECT_EQ(par.episodes[i].ok, ser.episodes[i].ok);
    EXPECT_EQ(par.episodes[i].detected, ser.episodes[i].detected);
    EXPECT_EQ(par.episodes[i].detection_units, ser.episodes[i].detection_units);
  }
  EXPECT_EQ(par.latency.detected, ser.latency.detected);
  EXPECT_EQ(par.latency.p50, ser.latency.p50);
}

TEST(CampaignFuzz, LatencySummaryExcludesUndetectedRuns) {
  std::vector<EpisodeResult> eps(4);
  eps[0].ok = true;
  eps[0].detected = true;
  eps[0].detection_units = 10;
  eps[1].ok = true;
  eps[1].detected = true;
  eps[1].detection_units = 30;
  eps[2].ok = true;  // silently absorbed: must not enter the quantiles
  eps[3].skipped = true;
  const auto d = campaign::summarize_latency(eps);
  EXPECT_EQ(d.episodes, 4u);
  EXPECT_EQ(d.detected, 2u);
  EXPECT_EQ(d.undetected, 1u);
  EXPECT_EQ(d.skipped, 1u);
  EXPECT_EQ(d.failed, 0u);
  EXPECT_EQ(d.min, 10u);
  EXPECT_EQ(d.max, 30u);
  // Nearest-rank quantiles (round half up): p50 of {10, 30} is 30.
  EXPECT_EQ(d.p50, 30u);
  EXPECT_EQ(d.p99, 30u);
}

}  // namespace
}  // namespace ssmst
