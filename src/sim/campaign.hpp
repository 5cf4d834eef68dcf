#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "sim/batch.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace ssmst {

/// Adversarial fault-campaign engine (the ROADMAP "scenario diversity"
/// item): co-schedules an adversarial daemon order with adversarial fault
/// placement over a widened set of graph families, and cross-checks every
/// instance against the differential MST oracle (verify/oracle.hpp).
///
/// # The campaign/oracle contract
///
/// "Stabilized" for the oracle means the *marked instance*: the harness
/// installs the marker's proof labels as a legal configuration (the
/// closed-loop fixpoint the verifier protocol holds quiet on), so the
/// oracle runs right after marking, before any fault is injected:
///
///  - every class except kNonMstMark marks the graph's MST, and
///    `oracle::check_marked_instance` must ACCEPT — the marker tree (built
///    by the SYNC_MST fragment-dynamics replay) must equal the
///    independently Kruskal-computed unique MST;
///  - kNonMstMark marks a deliberately non-minimum spanning tree (the
///    adversary's "best lie"), and the oracle must REJECT it while the
///    verifier protocol must eventually alarm — the two detectors are
///    compared against each other.
///
/// After injection the episode measures the *detector*, not repair: the
/// verifier-only stack raises sticky alarms and does not re-stabilize
/// (repair is the transformer's job). Classes divide into must-detect
/// (kNonMstMark, kPieceTamper: a verified statement is provably wrong),
/// must-not-alarm (kQuiet), and record-detected (kScattered, kCorrelated,
/// kStorm: randomized runtime corruption may be silently absorbed — only
/// non-MST *situations* must be detected, so the episode records an
/// explicit `detected` flag instead of failing, and undetected runs are
/// excluded from the latency distribution rather than folded in as
/// sentinels).
///
/// # Seed replay
///
/// Campaigns derive episode seeds index-linearly (the BatchRunner idiom):
/// `episode_seed(campaign_seed, i)`. Every EpisodeResult carries its seed;
/// to replay a failure, call `run_episode(cfg, result.seed)` with the same
/// config — graph generation, daemon schedule and fault draws are all
/// derived from that one seed, serial or fanned out.
namespace campaign {

/// Graph families a campaign can draw instances from. Beyond the classic
/// random/star/path trio: grids, bounded-degree random graphs, power-law
/// (preferential attachment) and bounded-degree expanders.
enum class GraphFamily {
  kRandom,
  kGrid,
  kStar,
  kPath,
  kBoundedDegree,
  kPowerLaw,
  kExpander,
};

inline constexpr GraphFamily kAllFamilies[] = {
    GraphFamily::kRandom,       GraphFamily::kGrid,     GraphFamily::kStar,
    GraphFamily::kPath,         GraphFamily::kBoundedDegree,
    GraphFamily::kPowerLaw,     GraphFamily::kExpander,
};

const char* family_name(GraphFamily f);

/// Builds a ~n-node instance of the family (grid rounds to rows*cols).
WeightedGraph make_family_graph(GraphFamily f, NodeId n, Rng& rng);

/// Fault-placement / scenario classes. The three kAux* classes extend the
/// campaign to the total-state fault model (sim/faults.hpp aux injectors):
/// they corrupt the ENGINE's auxiliary state, so without the bounded-
/// staleness watchdog they are missed (nothing re-activates the evidence,
/// or no audit ever runs); with it armed they are must-detect — via the
/// post-reseed alarm (kAuxQueueDrop) or the watchdog-trip audit
/// (kStampSkew, kArenaTruncate).
enum class CampaignClass {
  kQuiet,       ///< control: no faults, must never alarm
  kScattered,   ///< f uniform-random protocol corruptions
  kCorrelated,  ///< f corruptions inside one BFS ball (a crashed rack)
  kStorm,       ///< repeated fault waves while still stabilizing
  kPieceTamper, ///< load-bearing permanent piece lie: must detect
  kNonMstMark,  ///< marked tree is not the MST: oracle and verifier agree
  kAuxQueueDrop,  ///< piece lie + consistent pending-queue wipe: starvation
  kStampSkew,     ///< staleness stamps skewed past the engine clock
  kArenaTruncate, ///< label headers silently shrunk within arena capacity
};

inline constexpr CampaignClass kAllClasses[] = {
    CampaignClass::kQuiet,     CampaignClass::kScattered,
    CampaignClass::kCorrelated, CampaignClass::kStorm,
    CampaignClass::kPieceTamper, CampaignClass::kNonMstMark,
    CampaignClass::kAuxQueueDrop, CampaignClass::kStampSkew,
    CampaignClass::kArenaTruncate,
};

const char* campaign_name(CampaignClass c);

/// True for the total-state (engine-auxiliary) fault classes.
bool is_aux_class(CampaignClass c);

/// Name -> enum for the replay CLI (`bench_campaign --replay-seed=...`);
/// accepts exactly the campaign_name()/family_name() strings.
std::optional<CampaignClass> parse_class(std::string_view name);
std::optional<GraphFamily> parse_family(std::string_view name);

/// One campaign's shape. Every episode runs asynchronously under the
/// adversarial stale-first daemon (DaemonOrder::kAdversarial, the
/// co-scheduled worst case the class is named for), marks pack-2 labels,
/// holds 64 warmup units quiet, and uses the automatic budgets: detection
/// within 160 * (log n + 2)^2 + 2000 units and, when armed, a watchdog
/// trip every watchdog_budget_for(n) units (sim/campaign.cpp).
struct CampaignConfig {
  GraphFamily family = GraphFamily::kRandom;
  CampaignClass cls = CampaignClass::kScattered;
  NodeId n = 64;
  std::size_t faults = 4;      ///< per wave; clamped to n by pick_fault_nodes
  std::uint32_t waves = 3;     ///< kStorm: number of fault waves
  /// Arms the watchdog on the aux-state classes, where it is the detection
  /// mechanism; the register-fault classes' schedules are never touched.
  /// false on an aux class records the missed-detection baseline
  /// (detection_expected drops to false and the episode records the miss
  /// instead of failing).
  bool watchdog = true;
};

/// One episode's outcome. `ok` is the fuzz-suite property; `skipped` marks
/// class/instance mismatches (e.g. kNonMstMark on a tree family, where no
/// non-MST spanning tree exists) that count in neither direction.
struct EpisodeResult {
  bool ok = false;
  bool skipped = false;
  std::string error;                     ///< reason when !ok (or skipped)
  bool detected = false;                 ///< explicit flag, never a sentinel
  bool detection_expected = false;       ///< must-detect class
  std::uint64_t detection_units = 0;     ///< valid iff detected
  std::optional<std::uint32_t> distance; ///< valid iff detected
  std::size_t faults_landed = 0;
  NodeId n = 0;
  std::uint64_t seed = 0;                ///< replay: run_episode(cfg, seed)
};

/// Index-derived episode seed (BatchRunner::job_seed).
inline std::uint64_t episode_seed(std::uint64_t campaign_seed,
                                  std::size_t index) {
  return BatchRunner::job_seed(campaign_seed, index);
}

/// Runs one oracle-checked episode. Fully deterministic in (cfg, seed).
EpisodeResult run_episode(const CampaignConfig& cfg, std::uint64_t seed);

/// Detection-latency distribution over the *detected* episodes of a
/// campaign; undetected/skipped/failed episodes are counted separately and
/// never folded into the quantiles. Quantiles are nearest-rank (round half
/// up) over the sorted detected latencies.
struct LatencyDistribution {
  std::size_t episodes = 0;
  std::size_t detected = 0;
  std::size_t undetected = 0;
  std::size_t skipped = 0;
  std::size_t failed = 0;
  std::uint64_t min = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

LatencyDistribution summarize_latency(const std::vector<EpisodeResult>& eps);

struct CampaignResult {
  CampaignConfig cfg;
  std::vector<EpisodeResult> episodes;  ///< in episode-index order
  LatencyDistribution latency;
};

/// Runs `episodes` episodes with index-derived seeds; fans out across
/// `runner` when given (each episode is an independent single-threaded
/// simulation — the BatchRunner contract), bit-identical to the serial
/// run either way.
CampaignResult run_campaign(const CampaignConfig& cfg,
                            std::uint64_t campaign_seed, std::size_t episodes,
                            BatchRunner* runner = nullptr);

}  // namespace campaign
}  // namespace ssmst
