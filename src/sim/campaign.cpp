#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "graph/mst.hpp"
#include "sim/faults.hpp"
#include "util/bits.hpp"
#include "verify/metrology.hpp"
#include "verify/oracle.hpp"

namespace ssmst::campaign {

const char* family_name(GraphFamily f) {
  switch (f) {
    case GraphFamily::kRandom: return "random";
    case GraphFamily::kGrid: return "grid";
    case GraphFamily::kStar: return "star";
    case GraphFamily::kPath: return "path";
    case GraphFamily::kBoundedDegree: return "bdeg";
    case GraphFamily::kPowerLaw: return "powerlaw";
    case GraphFamily::kExpander: return "expander";
  }
  return "?";
}

WeightedGraph make_family_graph(GraphFamily f, NodeId n, Rng& rng) {
  switch (f) {
    case GraphFamily::kRandom:
      return gen::random_connected(n, n / 2, rng);
    case GraphFamily::kGrid: {
      const auto rows = std::max<NodeId>(
          2, static_cast<NodeId>(std::sqrt(static_cast<double>(n))));
      const auto cols = std::max<NodeId>(2, n / rows);
      return gen::grid(rows, cols, rng);
    }
    case GraphFamily::kStar:
      return gen::star(n, rng);
    case GraphFamily::kPath:
      return gen::path(n, rng);
    case GraphFamily::kBoundedDegree:
      return gen::random_bounded_degree(n, 4, n / 4, rng);
    case GraphFamily::kPowerLaw:
      return gen::power_law(n, 2, rng);
    case GraphFamily::kExpander:
      return gen::expander(n, 3, rng);
  }
  throw std::invalid_argument("unknown family");
}

const char* campaign_name(CampaignClass c) {
  switch (c) {
    case CampaignClass::kQuiet: return "quiet";
    case CampaignClass::kScattered: return "scattered";
    case CampaignClass::kCorrelated: return "correlated";
    case CampaignClass::kStorm: return "storm";
    case CampaignClass::kPieceTamper: return "piece_tamper";
    case CampaignClass::kNonMstMark: return "nonmst_mark";
    case CampaignClass::kAuxQueueDrop: return "aux_queue_drop";
    case CampaignClass::kStampSkew: return "stamp_skew";
    case CampaignClass::kArenaTruncate: return "arena_truncate";
  }
  return "?";
}

bool is_aux_class(CampaignClass c) {
  return c == CampaignClass::kAuxQueueDrop ||
         c == CampaignClass::kStampSkew ||
         c == CampaignClass::kArenaTruncate;
}

std::optional<CampaignClass> parse_class(std::string_view name) {
  for (CampaignClass c : kAllClasses) {
    if (name == campaign_name(c)) return c;
  }
  return std::nullopt;
}

std::optional<GraphFamily> parse_family(std::string_view name) {
  for (GraphFamily f : kAllFamilies) {
    if (name == family_name(f)) return f;
  }
  return std::nullopt;
}

namespace {

/// Episode constants (CampaignConfig comment): the daemon discipline, the
/// quiet warmup, the storm's gap between waves and the co-alarm collection
/// window after detection. Labels keep VerifierConfig's default pack of 2.
constexpr DaemonOrder kDaemon = DaemonOrder::kAdversarial;
constexpr std::uint64_t kWarmupUnits = 64;
constexpr std::uint64_t kWaveGap = 8;
constexpr std::uint64_t kSlackUnits = 64;

/// The f nodes closest to a random center, by (BFS distance, id) — a
/// correlated blast radius rather than uniform scatter.
std::vector<NodeId> correlated_victims(const WeightedGraph& g, std::size_t f,
                                       Rng& rng) {
  const NodeId center = static_cast<NodeId>(rng.below(g.n()));
  const auto dist = g.bfs_distances(center);
  std::vector<NodeId> order(g.n());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return std::tie(dist[a], a) < std::tie(dist[b], b);
  });
  order.resize(std::min<std::size_t>(f, order.size()));
  return order;
}

}  // namespace

EpisodeResult run_episode(const CampaignConfig& cfg, std::uint64_t seed) {
  EpisodeResult r;
  r.seed = seed;
  const bool aux = is_aux_class(cfg.cls);
  // Aux-state classes are must-detect exactly when the watchdog is armed:
  // it IS their detection mechanism (class comment in the header). With it
  // off they record the missed-detection baseline instead of failing.
  const bool wd_on = cfg.watchdog && aux;
  r.detection_expected = cfg.cls == CampaignClass::kPieceTamper ||
                         cfg.cls == CampaignClass::kNonMstMark || wd_on;
  Rng root(seed);
  Rng grng = root.split();
  Rng frng = root.split();
  Rng daemon = root.split();

  WeightedGraph g = make_family_graph(cfg.family, cfg.n, grng);
  r.n = g.n();
  if (auto pre = oracle::check_precondition(g); !pre.ok) {
    r.error = std::string("generator invariant: ") + pre.detail;
    return r;
  }

  const std::uint64_t logn = ceil_log2(std::max<NodeId>(g.n(), 2)) + 2;
  const std::uint64_t budget = 160 * logn * logn + 2000;

  VerifierConfig vcfg;
  vcfg.sync_mode = false;

  // Marking + the differential oracle (the campaign/oracle contract in the
  // header): the oracle judges the stabilized marked instance before any
  // fault exists.
  std::unique_ptr<VerifierHarness> h;
  if (cfg.cls == CampaignClass::kNonMstMark) {
    std::vector<bool> in_tree;
    if (!make_non_mst_spanning_tree(g, in_tree)) {
      r.skipped = true;
      r.error = "graph is a tree: no non-MST spanning tree exists";
      return r;
    }
    h = std::make_unique<VerifierHarness>(g, vcfg, root.next(), in_tree);
    if (auto verdict = oracle::check_marked_instance(g, h->marker());
        verdict.ok) {
      r.error = "oracle accepted a non-MST marking";
      return r;
    }
  } else {
    h = std::make_unique<VerifierHarness>(g, vcfg, root.next());
    if (auto verdict = oracle::check_marked_instance(g, h->marker());
        !verdict.ok) {
      r.error = std::string("marked tree is not the true MST: ") +
                verdict.detail;
      return r;
    }
  }

  auto& sim = h->sim();
  // Drives the daemon directly (not VerifierHarness::run) so storm waves
  // keep landing after a mid-storm alarm — run() returns at first alarm.
  // Detection times count units run, through the unit that raised the
  // first alarm: an async alarm is stamped with the clock before its unit,
  // so the stamp alone reads one unit short.
  std::optional<std::uint64_t> alarm_seen;  // sim.time() after that unit
  auto step = [&] {
    sim.async_unit(daemon, kDaemon);
    if (!alarm_seen && sim.first_alarm_time()) alarm_seen = sim.time();
  };
  auto run_until_alarm = [&](std::uint64_t units) {
    for (std::uint64_t i = 0; i < units && !alarm_seen; ++i) step();
    return alarm_seen;
  };

  if (cfg.cls == CampaignClass::kNonMstMark) {
    // No injected faults: the initial configuration itself is the lie.
    const auto first = run_until_alarm(budget);
    r.detected = first.has_value();
    if (!r.detected) {
      r.error = "verifier never alarmed on a non-MST marking";
      return r;
    }
    r.detection_units = *first;  // the run started at time 0
    r.distance = 0;  // the whole configuration is faulty
    r.ok = true;
    return r;
  }

  // A correct marked instance must hold quiet through the warmup.
  if (run_until_alarm(kWarmupUnits)) {
    r.error = "false alarm during warmup";
    return r;
  }

  if (cfg.cls == CampaignClass::kQuiet) {
    r.ok = true;
    return r;
  }

  if (wd_on) sim.set_watchdog(watchdog_budget_for(g.n()));

  std::vector<NodeId> victims;
  const std::uint64_t t0 = sim.time();
  switch (cfg.cls) {
    case CampaignClass::kScattered:
      victims = pick_fault_nodes(g.n(), cfg.faults, frng);
      inject_faults<VerifierState>(h->protocol(), sim,
                                   std::span<const NodeId>(victims), frng);
      break;
    case CampaignClass::kCorrelated:
      victims = correlated_victims(g, cfg.faults, frng);
      inject_faults<VerifierState>(h->protocol(), sim,
                                   std::span<const NodeId>(victims), frng);
      break;
    case CampaignClass::kStorm:
      // Repeated fault-while-stabilizing waves: later waves land while the
      // detector is still chewing on earlier ones (alarms may already be
      // up — injection continues regardless).
      for (std::uint32_t w = 0; w < cfg.waves; ++w) {
        if (w > 0) {
          for (std::uint64_t i = 0; i < kWaveGap; ++i) step();
        }
        auto wave = pick_fault_nodes(g.n(), cfg.faults, frng);
        inject_faults<VerifierState>(h->protocol(), sim,
                                     std::span<const NodeId>(wave), frng);
        victims.insert(victims.end(), wave.begin(), wave.end());
      }
      break;
    case CampaignClass::kPieceTamper: {
      const auto victim = h->tamper_loadbearing_piece(frng.next() % 1024);
      if (!victim) {
        r.skipped = true;
        r.error = "no load-bearing piece on this instance";
        return r;
      }
      victims.push_back(*victim);
      break;
    }
    case CampaignClass::kAuxQueueDrop: {
      // The motivating total-state fault: a load-bearing register lie
      // whose activation evidence is then consistently wiped from queue
      // and bitmap — every local invariant still holds, so only the
      // watchdog's periodic reseed can resurface the victim.
      const auto victim = h->tamper_loadbearing_piece(frng.next() % 1024);
      if (!victim) {
        r.skipped = true;
        r.error = "no load-bearing piece on this instance";
        return r;
      }
      victims.push_back(*victim);
      sim.aux_suppress_pending();
      break;
    }
    case CampaignClass::kStampSkew:
      victims = pick_fault_nodes(g.n(), cfg.faults, frng);
      aux_skew_stamps(sim, std::span<const NodeId>(victims),
                      skewed_stamp(sim.time(), std::uint32_t{1} << 20));
      break;
    case CampaignClass::kArenaTruncate:
      victims = pick_fault_nodes(g.n(), cfg.faults, frng);
      aux_silent_mutate(sim, std::span<const NodeId>(victims),
                        [](NodeId, VerifierState& s) {
                          const auto len = s.labels.string_length();
                          if (len > 0) {
                            s.labels.set_string_length(
                                static_cast<std::uint32_t>(len - 1));
                          }
                        });
      break;
    default:
      break;
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  r.faults_landed = victims.size();

  // Detection is either a protocol alarm or — for faults with no register
  // symptom a node could ever alarm on — a watchdog-trip audit reporting
  // violations (stamp skew, header truncation). Audits run only at trips,
  // so the violation counter moving IS the engine-level detection event.
  const auto viol0 = sim.stats().audit_violations;
  bool via_audit = false;
  auto detect = [&](std::uint64_t units) -> std::optional<std::uint64_t> {
    for (std::uint64_t i = 0; i < units; ++i) {
      if (alarm_seen) return alarm_seen;
      if (sim.stats().audit_violations > viol0) {
        via_audit = true;
        return sim.time();
      }
      step();
    }
    if (alarm_seen) return alarm_seen;
    if (sim.stats().audit_violations > viol0) {
      via_audit = true;
      return sim.time();
    }
    return std::nullopt;
  };

  const auto first = detect(budget);
  r.detected = first.has_value();
  if (r.detected) {
    r.detection_units = *first - t0;
    if (via_audit) {
      // Engine-level detection: no alarming node to measure a hop
      // distance to (mirrors the kNonMstMark convention).
      r.distance = 0;
    } else {
      for (std::uint64_t i = 0; i < kSlackUnits; ++i) step();
      r.distance = detection_distance(g, victims, sim.alarmed_nodes());
      if (!r.distance) {
        r.error = "detected but alarm set empty";  // unreachable by contract
        return r;
      }
    }
  } else if (r.detection_expected) {
    r.error = aux ? "aux-state fault went undetected despite the watchdog"
                  : "load-bearing tamper went undetected";
    return r;
  }
  r.ok = true;
  return r;
}

LatencyDistribution summarize_latency(const std::vector<EpisodeResult>& eps) {
  LatencyDistribution d;
  d.episodes = eps.size();
  std::vector<std::uint64_t> lat;
  for (const EpisodeResult& e : eps) {
    if (e.skipped) {
      ++d.skipped;
    } else if (!e.ok) {
      ++d.failed;
    } else if (e.detected) {
      ++d.detected;
      lat.push_back(e.detection_units);
    } else {
      ++d.undetected;
    }
  }
  if (lat.empty()) return d;
  std::sort(lat.begin(), lat.end());
  auto q = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        std::llround(p * static_cast<double>(lat.size() - 1)));
    return lat[idx];
  };
  d.min = lat.front();
  d.p50 = q(0.5);
  d.p99 = q(0.99);
  d.max = lat.back();
  return d;
}

CampaignResult run_campaign(const CampaignConfig& cfg,
                            std::uint64_t campaign_seed, std::size_t episodes,
                            BatchRunner* runner) {
  CampaignResult out;
  out.cfg = cfg;
  if (runner != nullptr) {
    out.episodes = runner->map<EpisodeResult>(
        episodes, campaign_seed, [&](std::size_t i, Rng&) {
          return run_episode(cfg, episode_seed(campaign_seed, i));
        });
  } else {
    out.episodes.reserve(episodes);
    for (std::size_t i = 0; i < episodes; ++i) {
      out.episodes.push_back(run_episode(cfg, episode_seed(campaign_seed, i)));
    }
  }
  out.latency = summarize_latency(out.episodes);
  return out;
}

}  // namespace ssmst::campaign
