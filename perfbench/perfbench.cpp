// End-to-end benchmark for the self-stabilizing MST verifier.
//
// One single-process program that calls only the library's public API. It
// runs one of four seeded workloads, checks every output, and prints the
// end-to-end metrics (tracing off) or the per-layer metrics (--trace 1) as
// the last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (README.md has the reasons and the layers each one loads):
//   pipeline      graph in -> marked MST -> labels adopted -> verdict, 2^17
//   train-detect  load-bearing piece tamper -> first alarm, n = 64, sync
//   kkp-storm     16-victim storm on a settled 2^17 KKP instance, async
//   fleet         closed loop of 128-tenant waves on a 2-lane service
//
// Metrics are either host time (what running the simulator costs) or
// simulated (what the modelled network does). A run makes at least three
// passes; each pass sets the workload up from the seed and runs the same
// fixed list of ops. Simulated values are a pure function of the seed and
// must repeat exactly on every pass; a digest over them is printed so two
// builds can be shown to simulate the same thing. Host times take each op
// at its fastest pass (see kMinPasses).
//
// With --trace 1 every op runs twice, once plain and once with a span
// around each call into the library; the plain and traced runs must agree
// on every simulated statistic, and their difference is the tracing
// overhead. Spans are kept in memory and written to --trace-out at exit.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out spans.csv]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "labels/arena.hpp"
#include "labels/marker.hpp"
#include "mstalgo/reference_hierarchy.hpp"
#include "partition/partitions.hpp"
#include "selfstab/baselines.hpp"
#include "sim/campaign.hpp"
#include "sim/faults.hpp"
#include "sim/service.hpp"
#include "verify/metrology.hpp"
#include "verify/oracle.hpp"
#include "verify/verifier.hpp"

using namespace ssmst;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) { return double(now_ns() - t0) * 1e-9; }

/// Peak resident set of this process image, in bytes: VmHWM, which starts
/// afresh at exec. getrusage's ru_maxrss would also carry the peak of the
/// process that spawned this one (the python launcher, about 15 MB).
double peak_rss_bytes_since_exec() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  if (kb == 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return double(kb) * 1024;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// A generator for (stream, index) under the run's seed, so every input
/// of op i is the same whichever ops ran before it.
Rng derive(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
             index);
}

/// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; }
};

// ------------------------------------------------------------------ tracing

/// In-memory span recorder. Spans nest by call order on the main thread;
/// a span's self time is its duration minus the time its children cover.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  /// Op ids at or above this mark belong to set-up, not to timed ops.
  static constexpr std::uint64_t kSetupOp = std::uint64_t{1} << 40;

  struct Span {
    const char* name;
    std::uint64_t op;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  void set_op(std::uint64_t op) { op_ = op; }
  std::uint64_t op() const { return op_; }

  std::uint32_t open(const char* name) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        {name, op_, stack_.empty() ? kNoParent : stack_.back(), now_ns(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// A per-layer sample that is not a span duration (a count, a ratio, a
  /// wait read from the service's clock stamps). Reported as a median.
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

  std::vector<std::uint64_t> self_ns() const {
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::uint64_t> self = self_ns();
    std::fprintf(f, "span,parent,op,name,start_ns,end_ns,self_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%lld,%llu,%s,%llu,%llu,%llu\n", i,
                   s.parent == kNoParent ? -1LL : (long long)s.parent,
                   (unsigned long long)s.op, s.name,
                   (unsigned long long)s.start_ns,
                   (unsigned long long)s.end_ns,
                   (unsigned long long)self[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t op_ = 0;
  std::map<std::string, std::vector<double>> samples_;
};

/// Runs f() inside a span named `name`; with no tracer it is a plain call.
template <typename F>
decltype(auto) traced(Tracer* t, const char* name, F&& f) {
  if (t == nullptr) return f();
  struct Close {
    Tracer* t;
    std::uint32_t id;
    ~Close() { t->close(id); }
  } close{t, t->open(name)};
  return f();
}

// ------------------------------------------------------- label stripe copy

/// The stripe payload of one label. A register copy only aliases it, so
/// restoring a corrupted register needs this too.
struct StripeCopy {
  std::vector<LevelEntry> levels;
  std::vector<Piece> top, bot;
};

StripeCopy save_stripes(const NodeLabels& l) {
  StripeCopy c;
  const auto roots = l.roots();
  const auto endp = l.endp();
  const auto parents = l.parents();
  const auto cnt = l.endp_cnt();
  for (std::uint32_t i = 0; i < roots.size(); ++i) {
    LevelEntry e;
    e.roots = roots[i];
    e.endp = endp[i];
    e.parents = parents[i];
    e.endp_cnt = cnt[i];
    c.levels.push_back(e);
  }
  for (const Piece& p : l.top_perm()) c.top.push_back(p);
  for (const Piece& p : l.bot_perm()) c.bot.push_back(p);
  return c;
}

/// Writes `c` back through `l`, which must carry the header it was saved
/// from.
void load_stripes(NodeLabels& l, const StripeCopy& c) {
  const auto roots = l.roots();
  const auto endp = l.endp();
  const auto parents = l.parents();
  const auto cnt = l.endp_cnt();
  for (std::uint32_t i = 0; i < roots.size(); ++i) {
    roots[i] = c.levels[i].roots;
    endp[i] = c.levels[i].endp;
    parents[i] = c.levels[i].parents;
    cnt[i] = c.levels[i].endp_cnt;
  }
  l.set_top_perm(c.top.data(), c.top.size());
  l.set_bot_perm(c.bot.data(), c.bot.size());
}

void digest_labels(Digest& d, const NodeLabels& l) {
  d.add(l.sp_root_id);
  d.add(l.sp_dist);
  d.add(l.self_id);
  d.add(l.parent_id);
  d.add(l.n_claim);
  d.add(l.subtree_count);
  d.add(l.string_length());
  const StripeCopy c = save_stripes(l);
  for (const LevelEntry& e : c.levels) {
    d.add((std::uint64_t(e.roots) << 24) | (std::uint64_t(e.endp) << 16) |
          (std::uint64_t(e.parents) << 8) | e.endp_cnt);
  }
  for (const auto* pack : {&c.top, &c.bot}) {
    for (const Piece& p : *pack) {
      d.add(p.root_id);
      d.add(p.level);
      d.add(p.min_out_w);
    }
  }
}

// ------------------------------------------------------------ op results

/// What one call of a workload's step() did. A step is one op, except in
/// fleet, where it is one wave of tenants.
struct Step {
  std::size_t ops = 0;
  std::size_t failed = 0;
  double prog_s = 0;                   ///< program time, restore excluded
  std::vector<double> lat_ms;          ///< per op
  std::vector<double> detect;          ///< simulated rounds/units to alarm
  std::vector<std::uint64_t> sim;      ///< simulated words for the digest
  std::uint64_t activations = 0;       ///< simulated
  std::uint64_t effective = 0;         ///< simulated
  std::uint64_t units = 0;             ///< rounds or units run, simulated
  std::uint64_t alarmed = 0;           ///< simulated
  std::uint64_t arenas_created = 0;    ///< LabelArenaPool::created_total delta
};

void fail(Step& s, const char* workload, std::uint64_t i, const char* why) {
  ++s.failed;
  std::fprintf(stderr, "FAILED %s op %llu: %s\n", workload,
               (unsigned long long)i, why);
}

/// The marker's two stages called alone, outside any op, so that
/// labels.assemble can be read as make_labels minus these two spans.
void probe_marker_stages(const WeightedGraph& g, Tracer* t) {
  auto ref = traced(t, "mstalgo.hierarchy",
                    [&] { return build_reference_hierarchy(g); });
  traced(t, "partition.build",
         [&] { return build_partitions(*ref.hierarchy); });
}

// ------------------------------------------------------------- pipeline

/// Graph in -> verdict out on one 2^17-node random graph: mark, install
/// the registers, adopt them into a simulation, one quiet round, then a
/// planted subtree_count fault that must alarm in the next round.
class Pipeline {
 public:
  static constexpr const char* kName = "pipeline";
  static constexpr NodeId kN = NodeId{1} << 17;
  static constexpr std::size_t kOps = 3;
  static constexpr double kPassSeconds = 6.5;

  explicit Pipeline(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* t) {
    Rng rng = derive(seed_, 1, 0);
    g_ = traced(t, "graph.build", [&] {
      return std::make_unique<WeightedGraph>(
          gen::random_connected(kN, kN / 2, rng));
    });
    const Step warm = step(~std::uint64_t{0}, t);
    if (warm.failed > 0) throw std::runtime_error("pipeline warm-up op failed");
  }

  Step step(std::uint64_t i, Tracer* t) {
    Step s;
    s.ops = 1;
    const NodeId victim =
        static_cast<NodeId>(derive(seed_, 2, i).below(g_->n()));
    if (t != nullptr) probe_marker_stages(*g_, t);
    const std::size_t arenas0 = LabelArenaPool::instance().created_total();
    const std::uint64_t t0 = now_ns();
    std::optional<MarkerOutput> marker;
    std::unique_ptr<VerifierProtocol> proto;
    std::unique_ptr<VerifierSim> sim;
    bool quiet = false;
    std::optional<std::uint64_t> alarm;
    traced(t, "op", [&] {
      marker.emplace(
          traced(t, "labels.make_labels", [&] { return make_labels(*g_); }));
      std::vector<VerifierState> init;
      traced(t, "verify.init_states", [&] {
        proto = std::make_unique<VerifierProtocol>(*g_, VerifierConfig{});
        init = proto->initial_states(*marker);
      });
      sim = traced(t, "labels.adopt", [&] {
        return std::make_unique<VerifierSim>(*g_, *proto, std::move(init));
      });
      traced(t, "sim.sync_round", [&] { sim->sync_round(); });
      quiet = !sim->first_alarm_time().has_value();
      traced(t, "verify.plant",
             [&] { sim->state(victim).labels.subtree_count += 1; });
      traced(t, "sim.sync_round", [&] { sim->sync_round(); });
      alarm = sim->first_alarm_time();
    });
    const double op_s = seconds_since(t0);
    s.prog_s = op_s;
    s.lat_ms.push_back(op_s * 1e3);
    s.arenas_created = LabelArenaPool::instance().created_total() - arenas0;

    const oracle::OracleReport mst = oracle::check_marked_instance(*g_, *marker);
    if (!mst.ok) fail(s, kName, i, "oracle rejects the marked tree");
    if (!quiet) fail(s, kName, i, "false alarm in the quiet round");
    if (!alarm) fail(s, kName, i, "planted label fault did not alarm");
    const SimulationStats& st = sim->stats();
    s.detect.push_back(1);
    s.units = st.rounds;
    s.activations = st.activations;
    s.alarmed = st.alarmed_nodes;
    s.sim = {victim, st.rounds, st.activations, st.alarmed_nodes,
             st.peak_bits, alarm.value_or(~std::uint64_t{0})};
    bits_ = st.peak_bits;
    return s;
  }

  double bits() const { return double(bits_); }
  void finish(Step&) {}

 private:
  std::uint64_t seed_;
  std::unique_ptr<WeightedGraph> g_;
  std::size_t bits_ = 0;
};

// --------------------------------------------------------- train-detect

/// The paper's E2 path (Theorem 8.5) on n = 64 random instances that
/// set-up marked and warmed: tamper one load-bearing permanent piece, then
/// run sync rounds until the first alarm. After each op the instance is
/// put back to its warmed registers, so every op starts from the same
/// state and its result depends only on (instance, salt).
class TrainDetect {
 public:
  static constexpr const char* kName = "train-detect";
  static constexpr NodeId kN = 64;
  static constexpr std::size_t kInstances = 32;
  static constexpr std::uint64_t kWarmRounds = 64;
  // About a third of the tampers are caught in ~1.8k rounds, the rest in
  // ~3.8k; 64 ops keep the median from flipping between the two modes.
  static constexpr std::size_t kOps = 64;
  static constexpr double kPassSeconds = 5.0;

  explicit TrainDetect(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* t) {
    const std::uint64_t op0 = t != nullptr ? t->op() : 0;
    for (std::size_t m = 0; m < kInstances; ++m) {
      if (t != nullptr) t->set_op(op0 + m);
      Instance in;
      Rng grng = derive(seed_, 3, m);
      in.g = traced(t, "graph.build", [&] {
        return std::make_unique<WeightedGraph>(
            gen::random_connected(kN, kN / 2, grng));
      });
      if (t != nullptr) {
        // The harness marks internally, so make_labels is probed too.
        probe_marker_stages(*in.g, t);
        traced(t, "labels.make_labels", [&] { return make_labels(*in.g); });
      }
      in.h = traced(t, "verify.harness", [&] {
        return std::make_unique<VerifierHarness>(*in.g, VerifierConfig{},
                                                 derive(seed_, 4, m).next());
      });
      VerifierSim& sim = in.h->sim();
      for (std::uint64_t r = 0; r < kWarmRounds; ++r) {
        traced(t, "sim.sync_round", [&] { sim.sync_round(); });
      }
      if (sim.first_alarm_time()) {
        throw std::runtime_error("train-detect warm-up raised an alarm");
      }
      const VerifierSim& csim = sim;
      in.warm = csim.states();
      for (const VerifierState& st : in.warm) {
        in.stripes.push_back(save_stripes(st.labels));
      }
      bits_ = std::max(bits_, csim.stats().peak_bits);
      inst_.push_back(std::move(in));
    }
  }

  Step step(std::uint64_t i, Tracer* t) {
    Step s;
    s.ops = 1;
    Instance& in = inst_[i % kInstances];
    VerifierSim& sim = in.h->sim();
    const std::uint64_t salt = derive(seed_, 5, i).next();
    const std::uint64_t budget = 4 * watchdog_budget_for(kN);
    sim.reset_alarm_history();
    const SimulationStats before = sim.stats();
    const std::size_t arenas0 = LabelArenaPool::instance().created_total();

    const std::uint64_t t0 = now_ns();
    std::uint64_t landed = 0;
    std::optional<NodeId> victim;
    std::uint64_t rounds = 0;
    traced(t, "op", [&] {
      victim = traced(t, "verify.tamper",
                      [&] { return in.h->tamper_loadbearing_piece(salt); });
      landed = now_ns();
      while (victim && !sim.first_alarm_time() && rounds < budget) {
        traced(t, "sim.sync_round", [&] { sim.sync_round(); });
        ++rounds;
      }
    });
    const std::uint64_t t1 = now_ns();
    s.prog_s = double(t1 - t0) * 1e-9;
    s.lat_ms.push_back(double(t1 - landed) * 1e-6);
    s.arenas_created = LabelArenaPool::instance().created_total() - arenas0;

    const VerifierSim& csim = sim;
    const SimulationStats& st = csim.stats();
    std::uint32_t distance = ~std::uint32_t{0};
    if (!victim) {
      fail(s, kName, i, "no load-bearing piece to tamper");
    } else if (!st.first_alarm) {
      fail(s, kName, i, "tampered piece not detected within budget");
    } else {
      distance = detection_distance(*in.g, {*victim}, csim.alarmed_nodes())
                     .value_or(distance);
      s.detect.push_back(double(rounds));
      if (t != nullptr) t->sample("verify.detect_distance_p50", distance);
    }
    s.units = rounds;
    s.activations = st.activations - before.activations;
    s.alarmed = st.alarmed_nodes;
    s.sim = {victim.value_or(kNoNode), rounds, s.activations, s.alarmed,
             distance};

    // Restore: warmed headers, then the stripe bytes the tamper wrote.
    sim.states() = in.warm;
    for (NodeId v = 0; v < kN; ++v) {
      load_stripes(sim.state(v).labels, in.stripes[v]);
    }
    in.h->protocol().clear_trace();
    return s;
  }

  double bits() const { return double(bits_); }
  void finish(Step&) {}

 private:
  struct Instance {
    std::unique_ptr<WeightedGraph> g;  // the harness keeps a pointer to it
    std::unique_ptr<VerifierHarness> h;
    std::vector<VerifierState> warm;
    std::vector<StripeCopy> stripes;
  };

  std::uint64_t seed_;
  std::vector<Instance> inst_;
  std::size_t bits_ = 0;
};

// ------------------------------------------------------------ kkp-storm

/// Fault storms on a settled 2^17-node KKP-verifier instance driven by the
/// asynchronous activation queue: 16 victims drawn from the seed are
/// corrupted through inject_faults, then async units run until the first
/// alarm and on until quiescence. After each storm the victims and every
/// alarmed node are put back to their settled registers (stripe bytes
/// included), so per-storm cost does not drift with run length.
class KkpStorm {
 public:
  static constexpr const char* kName = "kkp-storm";
  static constexpr NodeId kN = NodeId{1} << 17;
  static constexpr std::size_t kVictims = 16;
  static constexpr std::uint64_t kUnitCap = 4096;
  static constexpr std::size_t kOps = 1000;
  static constexpr double kPassSeconds = 3.2;

  explicit KkpStorm(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* t) {
    Rng rng = derive(seed_, 6, 0);
    g_ = traced(t, "graph.build", [&] {
      return std::make_unique<WeightedGraph>(
          gen::random_connected(kN, kN / 2, rng));
    });
    {  // the marker is freed once the simulation has adopted its labels
      if (t != nullptr) probe_marker_stages(*g_, t);
      const MarkerOutput marker =
          traced(t, "labels.make_labels", [&] { return make_labels(*g_); });
      std::vector<KkpState> init;
      traced(t, "selfstab.kkp_init", [&] {
        proto_ = std::make_unique<KkpVerifierProtocol>(*g_);
        init = proto_->initial_states(marker);
      });
      sim_ = traced(t, "labels.adopt", [&] {
        return std::make_unique<Simulation<KkpState>>(*g_, *proto_,
                                                      std::move(init));
      });
    }
    Rng daemon = derive(seed_, 7, 0);
    for (std::uint64_t u = 0; u < kUnitCap && !sim_->async_quiescent(); ++u) {
      traced(t, "sim.async_unit",
             [&] { sim_->async_unit(daemon, DaemonOrder::kRandom); });
    }
    if (!sim_->async_quiescent() || sim_->first_alarm_time()) {
      throw std::runtime_error("kkp-storm instance did not settle quietly");
    }
    settled_ = state_digest();
  }

  Step step(std::uint64_t i, Tracer* t) {
    Step s;
    s.ops = 1;
    Simulation<KkpState>& sim = *sim_;
    const Simulation<KkpState>& csim = sim;
    Rng pick = derive(seed_, 8, i);
    std::vector<NodeId> victims;
    while (victims.size() < kVictims) {
      const auto v = static_cast<NodeId>(pick.below(kN));
      if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
        victims.push_back(v);
      }
    }
    std::vector<KkpState> saved;
    std::vector<StripeCopy> saved_stripes;
    for (NodeId v : victims) {
      saved.push_back(csim.cstate(v));
      saved_stripes.push_back(save_stripes(csim.cstate(v).labels.base));
    }
    sim.reset_alarm_history();
    Rng frng = derive(seed_, 9, i);
    Rng daemon = derive(seed_, 10, i);
    const SimulationStats before = csim.stats();

    const std::uint64_t t0 = now_ns();
    std::uint64_t landed = 0, alarmed_at = 0, to_alarm = 0, units = 0;
    traced(t, "op", [&] {
      traced(t, "sim.inject", [&] {
        inject_faults<KkpState>(*proto_, sim, std::span<const NodeId>(victims),
                                frng);
      });
      landed = now_ns();
      while (!sim.first_alarm_time() && units < kUnitCap) {
        traced(t, "sim.async_unit",
               [&] { sim.async_unit(daemon, DaemonOrder::kRandom); });
        ++units;
      }
      alarmed_at = now_ns();
      to_alarm = units;
      while (!sim.async_quiescent() && units < kUnitCap) {
        traced(t, "sim.async_unit",
               [&] { sim.async_unit(daemon, DaemonOrder::kRandom); });
        ++units;
      }
    });
    const std::uint64_t t1 = now_ns();
    s.prog_s = double(t1 - t0) * 1e-9;
    s.lat_ms.push_back(double(alarmed_at - landed) * 1e-6);

    const SimulationStats& st = csim.stats();
    if (!st.first_alarm) {
      fail(s, kName, i, "storm raised no alarm");
    } else {
      s.detect.push_back(double(to_alarm));
    }
    if (!sim.async_quiescent()) fail(s, kName, i, "storm did not quiesce");
    s.units = units;
    s.activations = st.activations - before.activations;
    s.effective = st.effective_steps - before.effective_steps;
    s.alarmed = st.alarmed_nodes;
    s.sim = {to_alarm, units, s.activations, s.effective, s.alarmed};

    // Restore the settled registers: victims in full, alarmed nodes by
    // their sticky bit (a KKP step writes nothing else), then let the
    // re-enabled neighbourhoods drain quietly.
    sim.mutate_registers(std::span<const NodeId>(victims),
                         [&](NodeId v, KkpState& reg) {
                           const auto k = static_cast<std::size_t>(
                               std::find(victims.begin(), victims.end(), v) -
                               victims.begin());
                           reg = saved[k];
                           load_stripes(reg.labels.base, saved_stripes[k]);
                         });
    const std::vector<NodeId> alarmed = csim.alarmed_nodes();
    sim.mutate_registers(std::span<const NodeId>(alarmed),
                         [](NodeId, KkpState& reg) { reg.alarm = false; });
    sim.reset_alarm_history();
    Rng quiet = derive(seed_, 11, i);
    for (std::uint64_t u = 0; u < kUnitCap && !sim.async_quiescent(); ++u) {
      sim.async_unit(quiet, DaemonOrder::kRandom);
    }
    if (sim.first_alarm_time() || !sim.async_quiescent()) {
      fail(s, kName, i, "restored instance is not quiet");
    }
    return s;
  }

  double bits() const { return double(sim_->stats().peak_bits); }

  /// Stationarity: the storms and restores must leave exactly the settled
  /// registers behind.
  void finish(Step& s) {
    if (state_digest() != settled_) {
      fail(s, kName, 0, "registers differ from the settled instance");
    }
  }

 private:
  std::uint64_t state_digest() const {
    Digest d;
    const Simulation<KkpState>& csim = *sim_;
    for (const KkpState& s : csim.states()) {
      d.add(s.parent_port);
      d.add(s.alarm ? 1 : 0);
      digest_labels(d, s.labels.base);
      for (const std::optional<Piece>& p : s.labels.pieces) {
        d.add(p ? p->min_out_w ^ (std::uint64_t(p->level) << 48) ^ p->root_id
                : ~std::uint64_t{0});
      }
    }
    return d.h;
  }

  std::uint64_t seed_;
  std::unique_ptr<WeightedGraph> g_;
  std::unique_ptr<KkpVerifierProtocol> proto_;
  std::unique_ptr<Simulation<KkpState>> sim_;
  std::uint64_t settled_ = 0;
};

// ---------------------------------------------------------------- fleet

/// Per-thread record of every wall-clock reading the traced service takes.
/// The service reads the clock once when a tenant's episode starts and
/// once when it ends, so each lane's stamps alternate start, end.
class LaneStamps {
 public:
  static std::uint64_t read() {
    const std::uint64_t t = now_ns();
    mine().push_back(t);
    return t;
  }

  /// Every lane's stamps since the last call; clears them. Call it only
  /// between drains, when no lane is running.
  static std::vector<std::vector<std::uint64_t>> take() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    std::vector<std::vector<std::uint64_t>> out;
    for (const auto& lane : r.lanes) {
      out.push_back(*lane);
      lane->clear();
    }
    return out;
  }

 private:
  /// Owns every lane's vector, so it outlives the pool threads that write
  /// them (a service joins its lanes when it is destroyed).
  struct Registry {
    std::mutex mu;
    std::vector<std::unique_ptr<std::vector<std::uint64_t>>> lanes;
  };
  static Registry& registry() {
    static Registry r;
    return r;
  }
  static std::vector<std::uint64_t>& mine() {
    thread_local std::vector<std::uint64_t>* lane = nullptr;
    if (lane == nullptr) {
      Registry& r = registry();
      std::lock_guard<std::mutex> lk(r.mu);
      r.lanes.push_back(std::make_unique<std::vector<std::uint64_t>>());
      lane = r.lanes.back().get();
    }
    return *lane;
  }
};

/// A closed loop with one client on one long-lived 2-lane service: submit a
/// wave of 128 tenants, drain it, submit the next. The tenant mix is
/// bench_service's: 3 of every 8 tenants faulted (register tamper, aux
/// queue drop, arena truncate), n 48-64, random or bounded-degree graphs.
class Fleet {
 public:
  static constexpr const char* kName = "fleet";
  static constexpr std::size_t kWave = 128;
  static constexpr unsigned kLanes = 2;
  // Waves. A wave holds 16 register-tamper tenants, whose detection times
  // spread from tens to about a thousand units and set the fleet's p50;
  // 20 waves keep that median within a few percent across seeds.
  static constexpr std::size_t kOps = 20;
  static constexpr double kPassSeconds = 10.5;
  static constexpr std::size_t kProbesPerShape = 4;

  explicit Fleet(std::uint64_t seed) : seed_(seed) {}

  static service::TenantSpec spec(std::size_t i) {
    using service::TenantFault;
    service::TenantSpec sp;
    sp.n = static_cast<NodeId>(48 + 8 * (i % 3));
    sp.family = (i % 2 == 0) ? campaign::GraphFamily::kRandom
                             : campaign::GraphFamily::kBoundedDegree;
    sp.priority = static_cast<std::uint32_t>(1 + i % 4);
    switch (i % 8) {
      case 1: sp.fault = TenantFault::kRegisterTamper; break;
      case 3: sp.fault = TenantFault::kAuxQueueDrop; break;
      case 5: sp.fault = TenantFault::kArenaTruncate; break;
      default: break;
    }
    return sp;
  }

  /// A traced run pairs every wave on two services with the same seed: a
  /// plain one and one whose clock records each lane's stamps.
  void setup(Tracer* t) {
    plain_ = make_service(&now_ns);
    if (t != nullptr) traced_ = make_service(&LaneStamps::read);
    // One untimed wave per service: spawns the lanes and fills the slab
    // pool the timed waves recycle.
    for (auto* svc : {plain_.get(), traced_.get()}) {
      if (svc == nullptr) continue;
      Step warm;
      run_wave(*svc, warm, ~std::uint64_t{0}, nullptr);
      if (warm.failed > 0) throw std::runtime_error("fleet warm-up failed");
    }
    LaneStamps::take();
  }

  Step step(std::uint64_t i, Tracer* t) {
    Step s;
    service::VerificationService& svc = t != nullptr ? *traced_ : *plain_;
    run_wave(svc, s, i, t);
    return s;
  }

  /// bits_per_node: TenantReport does not carry peak_bits, so it is read
  /// from probe instances of every tenant shape (n x family), marked and
  /// warmed the way a tenant episode does it.
  double bits() {
    if (bits_ == 0) {
      for (std::size_t shape = 0; shape < 6; ++shape) {
        const service::TenantSpec sp = spec(shape);
        for (std::size_t k = 0; k < kProbesPerShape; ++k) {
          Rng grng = derive(seed_, 12, shape * kProbesPerShape + k);
          const WeightedGraph g =
              campaign::make_family_graph(sp.family, sp.n, grng);
          VerifierConfig cfg;
          cfg.sync_mode = false;
          VerifierHarness h(g, cfg, grng.next());
          h.run(64);
          bits_ = std::max(bits_, h.sim().stats().peak_bits);
        }
      }
    }
    return double(bits_);
  }

  void finish(Step&) {}

 private:
  std::unique_ptr<service::VerificationService> make_service(
      std::uint64_t (*clock)()) const {
    service::ServiceConfiguration cfg;
    cfg.threads(kLanes).service_seed(seed_).wall_clock(clock);
    return std::make_unique<service::VerificationService>(cfg);
  }

  void run_wave(service::VerificationService& svc, Step& s, std::uint64_t i,
                Tracer* t) {
    const std::size_t base = svc.reports().size();
    const std::size_t arenas0 = LabelArenaPool::instance().created_total();
    const std::uint64_t t0 = now_ns();
    const double cpu0 = t != nullptr ? process_cpu_s() : 0;
    traced(t, "op", [&] {
      for (std::size_t j = 0; j < kWave; ++j) {
        traced(t, "service.submit", [&] { svc.submit(spec(base + j)); });
      }
      traced(t, "service.drain", [&] { svc.drain(); });
    });
    const std::uint64_t t1 = now_ns();
    s.prog_s = double(t1 - t0) * 1e-9;
    s.ops = kWave;
    s.arenas_created = LabelArenaPool::instance().created_total() - arenas0;

    std::uint64_t busy_ns = 0, audits = 0, strikes = 0, repairs = 0;
    for (std::size_t j = 0; j < kWave; ++j) {
      const std::size_t idx = base + j;
      const service::TenantReport& r = svc.reports()[idx];
      const service::TenantSpec sp = spec(idx);
      const char* why = nullptr;
      if (r.outcome == service::TenantOutcome::kShed) {
        why = "tenant shed";
      } else if (sp.fault != service::TenantFault::kNone) {
        if (r.outcome != service::TenantOutcome::kRepaired &&
            r.outcome != service::TenantOutcome::kQuarantined) {
          why = "faulted tenant escaped repair-or-quarantine";
        } else if (r.units_used > r.deadline_units) {
          why = "tenant overran its deadline budget";
        }
      } else if (r.outcome != service::TenantOutcome::kHealthy) {
        why = "healthy tenant did not finish healthy";
      }
      if (why != nullptr) fail(s, kName, i, why);
      s.lat_ms.push_back(double(r.wall_ns) * 1e-6);
      if (r.detected) s.detect.push_back(double(r.detection_units));
      s.sim.push_back(r.result_digest);
      s.units += r.units_used;
      busy_ns += r.wall_ns;
      audits += r.audits;
      strikes += r.strikes;
      repairs += r.repairs;
    }
    if (t == nullptr) return;
    const double wave = double(kWave);
    t->sample("service.cpu_ms_per_tenant",
              (process_cpu_s() - cpu0) * 1e3 / wave);
    t->sample("service.lane_busy_ratio",
              double(busy_ns) / (double(kLanes) * double(t1 - t0)));
    t->sample("service.units_per_tenant", double(s.units) / wave);
    t->sample("service.audits_per_tenant", double(audits) / wave);
    t->sample("service.strikes_per_wave", double(strikes));
    t->sample("service.repairs_per_wave", double(repairs));
    for (const std::vector<std::uint64_t>& lane : LaneStamps::take()) {
      for (std::size_t k = 0; k + 1 < lane.size(); k += 2) {
        t->sample("service.tenant_wait_ms_p50", double(lane[k] - t0) * 1e-6);
      }
    }
  }

  std::uint64_t seed_;
  std::unique_ptr<service::VerificationService> plain_, traced_;
  std::size_t bits_ = 0;
};

// ----------------------------------------------------------------- runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// A run is a number of passes. Each pass sets the workload up from the
/// seed, then runs its fixed op list 0..kOps-1. The guest this benchmark
/// was sized on slows down up to 2x for phases of seconds to minutes (other
/// guests on the host), too long to average out within one run. Since a
/// pass repeats the same simulated work, each op is timed at its fastest
/// pass, and setup_s is the median pass set-up. The pass count depends
/// only on --seconds and the workload's nominal pass length (kPassSeconds,
/// measured on that guest), never on how fast this run goes, so every run
/// takes the minimum over the same number of samples.
constexpr std::size_t kMinPasses = 3;

template <typename W>
std::size_t pass_count(double seconds) {
  const auto nominal =
      static_cast<std::size_t>(std::lround(seconds / W::kPassSeconds));
  return std::max(kMinPasses, nominal);
}

/// Fastest-pass timing of one op (a step's ops, for a fleet wave).
struct Best {
  double prog_s = std::numeric_limits<double>::infinity();
  std::vector<double> lat_ms;

  void add(const Step& s) {
    prog_s = std::min(prog_s, s.prog_s);
    if (lat_ms.empty()) {
      lat_ms = s.lat_ms;
    } else {
      for (std::size_t k = 0; k < lat_ms.size(); ++k) {
        lat_ms[k] = std::min(lat_ms[k], s.lat_ms[k]);
      }
    }
  }
};

struct Timing {
  std::vector<Best> best;  // one per step of the op list

  std::vector<double> lat_ms() const {
    std::vector<double> all;
    for (const Best& b : best) {
      all.insert(all.end(), b.lat_ms.begin(), b.lat_ms.end());
    }
    return all;
  }
  std::vector<double> prog_s() const {
    std::vector<double> all;
    for (const Best& b : best) all.push_back(b.prog_s);
    return all;
  }
  double throughput() const {
    double secs = 0;
    std::size_t ops = 0;
    for (const Best& b : best) {
      secs += b.prog_s;
      ops += b.lat_ms.size();
    }
    return secs > 0 ? double(ops) / secs : 0;
  }
};

/// Simulated work of the traced steps, for the per-op layer metrics.
struct Counts {
  std::uint64_t activations = 0, effective = 0, units = 0, alarmed = 0,
                ops = 0, arenas = 0;

  void add(const Step& s) {
    activations += s.activations;
    effective += s.effective;
    units += s.units;
    alarmed += s.alarmed;
    ops += s.ops;
    arenas += s.arenas_created;
  }
};

void print_metric(std::string& out, const std::string& name, double value,
                  const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name.c_str(), value, unit);
  out += buf;
}

/// Per-layer metrics of a traced run, from its spans and samples.
std::string layer_metrics(const Tracer& tracer, std::size_t ops_per_pass,
                          const Timing& plain, const Timing& traced_t,
                          const Counts& c) {
  const std::vector<std::uint64_t> self = tracer.self_ns();
  const auto& spans = tracer.spans();
  std::map<std::string, std::vector<double>> any, setup, timed;
  std::map<std::uint64_t, std::map<std::string, double>> per_op;
  std::map<std::uint64_t, double> stage_sum;
  double engine_ns = 0;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Tracer::Span& s = spans[k];
    const std::string name = s.name;
    const auto ns = double(self[k]);
    const bool in_setup = s.op >= Tracer::kSetupOp;
    any[name].push_back(ns);
    (in_setup ? setup : timed)[name].push_back(ns);
    per_op[s.op][name] += ns;
    // Stage self times: the layer calls inside the op span, not the
    // marker probes that run outside it.
    if (!in_setup && s.parent != Tracer::kNoParent &&
        std::strcmp(spans[s.parent].name, "op") == 0) {
      stage_sum[s.op] += ns;
    }
    if (!in_setup && (name == "sim.sync_round" || name == "sim.async_unit")) {
      engine_ns += ns;
    }
  }
  std::vector<double> assemble;
  for (const auto& [op, m] : per_op) {
    const auto mk = m.find("labels.make_labels");
    const auto hi = m.find("mstalgo.hierarchy");
    const auto pa = m.find("partition.build");
    if (mk != m.end() && hi != m.end() && pa != m.end()) {
      assemble.push_back(mk->second - hi->second - pa->second);
    }
  }
  // Like the op times it is compared with, each op's stage sum is taken
  // at its fastest traced pass (timed op ids are pass * ops_per_pass + i).
  std::map<std::uint64_t, double> fastest_stages;
  for (const auto& [op, ns] : stage_sum) {
    const auto it = fastest_stages.try_emplace(op % ops_per_pass, ns).first;
    it->second = std::min(it->second, ns);
  }
  std::vector<double> stages;
  for (const auto& [i, ns] : fastest_stages) stages.push_back(ns);
  const auto med = [](const std::map<std::string, std::vector<double>>& m,
                      const char* n) {
    const auto it = m.find(n);
    return it == m.end() ? 0.0 : median(it->second);
  };
  const double ops = double(std::max<std::uint64_t>(c.ops, 1));
  const double acts = double(c.activations);

  std::map<std::string, std::pair<double, const char*>> L = {
      {"graph.build_ms", {med(setup, "graph.build") * 1e-6, "ms"}},
      {"mstalgo.hierarchy_ms", {med(any, "mstalgo.hierarchy") * 1e-6, "ms"}},
      {"partition.build_ms", {med(any, "partition.build") * 1e-6, "ms"}},
      {"labels.assemble_ms", {median(assemble) * 1e-6, "ms"}},
      {"verify.init_states_ms", {med(any, "verify.init_states") * 1e-6, "ms"}},
      {"labels.adopt_ms", {med(any, "labels.adopt") * 1e-6, "ms"}},
      {"selfstab.kkp_init_ms", {med(setup, "selfstab.kkp_init") * 1e-6, "ms"}},
      {"labels.arenas_created", {double(c.arenas), "count"}},
      {"sim.sync_round_us", {med(timed, "sim.sync_round") * 1e-3, "us"}},
      {"sim.ns_per_activation",
       {acts == 0 ? 0 : engine_ns / acts, "ns"}},
      {"verify.tamper_us", {med(timed, "verify.tamper") * 1e-3, "us"}},
      {"sim.inject_us", {med(timed, "sim.inject") * 1e-3, "us"}},
      {"sim.async_unit_us", {med(timed, "sim.async_unit") * 1e-3, "us"}},
      {"sim.units_per_op", {double(c.units) / ops, "count"}},
      {"sim.activations_per_op", {acts / ops, "count"}},
      {"sim.effective_ratio",
       {acts == 0 ? 0 : double(c.effective) / acts,
        "ratio"}},
      {"verify.alarmed_per_op", {double(c.alarmed) / ops, "count"}},
      {"verify.detect_distance_p50", {0, "hops"}},
      {"service.submit_us", {med(timed, "service.submit") * 1e-3, "us"}},
      {"service.drain_ms", {med(timed, "service.drain") * 1e-6, "ms"}},
      {"service.lane_busy_ratio", {0, "ratio"}},
      {"service.cpu_ms_per_tenant", {0, "ms"}},
      {"service.tenant_wait_ms_p50", {0, "ms"}},
      {"service.units_per_tenant", {0, "count"}},
      {"service.audits_per_tenant", {0, "count"}},
      {"service.strikes_per_wave", {0, "count"}},
      {"service.repairs_per_wave", {0, "count"}},
  };
  for (const auto& [name, values] : tracer.samples()) {
    L.at(name).first = median(values);
  }
  // Tracing overhead: traced against plain runs of the same ops.
  const double lat_plain = median(plain.lat_ms());
  const double lat_traced = median(traced_t.lat_ms());
  const double thr_plain = plain.throughput();
  const double thr_traced = traced_t.throughput();
  L["trace.latency_overhead_pct"] = {
      lat_plain > 0 ? (lat_traced / lat_plain - 1) * 100 : 0, "%"};
  L["trace.throughput_overhead_pct"] = {
      thr_traced > 0 ? (thr_plain / thr_traced - 1) * 100 : 0, "%"};
  // Stage self times inside the op against the plain op time.
  const double plain_op_s = median(plain.prog_s());
  L["trace.stage_sum_ratio"] = {
      plain_op_s > 0 ? median(stages) * 1e-9 / plain_op_s : 0, "ratio"};

  std::string out;
  for (const auto& [name, v] : L) print_metric(out, name, v.first, v.second);
  std::printf("traced spans %zu, plain/traced latency p50 %.4f / %.4f ms\n",
              spans.size(), lat_plain, lat_traced);
  return out;
}

template <typename W>
int run(const Args& a) {
  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;
  constexpr std::size_t P = W::kOps;

  std::vector<double> setup_s;
  std::vector<std::vector<std::uint64_t>> sim_ref(P);
  std::vector<double> detect;
  Digest digest;
  Timing plain, traced_t;
  plain.best.resize(P);
  traced_t.best.resize(P);
  std::size_t attempted = 0, failed = 0;
  Counts traced_counts;

  std::unique_ptr<W> w;
  const std::size_t pass_total = pass_count<W>(a.seconds);
  for (std::size_t passes = 0; passes < pass_total; ++passes) {
    w.reset();  // free the previous pass's instance before the next
    if (tr != nullptr) tr->set_op(Tracer::kSetupOp + passes * 1000);
    const std::uint64_t t0 = now_ns();
    w = std::make_unique<W>(a.seed);
    w->setup(tr);
    setup_s.push_back(seconds_since(t0));

    const auto check = [&](std::size_t i, const Step& s) {
      attempted += s.ops;
      failed += s.failed;
      if (passes == 0 && sim_ref[i].empty()) {
        sim_ref[i] = s.sim;
        for (std::uint64_t x : s.sim) digest.add(x);
        detect.insert(detect.end(), s.detect.begin(), s.detect.end());
      } else if (s.sim != sim_ref[i]) {
        ++failed;
        std::fprintf(stderr, "FAILED %s op %zu: simulated differently on "
                     "pass %zu\n", W::kName, i, passes);
      }
    };
    for (std::size_t i = 0; i < P; ++i) {
      if (tr == nullptr) {
        const Step s = w->step(i, nullptr);
        check(i, s);
        plain.best[i].add(s);
        continue;
      }
      // Traced run: the same op plain and traced, in alternating order.
      tracer.set_op(passes * P + i);
      Step p, q;
      if ((i + passes) % 2 == 0) {
        p = w->step(i, nullptr);
        q = w->step(i, tr);
      } else {
        q = w->step(i, tr);
        p = w->step(i, nullptr);
      }
      check(i, p);
      check(i, q);
      plain.best[i].add(p);
      traced_t.best[i].add(q);
      traced_counts.add(q);
    }
    Step end;
    w->finish(end);
    failed += end.failed;
  }

  std::printf("workload %s seed %llu: %zu passes of %zu steps, %zu ops, %zu "
              "failed\n",
              W::kName, (unsigned long long)a.seed, pass_total, P, attempted,
              failed);
  std::printf("simulated digest %s seed %llu window %zu: %016llx\n", W::kName,
              (unsigned long long)a.seed, P, (unsigned long long)digest.h);

  std::string metrics;
  if (!a.trace) {
    const std::vector<double> lat = plain.lat_ms();
    print_metric(metrics, "setup_s", median(setup_s), "s");
    print_metric(metrics, "throughput_per_s", plain.throughput(), "ops/s");
    print_metric(metrics, "latency_ms_p50", quantile(lat, 0.5), "ms");
    print_metric(metrics, "latency_ms_p90", quantile(lat, 0.9), "ms");
    print_metric(metrics, "peak_rss_mb", peak_rss_bytes_since_exec() / 1e6,
                 "MB");
    print_metric(metrics, "detect_rounds_p50", quantile(detect, 0.5),
                 "rounds");
    print_metric(metrics, "detect_rounds_p90", quantile(detect, 0.9),
                 "rounds");
    print_metric(metrics, "bits_per_node", w->bits(), "bits");
    std::printf("latency samples %zu, detect samples %zu\n", lat.size(),
                detect.size());
  } else {
    metrics = layer_metrics(tracer, P, plain, traced_t, traced_counts);
    if (!a.trace_out.empty() && !tracer.write_csv(a.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.workload == Pipeline::kName) return run<Pipeline>(a);
    if (a.workload == TrainDetect::kName) return run<TrainDetect>(a);
    if (a.workload == KkpStorm::kName) return run<KkpStorm>(a);
    if (a.workload == Fleet::kName) return run<Fleet>(a);
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
