// Wall-clock micro-benchmarks (google-benchmark) for the library kernels:
// reference MST, the full marker pipeline, one verifier round, and one
// SYNC_MST simulation round. These measure the *simulator's* throughput,
// not the distributed complexity (which the other benches report in
// rounds/units).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/ssmst.hpp"
#include "sim/batch.hpp"
#include "util/bench_io.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace ssmst {
namespace {

const WeightedGraph& test_graph(NodeId n) {
  static std::map<NodeId, WeightedGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(99);
    it = cache.emplace(n, gen::random_connected(n, n, rng)).first;
  }
  return it->second;
}

void BM_Kruskal(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kruskal_mst_edges(g));
  }
}
BENCHMARK(BM_Kruskal)->Arg(256)->Arg(1024);

void BM_ReferenceHierarchy(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_reference_hierarchy(g));
  }
}
BENCHMARK(BM_ReferenceHierarchy)->Arg(256)->Arg(1024);
// The 2^17 rows are DRAM-bound, the regime perfbench's pipeline marks in;
// `tools/ab.sh <base> <change> 'micro:BM_FullMarker/131072'` A/Bs the
// marker alone there.
BENCHMARK(BM_ReferenceHierarchy)->Arg(1 << 17)->Unit(benchmark::kMillisecond);

void BM_FullMarker(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_labels(g));
  }
}
BENCHMARK(BM_FullMarker)->Arg(256)->Arg(1024);
BENCHMARK(BM_FullMarker)->Arg(1 << 17)->Unit(benchmark::kMillisecond);

void BM_SyncMstFullRun(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sync_mst(g));
  }
}
BENCHMARK(BM_SyncMstFullRun)->Arg(256);

// Raw engine throughput: how many synchronous rounds per second the
// simulator sustains on the 1024-node random graph with a light POD
// protocol. This isolates the per-round engine overhead (register-file
// handling + accounting) from protocol logic, which is what the
// double-buffered sync_round is meant to shrink.
// PulseState has a single runtime protocol target, as everywhere else in
// the library (one protocol per register type) — this keeps the call sites
// devirtualizable.
struct PulseState {
  std::uint64_t pulse = 0;
  std::uint64_t seen_max = 0;
};
SSMST_REGISTER_HEADER(PulseState);

class PulseProtocol final : public Protocol<PulseState> {
 public:
  void step(NodeId, PulseState& self, const NeighborReader<PulseState>& nbr,
            std::uint64_t) override {
    std::uint64_t m = self.pulse;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      m = std::max(m, nbr.at_port(p).pulse);
    }
    self.seen_max = m;
    self.pulse = m + 1;
  }
  std::size_t state_bits(const PulseState&, NodeId) const override {
    return 128;
  }
};

void BM_SimSyncRound(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  PulseProtocol proto;
  Simulation<PulseState> sim(g, proto, std::vector<PulseState>(g.n()));
  for (auto _ : state) {
    sim.sync_round();
  }
  state.SetItemsProcessed(state.iterations() * g.n());
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimSyncRound)->Arg(1024);

// Sharded sync rounds: the same engine sweep on a large graph, split into
// contiguous CSR shards across a thread pool (bit-identical results; see
// test_parallel_sim). Arg0 = nodes, Arg1 = threads; a one-lane pool gives
// the one-shard sweep, the baseline the speedup is measured against.
void BM_SimSyncRoundSharded(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  const auto threads = static_cast<unsigned>(state.range(1));
  PulseProtocol proto;
  ThreadPool pool(threads);  // declared first: must outlive the simulation
  Simulation<PulseState> sim(g, proto, std::vector<PulseState>(g.n()), &pool);
  for (auto _ : state) {
    sim.sync_round();
  }
  state.SetItemsProcessed(state.iterations() * g.n());
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimSyncRoundSharded)
    ->Args({1 << 17, 1})
    ->Args({1 << 17, 2})
    ->Args({1 << 17, 4})
    ->Args({1 << 17, 8})
    ->Unit(benchmark::kMicrosecond);

// Batched sweep: many small independent sims fanned out over a
// BatchRunner (the bench_detection_* layout). Arg0 = threads.
void BM_BatchSweep(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto& g = test_graph(256);
  BatchRunner runner(threads);
  for (auto _ : state) {
    auto out = runner.map<std::uint64_t>(
        64, 7, [&](std::size_t i, Rng& rng) {
          PulseProtocol proto;
          std::vector<PulseState> init(g.n());
          init[i % g.n()].pulse = rng.next() % 1000;
          Simulation<PulseState> sim(g, proto, init);
          for (int r = 0; r < 32; ++r) sim.sync_round();
          return sim.cstate(0).seen_max;
        });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BatchSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Event-driven async engine (the activation queue): per-unit cost must
// scale with the *active set*, not with n. On a quiescent 2^17-node
// instance a single 1-node fault wakes only its closed neighbourhood, so a
// unit costs a few activations, not n (the activations/unit counter); see
// BM_AsyncUnitFullActivity for the all-nodes-active side.
// MaxFloodState quiesces once the maximum has flooded; the corrupted value
// is *below* the flooded maximum, so repair stays local to the victim's
// neighbourhood. The protocol deliberately relies on the generic
// step_changed byte-compare, so the default detector is what's measured.
struct MaxFloodState {
  std::uint64_t value = 0;
};
SSMST_REGISTER_HEADER(MaxFloodState);

class MaxFloodProtocol final : public Protocol<MaxFloodState> {
 public:
  void step(NodeId, MaxFloodState& self,
            const NeighborReader<MaxFloodState>& nbr,
            std::uint64_t) override {
    std::uint64_t m = self.value;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      m = std::max(m, nbr.at_port(p).value);
    }
    self.value = m;
  }
  std::size_t state_bits(const MaxFloodState&, NodeId) const override {
    return 64;
  }
};

void BM_AsyncUnitSparse(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  MaxFloodProtocol proto;
  std::vector<MaxFloodState> init(g.n());
  init[0].value = 1u << 30;
  Simulation<MaxFloodState> sim(g, proto, init);
  Rng daemon(17);
  // Flood to quiescence: 64 units comfortably cover the random graph's
  // diameter (ascending in-place drains flood whole chains per unit).
  for (int u = 0; u < 64; ++u) {
    sim.async_unit(daemon, DaemonOrder::kRoundRobin);
  }
  const NodeId victim = g.n() / 2;
  for (auto _ : state) {
    // One 1-node fault (below the flooded max: repair is local), then
    // three units: repair, neighbourhood confirmation, quiescence.
    sim.state(victim).value = 0;
    for (int u = 0; u < 3; ++u) {
      sim.async_unit(daemon, DaemonOrder::kRoundRobin);
    }
  }
  state.SetItemsProcessed(state.iterations() * 3);  // units
  state.counters["activations/unit"] = benchmark::Counter(
      static_cast<double>(sim.stats().activations) /
      static_cast<double>(sim.stats().units));
}
BENCHMARK(BM_AsyncUnitSparse)->Arg(1 << 17)->Unit(benchmark::kMicrosecond);

// The other side of the bound: every node is enabled every unit
// (PulseState always advances), so each unit is a full drain followed by
// the blanket re-enable — the queue machinery's cost under dense activity.
// The protocol reports its (constant) change verdict exactly, like the
// real protocols do, so what's measured is the queue machinery itself.
struct AsyncPulseState {
  std::uint64_t pulse = 0;
};
SSMST_REGISTER_HEADER(AsyncPulseState);

class AsyncPulseProtocol final : public Protocol<AsyncPulseState> {
 public:
  void step(NodeId, AsyncPulseState& self,
            const NeighborReader<AsyncPulseState>& nbr,
            std::uint64_t) override {
    std::uint64_t m = self.pulse;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      m = std::max(m, nbr.at_port(p).pulse);
    }
    self.pulse = m + 1;
  }
  bool step_changed(NodeId, AsyncPulseState& self,
                    const NeighborReader<AsyncPulseState>& nbr,
                    std::uint64_t) override {
    std::uint64_t m = self.pulse;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      m = std::max(m, nbr.at_port(p).pulse);
    }
    self.pulse = m + 1;
    return true;  // the pulse always advances
  }
  std::size_t state_bits(const AsyncPulseState&, NodeId) const override {
    return 64;
  }
};

void BM_AsyncUnitFullActivity(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  AsyncPulseProtocol proto;
  Simulation<AsyncPulseState> sim(g, proto,
                                  std::vector<AsyncPulseState>(g.n()));
  Rng daemon(18);
  sim.async_unit(daemon, DaemonOrder::kRoundRobin);  // warm the queue
  for (auto _ : state) {
    sim.async_unit(daemon, DaemonOrder::kRoundRobin);
  }
  state.SetItemsProcessed(state.iterations() * g.n());
  state.counters["activations/unit"] = benchmark::Counter(
      static_cast<double>(sim.stats().activations) /
      static_cast<double>(sim.stats().units));
}
BENCHMARK(BM_AsyncUnitFullActivity)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

// Sharded parallel async drains (the sharded-drain contract in
// sim/simulation.hpp): a multi-fault storm on a quiescent KKP-verifier
// instance, drained by the conflict-epoch engine. Arg0 = nodes, Arg1 =
// threads (1 = the sequential reference drain, the speedup baseline),
// Arg2 = faults per storm. Every iteration injects one storm into a fresh
// contiguous victim block (identical blocks and corruption draws at every
// thread count, so the workload — and, by the determinism guarantee, every
// register trajectory — is bit-identical across the Arg1 axis) and drains
// it over three units. The KKP baseline is the right storm protocol: a
// clean instance is quiescent (VerifierProtocol's live nodes never are),
// each woken node re-verifies its O(deg x levels) neighbourhood — real
// per-activation work — and alarmed regions go silent again, so the
// per-iteration workload is stationary while the victim blocks stay
// fresh. On a 1-CPU host the speedup shows up as calling-lane CPU time
// (the cpu_time column / cpu_ns_per_iter record), like the PR 2/3 sharded
// benches; wall time tracks it on multi-core hardware.
const MarkerOutput& test_marker(NodeId n) {
  static std::map<NodeId, MarkerOutput> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_labels(test_graph(n))).first;
  }
  return it->second;
}

void BM_AsyncDrainParallel(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto& g = test_graph(n);
  KkpVerifierProtocol proto(g);
  ThreadPool pool(threads);  // declared first: must outlive the simulation
  // A one-lane pool is one shard, so kParallel leaves its drains sequential.
  Simulation<KkpState> sim(g, proto, proto.initial_states(test_marker(n)),
                           &pool);
  sim.set_async_drain(AsyncDrain::kParallel);
  Rng daemon(29);
  // Settle to quiescence: the initial blanket unit is the only full drain.
  for (int u = 0; u < 4; ++u) {
    sim.async_unit(daemon, DaemonOrder::kRoundRobin);
  }
  const std::uint64_t base_acts = sim.stats().activations;
  const std::uint64_t base_defer = sim.stats().cross_shard_deferrals;
  std::vector<NodeId> victims(k);
  const std::uint64_t blocks = n / k;
  std::uint64_t block = 0;
  for (auto _ : state) {
    // Fresh non-overlapping block per storm: previously alarmed regions
    // have quiesced, so each iteration drains the same-shaped wavefront.
    const auto base = static_cast<NodeId>((block++ % blocks) * k);
    std::iota(victims.begin(), victims.end(), base);
    Rng frng(1000 + block);
    inject_faults<KkpState>(proto, sim, std::span<const NodeId>(victims),
                            frng);
    for (int u = 0; u < 3; ++u) {
      sim.async_unit(daemon, DaemonOrder::kRoundRobin);
    }
  }
  const std::uint64_t acts = sim.stats().activations - base_acts;
  state.SetItemsProcessed(static_cast<std::int64_t>(acts));
  state.counters["activations/unit"] = benchmark::Counter(
      static_cast<double>(acts) /
      static_cast<double>(3 * std::max<std::uint64_t>(
                                  static_cast<std::uint64_t>(state.iterations()), 1)));
  state.counters["deferred/act"] = benchmark::Counter(
      static_cast<double>(sim.stats().cross_shard_deferrals - base_defer) /
      static_cast<double>(std::max<std::uint64_t>(acts, 1)));
}
// Fixed iteration count: sticky KKP alarms make successive storms slightly
// cheaper (their boundaries touch earlier, now-silent alarm regions), so
// time-based iteration counts would hand different workload mixes to
// different thread counts. 64 identical storms per row keep every thread
// variant on the exact same register trajectory.
BENCHMARK(BM_AsyncDrainParallel)
    ->Args({1 << 17, 1, 256})
    ->Args({1 << 17, 2, 256})
    ->Args({1 << 17, 4, 256})
    ->Args({1 << 17, 8, 256})
    ->Args({1 << 20, 1, 1000})
    ->Args({1 << 20, 2, 1000})
    ->Args({1 << 20, 4, 1000})
    ->Args({1 << 20, 8, 1000})
    ->Iterations(64)
    ->Unit(benchmark::kMillisecond);

void BM_VerifierRound(benchmark::State& state) {
  const auto& g = test_graph(static_cast<NodeId>(state.range(0)));
  VerifierConfig cfg;
  VerifierHarness h(g, cfg, 1);
  h.run(32);  // reach steady state
  for (auto _ : state) {
    h.sim().sync_round();
  }
  state.SetItemsProcessed(state.iterations() * g.n());
}
BENCHMARK(BM_VerifierRound)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace ssmst

namespace {

/// Console output as usual, plus an optional machine-readable record of
/// every run (items/s when reported, ns/iter otherwise) appended to the
/// flat JSON file shared by the bench drivers (BENCH_PR3.json).
class JsonAppendReporter final : public benchmark::ConsoleReporter {
 public:
  // Plain tabular output (no ANSI color): the records are also consumed by
  // scripts and CI logs.
  JsonAppendReporter() : benchmark::ConsoleReporter(OO_Tabular) {}

  ssmst::BenchJson json;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      const std::string name = r.benchmark_name();
      const auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) {
        json.record(name, "items_per_s", it->second);
      }
      if (r.iterations > 0) {
        json.record(name, "real_ns_per_iter",
                    r.real_accumulated_time / double(r.iterations) * 1e9);
        // Calling-lane CPU time: the speedup axis for the sharded benches
        // on single-core hosts (work claimed by pool workers is not
        // charged to the benchmark thread).
        json.record(name, "cpu_ns_per_iter",
                    r.cpu_accumulated_time / double(r.iterations) * 1e9);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--json=", 0) == 0) {
      json_path = argv[i] + 7;
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  JsonAppendReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.json.record("bench_micro", "peak_rss_bytes",
                       double(ssmst::peak_rss_bytes()));
  if (!reporter.json.flush(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
