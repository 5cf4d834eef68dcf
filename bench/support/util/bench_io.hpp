#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace ssmst {

/// Peak resident set size of this process so far, in bytes (getrusage
/// ru_maxrss). Monotone over the process lifetime: a value printed after
/// the n-th experiment of a bench covers everything run up to that point.
std::size_t peak_rss_bytes();

/// Minimal argv helpers for the bench drivers (which keep their positional
/// thread-count argument and add a few `--key=value` flags on top).
///
/// reject_unknown_flags: every argument that starts with "--" must be
/// `key=value` with `key` in `accepted`. Anything else (`--help`, a
/// misspelt `--max_n=16384`, a bare `--json`) prints the argument and the
/// accepted flags to stderr and exits with status 2, before any work
/// starts. Drivers call it first thing in main.
void reject_unknown_flags(int argc, char** argv,
                          std::initializer_list<const char*> accepted);
std::string arg_value(int argc, char** argv, const std::string& key,
                      const std::string& fallback = "");
/// `key`'s value as a plain decimal (digits only, at most 2^64 - 1);
/// `fallback` when the flag is absent. Any other value (`abc`, `-1`,
/// `1e6`, an empty one) prints an error to stderr and exits with status 2.
std::uint64_t arg_u64(int argc, char** argv, const std::string& key,
                      std::uint64_t fallback);

/// Geometric size ladder for the benches' scale sections: base, base *
/// factor, ... while <= max_n, always ending exactly at max_n (so e.g. a
/// --max-n=2^22 run gets its own row instead of stopping at the last full
/// rung). Empty when max_n is 0.
std::vector<std::uint64_t> bench_ladder(std::uint64_t base,
                                        std::uint64_t factor,
                                        std::uint64_t max_n);

/// Nearest-rank service-level quantiles over one metric's per-tenant
/// samples (the SLO columns of bench_service: detection-latency units,
/// rounds/s). All zero when the sample set is empty; p999 needs ~1000
/// samples to differ from max, smaller fleets just saturate to the top
/// sample — fine for smoke rows, say so when reading them.
struct SloQuantiles {
  std::size_t samples = 0;
  double min = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;
};

/// Computes nearest-rank (round half up over the sorted samples)
/// quantiles; takes the vector by value because it sorts it.
SloQuantiles slo_quantiles(std::vector<double> values);

/// Collects benchmark records and merges them into a flat JSON file:
///
///   { "bench/name": {"items_per_s": 1.0e6, "peak_rss_bytes": 2.0e9}, ... }
///
/// flush() re-reads the target file and merges, so several bench binaries
/// (and repeated runs) can contribute to one BENCH_PR3.json — the
/// machine-readable perf trajectory tracked across PRs. The reader handles
/// exactly the flat two-level subset this class writes.
class BenchJson {
 public:
  void record(const std::string& name, const std::string& metric,
              double value);

  /// Merge-write into `path`; no-op when `path` is empty. Returns false on
  /// I/O failure.
  bool flush(const std::string& path) const;

 private:
  std::map<std::string, std::map<std::string, double>> records_;
};

}  // namespace ssmst
