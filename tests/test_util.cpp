#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/bench_io.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ssmst {
namespace {

TEST(Bits, BitsForValues) {
  EXPECT_EQ(bits_for_values(1), 1);
  EXPECT_EQ(bits_for_values(2), 1);
  EXPECT_EQ(bits_for_values(3), 2);
  EXPECT_EQ(bits_for_values(4), 2);
  EXPECT_EQ(bits_for_values(5), 3);
  EXPECT_EQ(bits_for_values(1024), 10);
  EXPECT_EQ(bits_for_values(1025), 11);
}

TEST(Bits, BitsForCounter) {
  EXPECT_EQ(bits_for_counter(0), 1);
  EXPECT_EQ(bits_for_counter(1), 1);
  EXPECT_EQ(bits_for_counter(2), 2);
  EXPECT_EQ(bits_for_counter(255), 8);
  EXPECT_EQ(bits_for_counter(256), 9);
}

TEST(Bits, CeilFloorLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(17), 5);
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(17), 4);
  EXPECT_EQ(floor_log2(32), 5);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.range(5, 8));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 5u);
  EXPECT_EQ(*seen.rbegin(), 8u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> xs = {1, 2, 3, 4, 5, 6, 7};
  auto copy = xs;
  rng.shuffle(copy);
  std::multiset<int> a(xs.begin(), xs.end());
  std::multiset<int> b(copy.begin(), copy.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, SplitIndependent) {
  Rng a(3);
  Rng b = a.split();
  EXPECT_NE(a.next(), b.next());
}

TEST(Stats, Summary) {
  auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
}

TEST(Stats, SummaryEmpty) {
  auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Stats, LinearFitExact) {
  auto f = fit_linear({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
}

TEST(Stats, LogLogSlopeOfQuadratic) {
  std::vector<double> xs, ys;
  for (double x = 1; x <= 64; x *= 2) {
    xs.push_back(x);
    ys.push_back(3 * x * x);
  }
  EXPECT_NEAR(loglog_slope(xs, ys), 2.0, 1e-9);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"x", "10"});
  t.add_row({"longer", "7"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 7     |"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

/// argv for the bench flag helpers: "bench" followed by `args`.
struct Argv {
  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    store.insert(store.begin(), "bench");
    for (std::string& a : store) ptrs.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> store;
  std::vector<char*> ptrs;
};

TEST(BenchArgs, ReadsPlainDecimalsAndFallsBack) {
  Argv a({"4", "--max-n=16384", "--json=out.json"});
  reject_unknown_flags(a.argc(), a.argv(), {"--max-n", "--json"});
  EXPECT_EQ(arg_u64(a.argc(), a.argv(), "--max-n", 7), 16384u);
  EXPECT_EQ(arg_u64(a.argc(), a.argv(), "--n", 7), 7u);
  EXPECT_EQ(arg_value(a.argc(), a.argv(), "--json"), "out.json");
}

TEST(BenchArgs, NonDecimalValueExitsTwo) {
  for (const char* bad : {"--max-n=abc", "--max-n=", "--max-n=-1",
                          "--max-n=1e6", "--max-n=99999999999999999999"}) {
    Argv a({bad});
    EXPECT_EXIT(arg_u64(a.argc(), a.argv(), "--max-n", 7),
                ::testing::ExitedWithCode(2), "plain decimal")
        << bad;
  }
}

TEST(BenchArgs, UnknownFlagExitsTwoAndListsAcceptedFlags) {
  for (const char* bad : {"--max_n=16384", "--help", "--json"}) {
    Argv a({"2", bad});
    EXPECT_EXIT(
        reject_unknown_flags(a.argc(), a.argv(), {"--max-n", "--json"}),
        ::testing::ExitedWithCode(2),
        "unknown flag.*accepted flags: --max-n=VALUE --json=VALUE")
        << bad;
  }
}

}  // namespace
}  // namespace ssmst
