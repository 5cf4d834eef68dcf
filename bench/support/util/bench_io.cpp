#include "util/bench_io.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ssmst {

std::size_t peak_rss_bytes() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

void reject_unknown_flags(int argc, char** argv,
                          std::initializer_list<const char*> accepted) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    const std::size_t eq = a.find('=');
    const auto is_key = [&](const char* key) {
      return a.compare(0, eq, key) == 0;
    };
    if (eq != std::string::npos &&
        std::any_of(accepted.begin(), accepted.end(), is_key)) {
      continue;
    }
    std::fprintf(stderr, "%s: unknown flag '%s'; accepted flags:", argv[0],
                 argv[i]);
    for (const char* key : accepted) std::fprintf(stderr, " %s=VALUE", key);
    std::fprintf(stderr, "%s\n", accepted.size() == 0 ? " none" : "");
    std::exit(2);
  }
}

namespace {

/// The value of the first `key=value` argument, or nullptr if there is none.
const char* find_value(int argc, char** argv, const std::string& key) {
  const std::string prefix = key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

}  // namespace

std::string arg_value(int argc, char** argv, const std::string& key,
                      const std::string& fallback) {
  const char* v = find_value(argc, argv, key);
  return v != nullptr ? v : fallback;
}

std::uint64_t arg_u64(int argc, char** argv, const std::string& key,
                      std::uint64_t fallback) {
  const char* v = find_value(argc, argv, key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "%s: %s needs a plain decimal value, got '%s'\n",
                 argv[0], key.c_str(), v);
    std::exit(2);
  }
  return x;
}

void BenchJson::record(const std::string& name, const std::string& metric,
                       double value) {
  records_[name][metric] = value;
}

namespace {

/// Parses the flat two-level JSON object BenchJson::flush writes. Not a
/// general JSON parser: object-of-objects-of-numbers, double-quoted keys.
void parse_flat_json(
    const std::string& text,
    std::map<std::string, std::map<std::string, double>>& out) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  auto parse_string = [&]() -> std::string {
    std::string s;
    if (i >= text.size() || text[i] != '"') return s;
    for (++i; i < text.size() && text[i] != '"'; ++i) s += text[i];
    if (i < text.size()) ++i;  // closing quote
    return s;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return;
  ++i;
  while (true) {
    skip_ws();
    if (i >= text.size() || text[i] == '}') break;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    const std::string bench = parse_string();
    skip_ws();
    if (i < text.size() && text[i] == ':') ++i;
    skip_ws();
    if (i >= text.size() || text[i] != '{') return;
    ++i;
    while (true) {
      skip_ws();
      if (i >= text.size() || text[i] == '}') {
        if (i < text.size()) ++i;
        break;
      }
      if (text[i] == ',') {
        ++i;
        continue;
      }
      const std::string metric = parse_string();
      skip_ws();
      if (i < text.size() && text[i] == ':') ++i;
      skip_ws();
      std::size_t used = 0;
      double value = 0;
      try {
        value = std::stod(text.substr(i), &used);
      } catch (...) {
        return;
      }
      i += used;
      if (!bench.empty() && !metric.empty()) out[bench][metric] = value;
    }
  }
}

}  // namespace

bool BenchJson::flush(const std::string& path) const {
  if (path.empty()) return true;
  std::map<std::string, std::map<std::string, double>> merged;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      parse_flat_json(ss.str(), merged);
    }
  }
  for (const auto& [bench, metrics] : records_) {
    for (const auto& [metric, value] : metrics) {
      merged[bench][metric] = value;
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\n";
  bool first_bench = true;
  for (const auto& [bench, metrics] : merged) {
    if (!first_bench) out << ",\n";
    first_bench = false;
    out << "  \"" << bench << "\": {";
    bool first_metric = true;
    for (const auto& [metric, value] : metrics) {
      if (!first_metric) out << ", ";
      first_metric = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", value);
      out << "\"" << metric << "\": " << buf;
    }
    out << "}";
  }
  out << "\n}\n";
  return out.good();
}

SloQuantiles slo_quantiles(std::vector<double> values) {
  SloQuantiles q;
  q.samples = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const auto rank = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        std::llround(p * static_cast<double>(values.size() - 1)));
    return values[idx];
  };
  q.min = values.front();
  q.p50 = rank(0.5);
  q.p99 = rank(0.99);
  q.p999 = rank(0.999);
  q.max = values.back();
  return q;
}

std::vector<std::uint64_t> bench_ladder(std::uint64_t base,
                                        std::uint64_t factor,
                                        std::uint64_t max_n) {
  std::vector<std::uint64_t> sizes;
  if (max_n == 0) return sizes;
  for (std::uint64_t nn = base; nn <= max_n; nn *= factor) {
    sizes.push_back(nn);
  }
  if (sizes.empty() || sizes.back() != max_n) sizes.push_back(max_n);
  return sizes;
}

}  // namespace ssmst
