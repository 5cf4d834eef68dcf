// Regenerates the paper's worked example (Figure 1 + Table 2): an 18-node
// weighted tree, its fragment hierarchy H_M, and the per-node strings
// Roots / EndP / Parents / Or-EndP. The instance (gen::figure1_example)
// is our fixed analogue of the hand-drawn example, not a copy of it: the
// figure's 18 nodes a..r with tree weights mirroring its values, plus
// non-tree chords, giving a multi-level hierarchy akin to the figure's;
// legality of the printed strings is machine-checked by the test-suite.

#include <cstdio>
#include <string>

#include "core/ssmst.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

using namespace ssmst;

namespace {

std::string roots_cell(RootsEntry e) {
  switch (e) {
    case RootsEntry::kOne:
      return "1";
    case RootsEntry::kZero:
      return "0";
    case RootsEntry::kStar:
      return "*";
  }
  return "?";
}

std::string endp_cell(EndpEntry e) {
  switch (e) {
    case EndpEntry::kUp:
      return "up";
    case EndpEntry::kDown:
      return "down";
    case EndpEntry::kNone:
      return "none";
    case EndpEntry::kStar:
      return "*";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  reject_unknown_flags(argc, argv, {});
  auto g = gen::figure1_example();
  auto m = make_labels(g);
  const auto len = m.labels[0].string_length();

  std::puts("== Figure 1: fragment hierarchy of the 18-node example ==");
  std::printf("MST weight: %llu, hierarchy height ell = %d\n\n",
              static_cast<unsigned long long>(m.tree->total_weight()),
              m.hierarchy->height());
  for (int lev = m.hierarchy->height(); lev >= 0; --lev) {
    std::printf("level %d:", lev);
    for (std::uint32_t f = 0; f < m.hierarchy->fragment_count(); ++f) {
      const Fragment& frag = m.hierarchy->fragment(f);
      if (frag.level != lev) continue;
      std::printf("  {");
      for (std::size_t i = 0; i < frag.nodes.size(); ++i) {
        std::printf("%s%s", i ? "," : "",
                    gen::figure1_name(frag.nodes[i]).c_str());
      }
      std::printf("}");
      if (frag.has_candidate) {
        std::printf("->(%s,%s)w%llu",
                    gen::figure1_name(frag.cand_inside).c_str(),
                    gen::figure1_name(frag.cand_outside).c_str(),
                    static_cast<unsigned long long>(frag.cand_weight));
      }
    }
    std::puts("");
  }

  auto header = [&](const char* name) {
    std::vector<std::string> h = {name};
    for (std::size_t j = 0; j < len; ++j) h.push_back(std::to_string(j));
    return h;
  };

  std::puts("\n== Table 2: Roots strings ==");
  {
    Table t(header("Roots"));
    for (NodeId v = 0; v < g.n(); ++v) {
      std::vector<std::string> row = {gen::figure1_name(v)};
      for (std::size_t j = 0; j < len; ++j) {
        row.push_back(roots_cell(m.labels[v].roots()[j]));
      }
      t.add_row(row);
    }
    t.print();
  }
  std::puts("\n== Table 2: EndP strings ==");
  {
    Table t(header("EndP"));
    for (NodeId v = 0; v < g.n(); ++v) {
      std::vector<std::string> row = {gen::figure1_name(v)};
      for (std::size_t j = 0; j < len; ++j) {
        row.push_back(endp_cell(m.labels[v].endp()[j]));
      }
      t.add_row(row);
    }
    t.print();
  }
  std::puts("\n== Table 2: Parents strings ==");
  {
    Table t(header("Parents"));
    for (NodeId v = 0; v < g.n(); ++v) {
      std::vector<std::string> row = {gen::figure1_name(v)};
      for (std::size_t j = 0; j < len; ++j) {
        row.push_back(std::to_string(m.labels[v].parents()[j]));
      }
      t.add_row(row);
    }
    t.print();
  }
  std::puts("\n== Table 2: Or-EndP (endpoint-count aggregation) ==");
  {
    Table t(header("Or-EndP"));
    for (NodeId v = 0; v < g.n(); ++v) {
      std::vector<std::string> row = {gen::figure1_name(v)};
      for (std::size_t j = 0; j < len; ++j) {
        row.push_back(std::to_string(m.labels[v].endp_cnt()[j]));
      }
      t.add_row(row);
    }
    t.print();
  }
  return 0;
}
