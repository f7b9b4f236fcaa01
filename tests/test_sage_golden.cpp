// Golden fixture of SAGE's decisions on the Table III workloads.
//
// tests/fixtures/sage_golden.txt holds, one line per search, the chosen
// MCF/ACF names, every integer cycle and MAC field of the winner, and its
// EDP as a hex float. The test recomputes each line and compares it
// exactly, so any change that moves a selection or a priced cycle — even
// one ulp of EDP — needs a deliberate fixture update in the same change.
//
// Regenerate (only when a change to the model is intended):
//   MT_SAGE_GOLDEN_WRITE=tests/fixtures/sage_golden.txt build/tests/test_sage_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sage/sage.hpp"
#include "workloads/registry.hpp"
#include "workloads/synth.hpp"

namespace mt {
namespace {

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string perf_fields(const CostBreakdown& c, const PerfResult& p) {
  std::ostringstream os;
  os << " cost " << c.dram_cycles << ' ' << c.convert_cycles << ' '
     << c.compute_cycles << " phases " << p.phases.load_cycles << ' '
     << p.phases.stream_cycles << ' ' << p.phases.compute_cycles << ' '
     << p.phases.overlap_cycles << ' ' << p.phases.drain_cycles << " macs "
     << p.performed_macs << ' ' << p.useful_macs << " streamed "
     << p.streamed_elems << " tiles " << p.n_tiles << " passes "
     << p.k_passes;
  return os.str();
}

std::string line(const std::string& head, const SageChoice& c) {
  std::ostringstream os;
  os << head << " | " << name_of(c.mcf_a) << ' ' << name_of(c.mcf_b) << ' '
     << name_of(c.acf_a) << ' ' << name_of(c.acf_b) << ' ' << name_of(c.mcf_o)
     << " |" << perf_fields(c.cost, c.perf) << " | edp " << hex(c.edp);
  return os.str();
}

std::string line(const std::string& head, const SageTensorChoice& c) {
  std::ostringstream os;
  os << head << " | " << name_of(c.mcf_t) << ' ' << name_of(c.acf_t) << " |"
     << perf_fields(c.cost, c.perf) << " | edp " << hex(c.edp);
  return os.str();
}

// Same operands and seeds as bench/bench_table3.cpp, under the paper's
// evaluation configuration.
std::vector<std::string> compute_golden() {
  const AccelConfig cfg = AccelConfig::paper_default();
  const EnergyParams e;
  std::vector<std::string> out;
  for (const auto& w : table3_matrices()) {
    const auto a = synth_coo_matrix(w, 1);
    for (index_t n : {1, 8, 16}) {
      out.push_back(line("dense_b " + w.name + " n=" + std::to_string(n),
                         sage_select_spmm_dense_b(a, n, cfg, e)));
    }
    if (w.name == "journal" || w.name == "m3plates") {
      out.push_back(line("pair " + w.name + "x" + w.name,
                         sage_select_matmul(a, a, cfg, e)));
    }
  }
  for (const auto& w : table3_tensors()) {
    const auto x = synth_coo_tensor(w, 3);
    out.push_back(line(
        "tensor " + w.name + " " + std::string(name_of(w.kernel)),
        sage_select_tensor(x, factor_cols(w.x), w.kernel, cfg, e)));
  }
  return out;
}

TEST(SageGolden, Table3DecisionsMatchFixtureExactly) {
  const auto got = compute_golden();
  if (const char* path = std::getenv("MT_SAGE_GOLDEN_WRITE")) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    for (const auto& l : got) os << l << '\n';
    GTEST_SKIP() << "wrote " << got.size() << " lines to " << path;
  }
  std::ifstream is(MT_FIXTURE_DIR "/sage_golden.txt");
  ASSERT_TRUE(is) << "missing fixture " MT_FIXTURE_DIR "/sage_golden.txt";
  std::vector<std::string> want;
  for (std::string l; std::getline(is, l);) want.push_back(l);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "fixture line " << i + 1;
  }
}

}  // namespace
}  // namespace mt
