// Accelerator simulator tests: bus packing laws, the paper's Fig. 6
// walkthrough (8/3/4 cycles), functional correctness of the PE array
// against the software kernels, and the cycle-for-cycle agreement between
// the functional simulator and the analytic performance model.
#include <gtest/gtest.h>

#include <tuple>

#include "accel/area.hpp"
#include "accel/cycle_sim.hpp"
#include "accel/perf_model.hpp"
#include "accel/stream.hpp"
#include "kernels/gemm.hpp"
#include "testing.hpp"

namespace mt {
namespace {

using testing::random_dense;

// The Fig. 6 walkthrough operands. Streamed matrix A (4x8, nonzeros
// A,B,C,H) and stationary matrix B (8x4, nonzeros a..h).
DenseMatrix fig6_a() {
  DenseMatrix a(4, 8);
  a.set(0, 0, 1.0f);  // A
  a.set(0, 2, 2.0f);  // B
  a.set(0, 4, 3.0f);  // C
  a.set(3, 5, 4.0f);  // H
  return a;
}

DenseMatrix fig6_b() {
  DenseMatrix b(8, 4);
  b.set(0, 0, 1.0f);  // a
  b.set(0, 1, 4.0f);  // d
  b.set(2, 0, 2.0f);  // b
  b.set(3, 2, 6.0f);  // f
  b.set(4, 0, 3.0f);  // c
  b.set(5, 2, 7.0f);  // g
  b.set(5, 3, 8.0f);  // h
  b.set(7, 1, 5.0f);  // e
  return b;
}

TEST(Fig6Walkthrough, DenseAcfStreamsInEightCycles) {
  const auto r = simulate_ws_matmul(fig6_a(), fig6_b(), Format::kDense,
                                    Format::kDense, AccelConfig::walkthrough());
  EXPECT_EQ(r.phases.stream_cycles, 8);
}

TEST(Fig6Walkthrough, CsrAcfStreamsInThreeCycles) {
  const auto r = simulate_ws_matmul(fig6_a(), fig6_b(), Format::kCSR,
                                    Format::kCSC, AccelConfig::walkthrough());
  EXPECT_EQ(r.phases.stream_cycles, 3);
}

TEST(Fig6Walkthrough, CooAcfStreamsInFourCycles) {
  const auto r = simulate_ws_matmul(fig6_a(), fig6_b(), Format::kCOO,
                                    Format::kDense, AccelConfig::walkthrough());
  EXPECT_EQ(r.phases.stream_cycles, 4);
}

TEST(Fig6Walkthrough, AllThreeAcfsComputeTheSameProduct) {
  const auto want = gemm(fig6_a(), fig6_b());
  const auto cfg = AccelConfig::walkthrough();
  for (auto [fa, fb] :
       {std::pair{Format::kDense, Format::kDense},
        std::pair{Format::kCSR, Format::kCSC},
        std::pair{Format::kCOO, Format::kDense}}) {
    const auto r = simulate_ws_matmul(fig6_a(), fig6_b(), fa, fb, cfg);
    EXPECT_EQ(max_abs_diff(r.output, want), 0.0)
        << name_of(fa) << "/" << name_of(fb);
  }
}

TEST(Fig6Walkthrough, CompressedAcfUsesLessBufferForSparseB) {
  // Dense B occupies the full 8-entry buffer per PE; CSC B stores only
  // (row_id, value) pairs for the nonzeros — col 0 has 3 nnz -> 6 entries.
  const auto cfg = AccelConfig::walkthrough();
  const auto dense = simulate_ws_matmul(fig6_a(), fig6_b(), Format::kDense,
                                        Format::kDense, cfg);
  const auto csc = simulate_ws_matmul(fig6_a(), fig6_b(), Format::kCSR,
                                      Format::kCSC, cfg);
  EXPECT_GT(dense.phases.load_cycles, csc.phases.load_cycles);
}

// --- Bus packing laws ---

class PackingLaws
    : public ::testing::TestWithParam<std::tuple<Format, index_t, double>> {};

TEST_P(PackingLaws, ClosedFormMatchesMaterializedPackets) {
  const auto [acf, slots, density] = GetParam();
  AccelConfig cfg;
  cfg.bus_bits = slots * 32;
  const auto d = random_dense(13, 29, density, 17);
  const auto coo = CooMatrix::from_dense(d);
  for (index_t k_lo : {index_t{0}, index_t{7}}) {
    for (index_t k_hi : {index_t{12}, index_t{29}}) {
      const auto packets = pack_stream(coo, acf, cfg, k_lo, k_hi);
      EXPECT_EQ(static_cast<std::int64_t>(packets.size()),
                stream_cycles(coo, acf, cfg, k_lo, k_hi))
          << name_of(acf) << " slots=" << slots << " range=[" << k_lo << ","
          << k_hi << ")";
    }
  }
}

TEST_P(PackingLaws, PacketsRespectCapacityAndRowRule) {
  const auto [acf, slots, density] = GetParam();
  AccelConfig cfg;
  cfg.bus_bits = slots * 32;
  const auto coo = CooMatrix::from_dense(random_dense(9, 31, density, 23));
  const index_t cap = payload_per_packet(acf, cfg);
  for (const auto& p : pack_stream(coo, acf, cfg, 0, 31)) {
    EXPECT_LE(static_cast<index_t>(p.elems.size()), cap);
    EXPECT_FALSE(p.elems.empty());
    if (acf != Format::kCOO) {
      for (const auto& e : p.elems) EXPECT_EQ(e.row, p.elems.front().row);
    }
  }
}

TEST_P(PackingLaws, EveryNonzeroIsStreamedExactlyOnce) {
  const auto [acf, slots, density] = GetParam();
  AccelConfig cfg;
  cfg.bus_bits = slots * 32;
  const auto d = random_dense(9, 31, density, 29);
  const auto coo = CooMatrix::from_dense(d);
  DenseMatrix rebuilt(9, 31);
  for (const auto& p : pack_stream(coo, acf, cfg, 0, 31)) {
    for (const auto& e : p.elems) {
      if (e.value != 0.0f) {
        EXPECT_EQ(rebuilt.at(e.row, e.col), 0.0f) << "duplicate element";
        rebuilt.set(e.row, e.col, e.value);
      }
    }
  }
  EXPECT_EQ(max_abs_diff(rebuilt, d), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PackingLaws,
    ::testing::Combine(::testing::Values(Format::kDense, Format::kCSR,
                                         Format::kCOO),
                       ::testing::Values(index_t{3}, index_t{5}, index_t{16}),
                       ::testing::Values(0.0, 0.05, 0.4, 1.0)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_slots" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

// --- Functional correctness across ACF combinations and shapes ---

class SimCorrectness
    : public ::testing::TestWithParam<
          std::tuple<Format, Format, index_t, index_t, index_t, double, double>> {};

TEST_P(SimCorrectness, MatchesSoftwareGemm) {
  const auto [fa, fb, m, k, n, da, db] = GetParam();
  AccelConfig cfg;
  cfg.num_pes = n;  // single tile
  cfg.pe_buffer_bytes = static_cast<index_t>(k) * 8;  // generous buffer
  cfg.bus_bits = 8 * 32;
  const auto a = random_dense(m, k, da, 404);
  const auto b = random_dense(k, n, db, 505);
  const auto r = simulate_ws_matmul(a, b, fa, fb, cfg);
  EXPECT_LE(max_abs_diff(r.output, gemm(a, b)), 1e-3);
  // Useful MACs never exceed performed MACs, and equal the true pairings.
  EXPECT_LE(r.useful_macs, r.performed_macs);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimCorrectness,
    ::testing::Combine(
        ::testing::Values(Format::kDense, Format::kCSR, Format::kCOO),
        ::testing::Values(Format::kDense, Format::kCSC),
        ::testing::Values(index_t{7}, index_t{16}),
        ::testing::Values(index_t{12}),
        ::testing::Values(index_t{5}, index_t{11}),
        ::testing::Values(0.1, 0.6),
        ::testing::Values(0.2, 1.0)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_" +
             std::string(name_of(std::get<1>(info.param))) + "_m" +
             std::to_string(std::get<2>(info.param)) + "_n" +
             std::to_string(std::get<4>(info.param)) + "_da" +
             std::to_string(static_cast<int>(std::get<5>(info.param) * 10)) +
             "_db" +
             std::to_string(static_cast<int>(std::get<6>(info.param) * 10));
    });

TEST(SimValidation, RejectsBadAcfs) {
  const auto a = random_dense(4, 4, 0.5, 1);
  const auto b = random_dense(4, 4, 0.5, 2);
  AccelConfig cfg;
  EXPECT_THROW(simulate_ws_matmul(a, b, Format::kCSC, Format::kDense, cfg),
               std::invalid_argument);
  EXPECT_THROW(simulate_ws_matmul(a, b, Format::kDense, Format::kCSR, cfg),
               std::invalid_argument);
}

TEST(SimValidation, RejectsOversizedTile) {
  AccelConfig cfg;
  cfg.num_pes = 2;
  const auto a = random_dense(4, 4, 0.5, 1);
  const auto b = random_dense(4, 4, 0.5, 2);
  EXPECT_THROW(simulate_ws_matmul(a, b, Format::kDense, Format::kDense, cfg),
               std::invalid_argument);
}

// --- Analytic model vs functional simulator (single tile) ---

class SimVsModel
    : public ::testing::TestWithParam<
          std::tuple<Format, Format, double, double>> {};

TEST_P(SimVsModel, PhasesAgreeCycleForCycle) {
  const auto [fa, fb, da, db] = GetParam();
  AccelConfig cfg;
  cfg.num_pes = 10;
  cfg.pe_buffer_bytes = 512;  // 128 elements: single K pass for k=16
  cfg.bus_bits = 7 * 32;
  const EnergyParams energy;
  const auto a = random_dense(14, 16, da, 606);
  const auto b = random_dense(16, 10, db, 707);
  const auto sim = simulate_ws_matmul(a, b, fa, fb, cfg);
  const auto model = model_matmul(CooMatrix::from_dense(a),
                                  CooMatrix::from_dense(b), fa, fb, cfg, energy);
  ASSERT_EQ(model.n_tiles, 1);
  ASSERT_EQ(model.k_passes, 1);
  EXPECT_EQ(model.phases.load_cycles, sim.phases.load_cycles);
  EXPECT_EQ(model.phases.stream_cycles, sim.phases.stream_cycles);
  EXPECT_EQ(model.phases.compute_cycles, sim.phases.compute_cycles);
  EXPECT_EQ(model.phases.drain_cycles, sim.phases.drain_cycles);
  EXPECT_EQ(model.performed_macs, sim.performed_macs);
  EXPECT_EQ(model.useful_macs, sim.useful_macs);
  EXPECT_EQ(model.streamed_elems, sim.streamed_elems);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimVsModel,
    ::testing::Combine(
        ::testing::Values(Format::kDense, Format::kCSR, Format::kCOO),
        ::testing::Values(Format::kDense, Format::kCSC),
        ::testing::Values(0.05, 0.5, 1.0), ::testing::Values(0.1, 0.8)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_" +
             std::string(name_of(std::get<1>(info.param))) + "_da" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100)) +
             "_db" +
             std::to_string(static_cast<int>(std::get<3>(info.param) * 100));
    });

// --- Tiled model behaviour at scale ---

TEST(PerfModel, TileCountsFollowGeometry) {
  AccelConfig cfg;
  cfg.num_pes = 64;
  cfg.pe_buffer_bytes = 256;  // 64 elements
  const EnergyParams e;
  const auto a = CooMatrix::from_dense(random_dense(32, 200, 0.05, 1));
  const auto b = CooMatrix::from_dense(random_dense(200, 150, 0.05, 2));
  const auto r = model_matmul(a, b, Format::kCSR, Format::kDense, cfg, e);
  EXPECT_EQ(r.n_tiles, 3);             // ceil(150/64)
  EXPECT_EQ(r.k_passes, 4);            // ceil(200/64) dense stationary
}

TEST(PerfModel, CscStationaryLengthensPassForSparseB) {
  AccelConfig cfg;
  cfg.num_pes = 64;
  cfg.pe_buffer_bytes = 256;  // 64 elems -> 32 pairs
  const EnergyParams e;
  const auto a = CooMatrix::from_dense(random_dense(32, 200, 0.05, 3));
  const auto b = CooMatrix::from_dense(random_dense(200, 64, 0.05, 4));
  const auto dense_b = model_matmul(a, b, Format::kCSR, Format::kDense, cfg, e);
  const auto csc_b = model_matmul(a, b, Format::kCSR, Format::kCSC, cfg, e);
  // At 5% density a CSC pass covers ~32/0.05 = 640 rows >= K: single pass.
  EXPECT_EQ(csc_b.k_passes, 1);
  EXPECT_GT(dense_b.k_passes, csc_b.k_passes);
}

TEST(PerfModel, SparseAcfWinsAtLowDensityDenseAtHigh) {
  // The Fig. 5 crossover in miniature: total cycles under CSR vs Dense
  // streaming for the same operands.
  AccelConfig cfg;
  cfg.num_pes = 128;
  const EnergyParams e;
  const auto sparse_a = CooMatrix::from_dense(random_dense(64, 64, 0.02, 5));
  const auto dense_a = CooMatrix::from_dense(random_dense(64, 64, 1.0, 6));
  const auto b = CooMatrix::from_dense(random_dense(64, 64, 1.0, 7));
  EXPECT_LT(model_matmul(sparse_a, b, Format::kCSR, Format::kDense, cfg, e)
                .total_cycles(),
            model_matmul(sparse_a, b, Format::kDense, Format::kDense, cfg, e)
                .total_cycles());
  EXPECT_LE(model_matmul(dense_a, b, Format::kDense, Format::kDense, cfg, e)
                .total_cycles(),
            model_matmul(dense_a, b, Format::kCSR, Format::kDense, cfg, e)
                .total_cycles());
}

TEST(PerfModel, UtilizationTracksDensityUnderDenseAcf) {
  AccelConfig cfg;
  cfg.num_pes = 32;
  const EnergyParams e;
  const auto b = CooMatrix::from_dense(random_dense(32, 32, 1.0, 8));
  const auto lo = model_matmul(CooMatrix::from_dense(random_dense(32, 32, 0.05, 9)),
                               b, Format::kDense, Format::kDense, cfg, e);
  const auto hi = model_matmul(CooMatrix::from_dense(random_dense(32, 32, 0.9, 10)),
                               b, Format::kDense, Format::kDense, cfg, e);
  EXPECT_LT(lo.pe_utilization, hi.pe_utilization);
}

TEST(PerfModel, EnergyPositiveAndMonotoneInWork) {
  AccelConfig cfg;
  const EnergyParams e;
  const auto small = CooMatrix::from_dense(random_dense(16, 16, 0.2, 11));
  const auto big = CooMatrix::from_dense(random_dense(64, 64, 0.2, 12));
  const auto bs = CooMatrix::from_dense(random_dense(16, 16, 1.0, 13));
  const auto bb = CooMatrix::from_dense(random_dense(64, 64, 1.0, 14));
  const auto rs = model_matmul(small, bs, Format::kCSR, Format::kDense, cfg, e);
  const auto rb = model_matmul(big, bb, Format::kCSR, Format::kDense, cfg, e);
  EXPECT_GT(rs.compute_energy_j, 0.0);
  EXPECT_GT(rb.compute_energy_j, rs.compute_energy_j);
}

// --- Dense-B fast path ---

class DenseBFastPath
    : public ::testing::TestWithParam<std::tuple<Format, Format, double>> {};

TEST_P(DenseBFastPath, MatchesGeneralModelOnMaterializedDenseB) {
  const auto [fa, fb, da] = GetParam();
  AccelConfig cfg;
  cfg.num_pes = 48;
  cfg.pe_buffer_bytes = 256;
  const EnergyParams e;
  const auto a = CooMatrix::from_dense(random_dense(40, 96, da, 77));
  const auto b = CooMatrix::from_dense(random_dense(96, 70, 1.0, 78));
  const auto fast = model_matmul_dense_b(a, 70, fa, fb, cfg, e);
  const auto full = model_matmul(a, b, fa, fb, cfg, e);
  EXPECT_EQ(fast.phases.load_cycles, full.phases.load_cycles);
  EXPECT_EQ(fast.phases.stream_cycles, full.phases.stream_cycles);
  EXPECT_EQ(fast.phases.compute_cycles, full.phases.compute_cycles);
  EXPECT_EQ(fast.phases.drain_cycles, full.phases.drain_cycles);
  EXPECT_EQ(fast.performed_macs, full.performed_macs);
  EXPECT_EQ(fast.useful_macs, full.useful_macs);
  EXPECT_EQ(fast.n_tiles, full.n_tiles);
  EXPECT_EQ(fast.k_passes, full.k_passes);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DenseBFastPath,
    ::testing::Combine(
        ::testing::Values(Format::kDense, Format::kCSR, Format::kCOO),
        ::testing::Values(Format::kDense, Format::kCSC),
        ::testing::Values(0.03, 0.4, 1.0)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_" +
             std::string(name_of(std::get<1>(info.param))) + "_d" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

// --- stream_passes across K passes (Fig. 6 tiny buffers: 8 elements) ---

// The per-pass stats by the definition: bucket A's nonzeros by pass, then
// count row runs within each bucket.
std::vector<PassStream> bucketed_passes(const CooMatrix& a, index_t kt,
                                        index_t cap) {
  std::vector<std::vector<index_t>> rows(
      static_cast<std::size_t>(ceil_div(a.cols(), kt)));
  for (std::int64_t i = 0; i < a.nnz(); ++i) {
    rows[static_cast<std::size_t>(a.col_ids()[i] / kt)].push_back(
        a.row_ids()[i]);
  }
  std::vector<PassStream> out(rows.size());
  for (std::size_t p = 0; p < rows.size(); ++p) {
    std::int64_t run = 0;
    index_t run_row = -1;
    for (index_t r : rows[p]) {
      if (r != run_row) {
        out[p].cycles += ceil_div(run, cap);
        run = 0;
        run_row = r;
        ++out[p].rows_touched;
      }
      ++run;
    }
    out[p].cycles += ceil_div(run, cap);
    out[p].elems = static_cast<std::int64_t>(rows[p].size());
  }
  return out;
}

TEST(StreamPasses, MatchBucketsAndGeneralModelAcrossPasses) {
  const AccelConfig cfg = AccelConfig::walkthrough();
  ASSERT_EQ(cfg.pe_buffer_bytes, 32);
  const EnergyParams e;
  struct Shape {
    index_t m, k, n;
    double d;
  };
  // k = 29 and 33 are not multiples of either pass height (8 Dense, 4
  // CSC); k = 8 is one Dense pass; dense rows span every pass.
  const Shape shapes[] = {{7, 29, 5, 0.3},  {12, 8, 3, 0.5}, {5, 33, 9, 1.0},
                          {9, 17, 6, 0.05}, {1, 40, 2, 0.6}, {6, 3, 4, 0.7},
                          {10, 24, 13, 0.2}};
  const index_t csr_cap = payload_per_packet(Format::kCSR, cfg);
  std::uint64_t seed = 500;
  for (const auto& [m, k, n, d] : shapes) {
    auto dense = random_dense(m, k, d, ++seed);
    if (m > 3) {  // empty rows, one of them the last
      for (index_t j = 0; j < k; ++j) {
        dense.set(1, j, 0.f);
        dense.set(m - 1, j, 0.f);
      }
    }
    const auto a = CooMatrix::from_dense(dense);
    const auto b = CooMatrix::from_dense(random_dense(k, n, 1.0, ++seed));
    for (index_t kt : {index_t{1}, index_t{3}, index_t{4}, index_t{8}, k}) {
      const auto got = stream_passes(a, kt, csr_cap);
      const auto want = bucketed_passes(a, kt, csr_cap);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t p = 0; p < got.size(); ++p) {
        EXPECT_EQ(got[p].cycles, want[p].cycles) << m << "x" << k << " kt " << kt;
        EXPECT_EQ(got[p].elems, want[p].elems) << m << "x" << k << " kt " << kt;
        EXPECT_EQ(got[p].rows_touched, want[p].rows_touched)
            << m << "x" << k << " kt " << kt;
      }
    }
    for (Format fa : {Format::kDense, Format::kCSR, Format::kCOO}) {
      for (Format fb : {Format::kDense, Format::kCSC}) {
        const auto fast = model_matmul_dense_b(a, n, fa, fb, cfg, e);
        const auto full = model_matmul(a, b, fa, fb, cfg, e);
        const std::string at = std::to_string(m) + "x" + std::to_string(k) +
                               " " + std::string(name_of(fa)) + "/" +
                               std::string(name_of(fb));
        EXPECT_GT(fast.k_passes, k > 8 ? 1 : 0) << at;
        EXPECT_EQ(fast.k_passes, full.k_passes) << at;
        EXPECT_EQ(fast.n_tiles, full.n_tiles) << at;
        EXPECT_EQ(fast.phases.load_cycles, full.phases.load_cycles) << at;
        EXPECT_EQ(fast.phases.stream_cycles, full.phases.stream_cycles) << at;
        EXPECT_EQ(fast.phases.compute_cycles, full.phases.compute_cycles) << at;
        EXPECT_EQ(fast.phases.overlap_cycles, full.phases.overlap_cycles) << at;
        EXPECT_EQ(fast.phases.drain_cycles, full.phases.drain_cycles) << at;
        EXPECT_EQ(fast.performed_macs, full.performed_macs) << at;
        EXPECT_EQ(fast.useful_macs, full.useful_macs) << at;
        EXPECT_EQ(fast.streamed_elems, full.streamed_elems) << at;
      }
    }
  }
}

TEST(StreamPasses, RejectsUnsortedA) {
  auto a = CooMatrix::from_entries(3, 3, {0, 1, 2}, {2, 0, 1}, {1.f, 2.f, 3.f});
  a.sort_col_major();
  EXPECT_THROW(stream_passes(a, 2, 1), std::invalid_argument);
}

TEST(MatchPasses, ColumnMajorBPricesLikeRowMajor) {
  AccelConfig cfg = AccelConfig::walkthrough();
  const EnergyParams e;
  const auto a = CooMatrix::from_dense(random_dense(9, 21, 0.4, 601));
  const auto b = CooMatrix::from_dense(random_dense(21, 11, 0.3, 602));
  auto b_cols = b;
  b_cols.sort_col_major();
  for (Format fa : {Format::kDense, Format::kCSR, Format::kCOO}) {
    for (Format fb : {Format::kDense, Format::kCSC}) {
      const auto r = model_matmul(a, b, fa, fb, cfg, e);
      const auto c = model_matmul(a, b_cols, fa, fb, cfg, e);
      EXPECT_EQ(r.total_cycles(), c.total_cycles());
      EXPECT_EQ(r.performed_macs, c.performed_macs);
      EXPECT_EQ(r.useful_macs, c.useful_macs);
      EXPECT_EQ(r.compute_energy_j, c.compute_energy_j);
    }
  }
}

// --- Tensor kernels on the model ---

TEST(TensorModel, CooAcfBeatsDenseForSparseTensor) {
  AccelConfig cfg;
  const EnergyParams e;
  const auto x = testing::random_tensor(40, 40, 40, 0.01, 15);
  const auto coo = CooTensor3::from_dense(x);
  const auto rc = model_spttm(coo, 20, Format::kCOO, cfg, e);
  const auto rd = model_spttm(coo, 20, Format::kDense, cfg, e);
  EXPECT_LT(rc.total_cycles(), rd.total_cycles());
  EXPECT_GT(rc.pe_utilization, rd.pe_utilization);
}

TEST(TensorModel, CsfStreamsFewerElementsThanCooWhenFibersAreDense) {
  AccelConfig cfg;
  const EnergyParams e;
  // Dense fibers: few (x,y) pairs, many z per fiber -> CSF amortizes ids.
  DenseTensor3 t(4, 4, 64);
  for (index_t z = 0; z < 64; ++z) t.set(1, 2, z, 1.0f);
  const auto coo = CooTensor3::from_dense(t);
  EXPECT_LT(tensor_stream_cycles(coo, Format::kCSF, cfg),
            tensor_stream_cycles(coo, Format::kCOO, cfg));
}

TEST(TensorModel, MttkrpPassesScaleWithFactorRows) {
  AccelConfig cfg;
  cfg.pe_buffer_bytes = 512;  // 128 elements
  const EnergyParams e;
  const auto small = CooTensor3::from_dense(testing::random_tensor(8, 16, 16, 0.1, 16));
  const auto big = CooTensor3::from_dense(testing::random_tensor(8, 300, 300, 0.01, 17));
  EXPECT_EQ(model_mttkrp(small, 8, Format::kCOO, cfg, e).k_passes, 1);
  EXPECT_EQ(model_mttkrp(big, 8, Format::kCOO, cfg, e).k_passes, 5);
}

TEST(TensorModel, UsefulMacsMatchKernelArithmetic) {
  AccelConfig cfg;
  cfg.num_pes = 64;
  const EnergyParams e;
  const auto x = CooTensor3::from_dense(testing::random_tensor(10, 10, 10, 0.2, 18));
  const index_t r = 16;
  // SpTTM: one MAC per nonzero per output column; MTTKRP: two.
  EXPECT_EQ(model_spttm(x, r, Format::kCOO, cfg, e).useful_macs, x.nnz() * r);
  EXPECT_EQ(model_mttkrp(x, r, Format::kCOO, cfg, e).useful_macs,
            2 * x.nnz() * r);
}

// --- Area model (Fig. 7b) ---

TEST(AreaModel, ExtensionCostsAboutTenPercent) {
  AccelConfig cfg;
  cfg.pe_buffer_bytes = 128;
  cfg.vector_width = 8;
  const auto a = pe_area(cfg, /*multi_precision=*/false);
  EXPECT_GT(a.extension_overhead(), 0.06);
  EXPECT_LT(a.extension_overhead(), 0.14);
}

TEST(AreaModel, ArrayAreaScalesWithPes) {
  AccelConfig small;
  small.num_pes = 256;
  AccelConfig big;
  big.num_pes = 2048;
  EXPECT_NEAR(array_area_mm2(big) / array_area_mm2(small), 8.0, 1e-9);
}

TEST(AreaModel, EvaluationArrayIsTensOfMm2) {
  // 2048 multi-precision PEs (16384 MACs) should land in the tens of mm^2,
  // consistent with MINT_m (0.41 mm^2) being ~0.5% of the array (§VII-B).
  const double a = array_area_mm2(AccelConfig::paper_default());
  EXPECT_GT(a, 40.0);
  EXPECT_LT(a, 200.0);
}

}  // namespace
}  // namespace mt
