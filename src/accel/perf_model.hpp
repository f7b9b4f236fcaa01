// Analytic performance model of the weight-stationary accelerator — the
// model SAGE queries (paper §VI "Performance Modeling").
//
// Shares the exact accounting of the functional cycle simulator (bus
// packing closed forms, buffer-occupancy K-passes, one PE per output
// column, compute/stream overlap) but works on compressed operands and
// tiles over N and K, so it evaluates Table-III-scale workloads in
// O(nnz) time. tests/test_accel.cpp cross-checks it cycle-for-cycle
// against simulate_ws_matmul on single-tile instances.
//
// The matmul models come in two steps. The O(nnz) sweeps — stream_passes
// splits A into K passes, match_passes matches B's nonzeros against A's
// columns — depend only on the operands and the pass height; pricing an
// ACF pair from their output is O(tiles x passes). A search over ACF
// pairs meets only two pass heights (Dense and CSC stationary buffers),
// so SAGE sweeps each operand once per height, not once per pair (and
// prices each operand's storage and conversion terms once per search).
// model_matmul and model_matmul_dense_b run both steps for one pair.
// On one CPU of a 4-vCPU Xeon KVM guest a plan miss on journal (124x124,
// 12k nnz) searches in about 40 us (dense B) or 140 us (A x A pair).
#pragma once

#include <vector>

#include "accel/config.hpp"
#include "accel/cycle_sim.hpp"
#include "accel/stream.hpp"
#include "energy/energy_model.hpp"
#include "formats/coo.hpp"
#include "formats/tensor_coo.hpp"

namespace mt {

struct PerfResult {
  SimPhases phases;
  std::int64_t performed_macs = 0;
  std::int64_t useful_macs = 0;
  std::int64_t streamed_elems = 0;  // payload elements over all passes
  std::int64_t n_tiles = 0;         // output-column tiles
  std::int64_t k_passes = 0;        // stationary reload passes per tile
  double bus_occupancy = 0.0;
  double pe_utilization = 0.0;
  double compute_energy_j = 0.0;    // on-chip: MACs + buffers + bus

  std::int64_t total_cycles() const { return phases.total_cycles(); }
};

// O = A * B with A streamed (Dense/CSR/COO ACF) and B stationary
// (Dense/CSC ACF). Operands arrive as sorted COO carrying their true
// nonzero structure; the ACF decides how they are represented on the bus
// and in the buffers. Covers GEMM, SpMM and SpGEMM uniformly — what makes
// A or B "sparse" is its nnz, what makes the run efficient is the ACF.
PerfResult model_matmul(const CooMatrix& a, const CooMatrix& b, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy);

// SpMM fast path: B is a fully dense K x N matrix. Closed forms replace
// the per-nonzero B sweep, so a 3600x5500 dense factor (Table III's
// speech1 SpMM scenario) never needs 20M COO entries materialized.
// Matches model_matmul(a, dense_b_as_coo, ...) exactly (tested).
PerfResult model_matmul_dense_b(const CooMatrix& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy);

// --- The two steps of the matmul models ---

// A's nonzeros inside one K pass.
struct PassStream {
  std::int64_t cycles = 0;        // CSR packets (a row break closes one)
  std::int64_t elems = 0;         // nonzeros streamed
  std::int64_t rows_touched = 0;  // distinct rows
};

// One sweep of row-major A (throws if A is not row-major sorted): its
// ceil(k / kt) passes of height kt. `cycles` counts packets of at most
// `cap` elements of one row (pass CSR's payload_per_packet; only a CSR
// stream reads `cycles`).
std::vector<PassStream> stream_passes(const CooMatrix& a, index_t kt,
                                      index_t cap);

// Nonzeros of B in one (K pass, output tile) block, matched against A.
struct TileMatch {
  std::int64_t nnz = 0;             // B nonzeros in the block
  std::int64_t useful = 0;          // sum of A's column nnz at their rows
  std::int64_t max_col_useful = 0;  // largest per-column sum of `useful`
  std::int64_t max_col_nnz = 0;     // largest per-column nonzero count
};

// One sweep of B: its TileMatch blocks for passes of height kt and tiles
// of `num_pes` columns, indexed [pass * n_tiles + tile]. A B nonzero at
// row kk earns as many useful MACs as A has nonzeros in column kk.
std::vector<TileMatch> match_passes(const CooMatrix& a, const CooMatrix& b,
                                    index_t kt, index_t num_pes);

// K-pass heights from buffer occupancy: a general stationary B (scaled by
// its density under CSC) and a fully dense one.
index_t matmul_pass_height(index_t k, index_t n, std::int64_t b_nnz,
                           Format acf_b, const AccelConfig& cfg);
index_t dense_b_pass_height(index_t k, Format acf_b, const AccelConfig& cfg);

// Pricing of an m x k by k x n product from the sweeps above (kt is the
// height they were taken at).
PerfResult price_matmul(index_t m, index_t k, index_t n, index_t kt,
                        const std::vector<PassStream>& passes,
                        const std::vector<TileMatch>& matches, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy);
PerfResult price_matmul_dense_b(index_t m, index_t k, index_t n, index_t kt,
                                const std::vector<PassStream>& passes,
                                Format acf_a, Format acf_b,
                                const AccelConfig& cfg,
                                const EnergyParams& energy);

// Mode-3 SpTTM: Y(i,j,l) = sum_k X(i,j,k) U(k,l), U dense Z x R.
// acf_t in {Dense, COO, CSF} decides the tensor's bus representation.
PerfResult model_spttm(const CooTensor3& x, index_t r, Format acf_t,
                       const AccelConfig& cfg, const EnergyParams& energy);

// MTTKRP: M(i,r) = sum_{j,k} X(i,j,k) B(j,r) C(k,r), B/C dense.
PerfResult model_mttkrp(const CooTensor3& x, index_t r, Format acf_t,
                        const AccelConfig& cfg, const EnergyParams& energy);

// Bus cost of streaming a 3-D tensor under a tensor ACF; exposed for tests.
std::int64_t tensor_stream_cycles(const CooTensor3& x, Format acf_t,
                                  const AccelConfig& cfg);

}  // namespace mt
