#include "accel/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace mt {

namespace {

// On-chip energy shared by all kernels: every performed MAC reads its
// stationary operand from the PE buffer; every streamed element crosses
// the bus; loads write buffers; drains write the global scratchpad.
double onchip_energy(const EnergyParams& e, const AccelConfig& cfg,
                     std::int64_t performed_macs, std::int64_t streamed,
                     std::int64_t loaded, std::int64_t drained) {
  const double mac = e.mac_energy_j(cfg.dtype);
  const double sram_pe = e.sram_energy_j(cfg.dtype, /*small_buffer=*/true);
  const double sram_gb = e.sram_energy_j(cfg.dtype, /*small_buffer=*/false);
  const double noc = e.noc_j_per_32b_hop * bits_of(cfg.dtype) / 32.0;
  return static_cast<double>(performed_macs) * (mac + sram_pe) +
         static_cast<double>(streamed) * (noc + sram_gb) +
         static_cast<double>(loaded) * (sram_pe + noc) +
         static_cast<double>(drained) * sram_gb;
}

void finalize(PerfResult& r, const AccelConfig& cfg, const EnergyParams& e,
              std::int64_t loaded, std::int64_t drained) {
  const double cap_slots = static_cast<double>(r.phases.stream_cycles) *
                           static_cast<double>(cfg.bus_slots());
  r.bus_occupancy =
      cap_slots == 0.0 ? 0.0 : static_cast<double>(r.streamed_elems) / cap_slots;
  const double mac_capacity = static_cast<double>(r.total_cycles()) *
                              static_cast<double>(cfg.total_macs());
  r.pe_utilization =
      mac_capacity == 0.0 ? 0.0
                          : static_cast<double>(r.useful_macs) / mac_capacity;
  r.compute_energy_j =
      onchip_energy(e, cfg, r.performed_macs, r.streamed_elems, loaded, drained);
}

}  // namespace

std::vector<PassStream> stream_passes(const CooMatrix& a, index_t kt,
                                      index_t cap) {
  MT_REQUIRE(kt > 0 && cap > 0, "positive pass height and packet payload");
  std::vector<PassStream> out(static_cast<std::size_t>(ceil_div(a.cols(), kt)));
  const auto& rows = a.row_ids();
  const auto& cols = a.col_ids();
  const std::int64_t nnz = a.nnz();
  // A segment is one row's nonzeros inside one pass. Row-major order keeps
  // each segment contiguous and the pass index non-decreasing along a row,
  // so the pass is recomputed only where a segment starts, not per nonzero.
  std::int64_t seg_begin = 0;
  index_t row = -1, col = -1;
  std::size_t pass = 0;
  index_t pass_end = 0;
  const auto close_segment = [&](std::int64_t seg_end) {
    PassStream& ps = out[pass];
    const std::int64_t run = seg_end - seg_begin;
    ps.elems += run;
    ps.cycles += ceil_div(run, cap);
    ++ps.rows_touched;
  };
  for (std::int64_t i = 0; i < nnz; ++i) {
    const index_t r = rows[static_cast<std::size_t>(i)];
    const index_t c = cols[static_cast<std::size_t>(i)];
    MT_REQUIRE(r > row || (r == row && c > col),
               "A must be row-major sorted COO");
    if (r == row && c < pass_end) {
      col = c;
      continue;
    }
    if (i > 0) close_segment(i);
    seg_begin = i;
    row = r;
    col = c;
    const index_t p = c / kt;
    pass = static_cast<std::size_t>(p);
    pass_end = (p + 1) * kt;
  }
  if (nnz > 0) close_segment(nnz);
  return out;
}

std::vector<TileMatch> match_passes(const CooMatrix& a, const CooMatrix& b,
                                    index_t kt, index_t num_pes) {
  MT_REQUIRE(kt > 0 && num_pes > 0, "positive pass height and tile width");
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  if (!b.is_row_major_sorted()) {
    CooMatrix sorted = b;
    sorted.sort_row_major();
    return match_passes(a, sorted, kt, num_pes);
  }
  std::vector<std::int64_t> a_col_nnz(static_cast<std::size_t>(a.cols()), 0);
  for (index_t c : a.col_ids()) ++a_col_nnz[static_cast<std::size_t>(c)];
  const std::int64_t n_tiles = ceil_div(b.cols(), num_pes);
  std::vector<TileMatch> out(
      static_cast<std::size_t>(ceil_div(b.rows(), kt) * n_tiles));
  // Row-major B holds each pass's rows contiguously: sum per column over
  // one pass, fold the touched columns into their tiles, and reset them.
  std::vector<std::int64_t> col_useful(static_cast<std::size_t>(b.cols()), 0);
  std::vector<std::int64_t> col_nnz(static_cast<std::size_t>(b.cols()), 0);
  std::vector<index_t> touched;
  std::int64_t pass = 0;
  const auto flush = [&] {
    for (index_t j : touched) {
      const auto sj = static_cast<std::size_t>(j);
      TileMatch& m = out[static_cast<std::size_t>(pass * n_tiles + j / num_pes)];
      m.nnz += col_nnz[sj];
      m.useful += col_useful[sj];
      m.max_col_useful = std::max(m.max_col_useful, col_useful[sj]);
      m.max_col_nnz = std::max(m.max_col_nnz, col_nnz[sj]);
      col_useful[sj] = 0;
      col_nnz[sj] = 0;
    }
    touched.clear();
  };
  index_t pass_end = kt;
  for (std::int64_t i = 0; i < b.nnz(); ++i) {
    const index_t kk = b.row_ids()[static_cast<std::size_t>(i)];
    const index_t j = b.col_ids()[static_cast<std::size_t>(i)];
    if (kk >= pass_end) {
      flush();
      pass = kk / kt;
      pass_end = (pass + 1) * kt;
    }
    const auto sj = static_cast<std::size_t>(j);
    if (col_nnz[sj]++ == 0) touched.push_back(j);
    col_useful[sj] += a_col_nnz[static_cast<std::size_t>(kk)];
  }
  flush();
  return out;
}

index_t matmul_pass_height(index_t k, index_t n, std::int64_t b_nnz,
                           Format acf_b, const AccelConfig& cfg) {
  // K-pass height from buffer occupancy (paper §IV: "a buffer entry can be
  // treated as either data or metadata"). Dense columns need one element
  // per K row; CSC columns need two buffer elements per nonzero, so the
  // pass height scales with 1/density of B.
  const index_t buf = cfg.buffer_elems();
  if (acf_b == Format::kDense) return std::min<index_t>(k, buf);
  const double density_b =
      static_cast<double>(b_nnz) /
      (static_cast<double>(k) * std::max<double>(1.0, static_cast<double>(n)));
  const auto cap_pairs = static_cast<double>(buf / 2);
  const index_t kt =
      density_b <= 0.0 ? k : static_cast<index_t>(cap_pairs / density_b);
  return std::clamp<index_t>(kt, 1, k);
}

index_t dense_b_pass_height(index_t k, Format acf_b, const AccelConfig& cfg) {
  // A fully dense column needs one buffer element per row under Dense ACF
  // and a (row_id, value) pair per row under CSC (every row is a nonzero).
  const index_t elems_per_row = acf_b == Format::kDense ? 1 : 2;
  return std::clamp<index_t>(cfg.buffer_elems() / elems_per_row, 1, k);
}

namespace {

// Bus cycles, streamed elements and drained rows of one pass of A.
struct PassCost {
  std::int64_t cycles, streamed, rows_touched;
};

PassCost pass_cost(const PassStream& ps, index_t m, index_t k0, index_t k1,
                   Format acf_a, index_t cap) {
  if (acf_a == Format::kDense) {
    return {m * ceil_div(k1 - k0, cap), m * (k1 - k0), m};
  }
  if (acf_a == Format::kCSR) return {ps.cycles, ps.elems, ps.rows_touched};
  // COO: triplets may mix rows freely.
  return {ceil_div(ps.elems, cap), ps.elems, ps.rows_touched};
}

void check_acfs(Format acf_a, Format acf_b) {
  MT_REQUIRE(is_stream_acf(acf_a), "A must use a streaming ACF");
  MT_REQUIRE(is_stationary_acf(acf_b), "B must use a stationary ACF");
}

}  // namespace

PerfResult price_matmul(index_t m, index_t k, index_t n, index_t kt,
                        const std::vector<PassStream>& passes,
                        const std::vector<TileMatch>& matches, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy) {
  cfg.validate();
  check_acfs(acf_a, acf_b);
  const index_t slots = cfg.bus_slots();
  const index_t cap = payload_per_packet(acf_a, cfg);

  PerfResult res;
  res.n_tiles = ceil_div(n, cfg.num_pes);
  res.k_passes = ceil_div(k, kt);
  MT_REQUIRE(static_cast<std::int64_t>(passes.size()) == res.k_passes &&
                 static_cast<std::int64_t>(matches.size()) ==
                     res.k_passes * res.n_tiles,
             "sweeps must be taken at this pass height and tile width");

  std::int64_t loaded_total = 0;
  std::int64_t drained_total = 0;
  for (index_t t = 0; t < res.n_tiles; ++t) {
    const index_t j0 = t * cfg.num_pes;
    const index_t j1 = std::min(j0 + cfg.num_pes, n);
    for (index_t p = 0; p < res.k_passes; ++p) {
      const index_t k0 = p * kt;
      const index_t k1 = std::min(k0 + kt, k);
      const PassCost s = pass_cost(passes[static_cast<std::size_t>(p)], m, k0,
                                   k1, acf_a, cap);
      res.phases.stream_cycles += s.cycles;
      res.streamed_elems += s.streamed;

      // --- Load + matches over B's nonzeros in this tile/pass ---
      const TileMatch& tm =
          matches[static_cast<std::size_t>(p * res.n_tiles + t)];
      std::int64_t load_elems;
      std::int64_t max_pe_performed;
      std::int64_t tile_performed;
      if (acf_b == Format::kCSC) {
        // A Dense stream MACs every row of A against each B nonzero; a
        // compressed one only A's nonzeros in that column.
        load_elems = 2 * tm.nnz;
        max_pe_performed = acf_a == Format::kDense ? tm.max_col_nnz * m
                                                   : tm.max_col_useful;
        tile_performed = acf_a == Format::kDense ? tm.nnz * m : tm.useful;
      } else {
        // Every PE holds the full K-range column and MACs every streamed
        // element, zeros in the buffer included.
        load_elems = (j1 - j0) * (k1 - k0);
        max_pe_performed = s.streamed;
        tile_performed = s.streamed * (j1 - j0);
      }
      res.performed_macs += tile_performed;
      res.useful_macs += tm.useful;
      loaded_total += load_elems;
      res.phases.load_cycles += ceil_div(load_elems, slots);

      const std::int64_t cc = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(max_pe_performed) /
                    cfg.pe_consume_rate(acf_a, acf_b)));
      res.phases.compute_cycles += cc;
      res.phases.overlap_cycles += std::max(s.cycles, cc);

      const std::int64_t drained = s.rows_touched * (j1 - j0);
      drained_total += drained;
      res.phases.drain_cycles += ceil_div(drained, slots);
    }
  }

  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

PerfResult price_matmul_dense_b(index_t m, index_t k, index_t n, index_t kt,
                                const std::vector<PassStream>& passes,
                                Format acf_a, Format acf_b,
                                const AccelConfig& cfg,
                                const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(n > 0, "positive output width");
  check_acfs(acf_a, acf_b);
  const index_t slots = cfg.bus_slots();
  const index_t cap = payload_per_packet(acf_a, cfg);
  const index_t elems_per_row = acf_b == Format::kDense ? 1 : 2;

  PerfResult res;
  res.n_tiles = ceil_div(n, cfg.num_pes);
  res.k_passes = ceil_div(k, kt);
  MT_REQUIRE(static_cast<std::int64_t>(passes.size()) == res.k_passes,
             "sweep must be taken at this pass height");

  std::int64_t loaded_total = 0, drained_total = 0;
  for (index_t t = 0; t < res.n_tiles; ++t) {
    const index_t j0 = t * cfg.num_pes;
    const index_t j1 = std::min(j0 + cfg.num_pes, n);
    const index_t width = j1 - j0;
    for (index_t p = 0; p < res.k_passes; ++p) {
      const index_t k0 = p * kt;
      const index_t k1 = std::min(k0 + kt, k);
      const PassStream& ps = passes[static_cast<std::size_t>(p)];
      const PassCost s = pass_cost(ps, m, k0, k1, acf_a, cap);
      res.phases.stream_cycles += s.cycles;
      res.streamed_elems += s.streamed;

      // B fully dense: every streamed element matches in every PE; useful
      // equals performed for compressed streams (A's zeros never ship).
      const std::int64_t load_elems = width * (k1 - k0) * elems_per_row;
      loaded_total += load_elems;
      res.phases.load_cycles += ceil_div(load_elems, slots);
      res.performed_macs += s.streamed * width;
      res.useful_macs += ps.elems * width;

      const std::int64_t cc = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(s.streamed) /
                    cfg.pe_consume_rate(acf_a, acf_b)));
      res.phases.compute_cycles += cc;
      res.phases.overlap_cycles += std::max(s.cycles, cc);

      const std::int64_t drained = s.rows_touched * width;
      drained_total += drained;
      res.phases.drain_cycles += ceil_div(drained, slots);
    }
  }
  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

PerfResult model_matmul(const CooMatrix& a, const CooMatrix& b, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  check_acfs(acf_a, acf_b);
  const index_t kt =
      matmul_pass_height(a.cols(), b.cols(), b.nnz(), acf_b, cfg);
  return price_matmul(
      a.rows(), a.cols(), b.cols(), kt,
      stream_passes(a, kt, payload_per_packet(Format::kCSR, cfg)),
      match_passes(a, b, kt, cfg.num_pes), acf_a, acf_b, cfg, energy);
}

PerfResult model_matmul_dense_b(const CooMatrix& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(n > 0, "positive output width");
  check_acfs(acf_a, acf_b);
  const index_t kt = dense_b_pass_height(a.cols(), acf_b, cfg);
  return price_matmul_dense_b(
      a.rows(), a.cols(), n, kt,
      stream_passes(a, kt, payload_per_packet(Format::kCSR, cfg)), acf_a,
      acf_b, cfg, energy);
}

std::int64_t tensor_stream_cycles(const CooTensor3& x, Format acf_t,
                                  const AccelConfig& cfg) {
  const index_t slots = cfg.bus_slots();
  switch (acf_t) {
    case Format::kDense: {
      // Linearized cells with a positional header per packet.
      const std::int64_t cells = x.dim_x() * x.dim_y() * x.dim_z();
      return ceil_div(cells, slots - 1);
    }
    case Format::kCOO:
      // (value, x, y, z) quadruples.
      return ceil_div(x.nnz(), std::max<index_t>(1, slots / 4));
    case Format::kCSF: {
      // Tree stream: one x id per slice, (y id + fiber header) per fiber,
      // (z id, value) per leaf.
      std::int64_t n1 = 0, n2 = 0;
      index_t px = -1, py = -1;
      for (std::int64_t i = 0; i < x.nnz(); ++i) {
        if (x.x_ids()[i] != px) {
          ++n1;
          px = x.x_ids()[i];
          py = -1;
        }
        if (x.y_ids()[i] != py) {
          ++n2;
          py = x.y_ids()[i];
        }
      }
      return ceil_div(n1 + 2 * n2 + 2 * x.nnz(), slots);
    }
    default:
      MT_REQUIRE(false, "tensor ACF must be Dense/COO/CSF");
  }
  return 0;
}

PerfResult model_spttm(const CooTensor3& x, index_t r, Format acf_t,
                       const AccelConfig& cfg, const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(r > 0, "positive factor rank");
  const index_t slots = cfg.bus_slots();
  const std::int64_t cells = x.dim_x() * x.dim_y() * x.dim_z();

  PerfResult res;
  res.n_tiles = ceil_div(r, cfg.num_pes);
  // PE holds U(:, r): one dense column of Z elements.
  res.k_passes = ceil_div(x.dim_z(), cfg.buffer_elems());

  // Distinct (x,y) fibers = dense output rows to drain.
  std::int64_t n2 = 0;
  {
    index_t px = -1, py = -1;
    for (std::int64_t i = 0; i < x.nnz(); ++i) {
      if (x.x_ids()[i] != px || x.y_ids()[i] != py) {
        ++n2;
        px = x.x_ids()[i];
        py = x.y_ids()[i];
      }
    }
  }

  const std::int64_t sc = tensor_stream_cycles(x, acf_t, cfg);
  std::int64_t loaded_total = 0, drained_total = 0;
  for (std::int64_t t = 0; t < res.n_tiles; ++t) {
    const index_t width = std::min<index_t>(cfg.num_pes, r - t * cfg.num_pes);
    // The K (Z) passes partition the stream; their total equals one full
    // tensor stream per output tile.
    res.phases.stream_cycles += sc;
    const std::int64_t streamed = acf_t == Format::kDense ? cells : x.nnz();
    res.streamed_elems += streamed;
    // Every streamed element MACs once in every PE of the tile (dense U
    // never misses); Dense ACF also MACs the zeros it streams. Compressed
    // streams pay the indexing-unit rate (coordinates gather irregularly).
    const std::int64_t per_pe = streamed;
    const std::int64_t cc = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(per_pe) /
                  cfg.pe_consume_rate(acf_t, Format::kDense)));
    res.phases.compute_cycles += cc;
    res.phases.overlap_cycles += std::max(sc, cc);
    res.performed_macs += per_pe * width;
    res.useful_macs += x.nnz() * width;

    const std::int64_t load_elems = static_cast<std::int64_t>(x.dim_z()) * width;
    loaded_total += load_elems;
    res.phases.load_cycles += ceil_div(load_elems, slots);

    const std::int64_t rows = acf_t == Format::kDense
                                  ? x.dim_x() * x.dim_y()
                                  : n2;
    const std::int64_t drained = rows * width;
    drained_total += drained;
    res.phases.drain_cycles += ceil_div(drained, slots);
  }
  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

PerfResult model_mttkrp(const CooTensor3& x, index_t r, Format acf_t,
                        const AccelConfig& cfg, const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(r > 0, "positive factor rank");
  const index_t slots = cfg.bus_slots();
  const std::int64_t cells = x.dim_x() * x.dim_y() * x.dim_z();

  PerfResult res;
  res.n_tiles = ceil_div(r, cfg.num_pes);
  // PE holds B(:, r) and C(:, r): Y + Z dense elements. When they exceed
  // the buffer, the factor columns are reloaded in slices and the tensor
  // is re-streamed once per slice (the nonzeros needing a given slice are
  // not contiguous, unlike the matmul K-pass case).
  res.k_passes = ceil_div(x.dim_y() + x.dim_z(), cfg.buffer_elems());

  const std::int64_t sc = tensor_stream_cycles(x, acf_t, cfg);
  std::int64_t loaded_total = 0, drained_total = 0;
  for (std::int64_t t = 0; t < res.n_tiles; ++t) {
    const index_t width = std::min<index_t>(cfg.num_pes, r - t * cfg.num_pes);
    for (std::int64_t p = 0; p < res.k_passes; ++p) {
      res.phases.stream_cycles += sc;
      const std::int64_t streamed = acf_t == Format::kDense ? cells : x.nnz();
      res.streamed_elems += streamed;
      // Two MACs per element per PE: v * B(j,r), then * C(k,r). Work is
      // divided across passes (each pass covers a slice of B/C rows).
      const std::int64_t per_pe =
          ceil_div(2 * streamed, std::max<std::int64_t>(1, res.k_passes));
      const std::int64_t cc = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(per_pe) /
                    cfg.pe_consume_rate(acf_t, Format::kDense)));
      res.phases.compute_cycles += cc;
      res.phases.overlap_cycles += std::max(sc, cc);
      res.performed_macs += per_pe * width;
    }
    res.useful_macs += 2 * x.nnz() * width;

    const std::int64_t load_elems =
        static_cast<std::int64_t>(x.dim_y() + x.dim_z()) * width;
    loaded_total += load_elems;
    res.phases.load_cycles += ceil_div(load_elems, slots);

    const std::int64_t drained = static_cast<std::int64_t>(x.dim_x()) * width;
    drained_total += drained;
    res.phases.drain_cycles += ceil_div(drained, slots);
  }
  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

}  // namespace mt
