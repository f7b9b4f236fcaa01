#include "kernels/spmm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/threads.hpp"
#include "kernels/partition.hpp"

namespace mt {

#if MT_SIMD_X86
namespace {

// Bit contract of every CSR×Dense SIMD path below: an output cell
// starts at +0 and takes one fused multiply-add per nonzero of its A row,
// in index order — whether its column lands in a 32-, 16- or 8-wide
// tile, a masked tail lane or a 4-row narrow group. So a column's bits
// never depend on the matrix width, which the serving batcher relies on
// when it stacks SpMV payloads of different batch sizes through this
// kernel (a single SpMV is a width-1 stack).

// Columns [j, j + 8*kFull + w) of one CSR×Dense output row in kFull
// full ymm accumulators plus, when kMasked, one masked accumulator for
// the w = n - j - 8*kFull < 8 columns after them. The accumulators stay
// in registers across the whole nonzero walk, so each output element is
// stored once per row instead of once per nonzero.
template <int kFull, bool kMasked>
MT_SIMD_TARGET void spmm_csr_row_cols_avx2(const index_t* cols,
                                           const value_t* vals, index_t cnt,
                                           const value_t* pb, index_t n,
                                           index_t j, value_t* out) {
  constexpr int kVecs = kFull + (kMasked ? 1 : 0);
  const __m256i mask = simd::first_lanes(n - j - 8 * kFull);
  __m256 c[kVecs];
  for (int v = 0; v < kVecs; ++v) c[v] = simd::zero();
  for (index_t i = 0; i < cnt; ++i) {
    const __m256 av = simd::set1(vals[i]);
    const value_t* pr = pb + cols[i] * n + j;
    for (int v = 0; v < kFull; ++v) {
      c[v] = simd::fma(av, simd::load(pr + 8 * v), c[v]);
    }
    if constexpr (kMasked) {
      c[kFull] =
          simd::fma(av, simd::load_masked(pr + 8 * kFull, mask), c[kFull]);
    }
  }
  for (int v = 0; v < kFull; ++v) simd::store(out + j + 8 * v, c[v]);
  if constexpr (kMasked) {
    simd::store_masked(out + j + 8 * kFull, mask, c[kFull]);
  }
}

// One CSR×Dense output row of width n > 8: 32-column tiles, then at
// most one 16-column tile, then the < 16 remaining columns in one more
// walk of the row (a full vector and/or a masked one).
MT_SIMD_TARGET void spmm_csr_row_avx2(const index_t* cols,
                                      const value_t* vals, index_t cnt,
                                      const value_t* pb, index_t n,
                                      value_t* out) {
  index_t j = 0;
  for (; j + 32 <= n; j += 32) {
    spmm_csr_row_cols_avx2<4, false>(cols, vals, cnt, pb, n, j, out);
  }
  if (j + 16 <= n) {
    spmm_csr_row_cols_avx2<2, false>(cols, vals, cnt, pb, n, j, out);
    j += 16;
  }
  const index_t w = n - j;
  if (w > 8) {
    spmm_csr_row_cols_avx2<1, true>(cols, vals, cnt, pb, n, j, out);
  } else if (w == 8) {
    spmm_csr_row_cols_avx2<1, false>(cols, vals, cnt, pb, n, j, out);
  } else if (w > 0) {
    spmm_csr_row_cols_avx2<0, true>(cols, vals, cnt, pb, n, j, out);
  }
}

// Accumulator policies of the narrow row groups below: width 1 keeps a
// row's accumulator in the low lane of an xmm, widths 2..8 in a masked
// ymm. Either way a live lane takes exactly one fused multiply-add per
// nonzero. Width 1 (every CSR SpMV) keeps its own policy because it was
// measured faster: on four of five Table III operands the masked ymm
// made width 1 1.1-1.4x slower in thread CPU time (likely because a
// 32-byte window at a float offset crosses a cache line in 7 of 16
// positions), while a full ymm at width 8 gained 3-5% at most over the
// masked one.
struct NarrowOne {
  explicit NarrowOne(index_t) {}
  MT_SIMD_TARGET __m128 zero() const { return _mm_setzero_ps(); }
  MT_SIMD_TARGET __m128 step(__m128 c, value_t a,
                             const value_t* brow) const {
    return _mm_fmadd_ss(_mm_set_ss(a), _mm_load_ss(brow), c);
  }
  MT_SIMD_TARGET void store(value_t* out, __m128 c) const {
    _mm_store_ss(out, c);
  }
};

struct NarrowMasked {
  MT_SIMD_TARGET explicit NarrowMasked(index_t n)
      : mask(simd::first_lanes(n)) {}
  __m256i mask;
  MT_SIMD_TARGET __m256 zero() const { return simd::zero(); }
  MT_SIMD_TARGET __m256 step(__m256 c, value_t a,
                             const value_t* brow) const {
    return simd::fma(simd::set1(a), simd::load_masked(brow, mask), c);
  }
  MT_SIMD_TARGET void store(value_t* out, __m256 c) const {
    simd::store_masked(out, mask, c);
  }
};

// Rows [r0, r0 + nr) (nr <= 4) of a CSR×Dense product of width n <= 8.
// A single row's chain is latency-bound (each FMA waits on the previous
// one), so the four rows' chains are interleaved over their common
// nonzero prefix and overlap in the FMA pipeline; each row then finishes
// its own remaining nonzeros.
template <class Lane>
MT_SIMD_TARGET void spmm_csr_rows4_narrow_avx2(const index_t* rp,
                                               const index_t* ci,
                                               const value_t* av,
                                               index_t r0, index_t nr,
                                               const value_t* pb, index_t n,
                                               value_t* po) {
  const Lane lane(n);
  // A missing row (q >= nr) reads as empty, so the common prefix is 0.
  index_t lo[4], hi[4];
  for (index_t q = 0; q < 4; ++q) {
    lo[q] = rp[r0 + std::min(q, nr)];
    hi[q] = rp[r0 + std::min(q + 1, nr)];
  }
  const index_t common = std::min(
      {hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2], hi[3] - lo[3]});
  auto c0 = lane.zero(), c1 = lane.zero(), c2 = lane.zero(), c3 = lane.zero();
  for (index_t i = 0; i < common; ++i) {
    const index_t e0 = lo[0] + i, e1 = lo[1] + i;
    const index_t e2 = lo[2] + i, e3 = lo[3] + i;
    c0 = lane.step(c0, av[e0], pb + ci[e0] * n);
    c1 = lane.step(c1, av[e1], pb + ci[e1] * n);
    c2 = lane.step(c2, av[e2], pb + ci[e2] * n);
    c3 = lane.step(c3, av[e3], pb + ci[e3] * n);
  }
  const decltype(c0) c[4] = {c0, c1, c2, c3};
  for (index_t q = 0; q < nr; ++q) {
    auto acc = c[q];
    for (index_t e = lo[q] + common; e < hi[q]; ++e) {
      acc = lane.step(acc, av[e], pb + ci[e] * n);
    }
    lane.store(po + (r0 + q) * n, acc);
  }
}

// One Dense×CSC output column: 8-row panels of A addressed by strided
// gather ((r+l)*k + kk), accumulated in a register across B's column-j
// nonzeros, then scattered into the strided output column. Removes the
// per-nonzero load/store of every output element the scalar loop pays.
MT_SIMD_TARGET void spmm_dense_csc_col_avx2(const value_t* pa, index_t m,
                                            index_t k, const index_t* rows,
                                            const value_t* vals, index_t cnt,
                                            value_t* po, index_t n,
                                            index_t j) {
  index_t r = 0;
  for (; r + 8 <= m; r += 8) {
    const __m256i base_lo = _mm256_setr_epi64x(
        (r + 0) * k, (r + 1) * k, (r + 2) * k, (r + 3) * k);
    const __m256i base_hi = _mm256_setr_epi64x(
        (r + 4) * k, (r + 5) * k, (r + 6) * k, (r + 7) * k);
    __m256 acc = simd::zero();
    for (index_t i = 0; i < cnt; ++i) {
      const __m256i kk = _mm256_set1_epi64x(rows[i]);
      const __m128 lo =
          _mm256_i64gather_ps(pa, _mm256_add_epi64(base_lo, kk), 4);
      const __m128 hi =
          _mm256_i64gather_ps(pa, _mm256_add_epi64(base_hi, kk), 4);
      const __m256 col =
          _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
      acc = simd::fma(col, simd::set1(vals[i]), acc);
    }
    alignas(32) value_t lane[8];
    simd::store(lane, acc);
    for (int l = 0; l < 8; ++l) {
      po[(r + l) * n + j] += lane[l];
    }
  }
  for (; r < m; ++r) {
    value_t acc = 0.0f;
    for (index_t i = 0; i < cnt; ++i) {
      acc += pa[r * k + rows[i]] * vals[i];
    }
    po[r * n + j] += acc;
  }
}

}  // namespace
#endif  // MT_SIMD_X86

DenseMatrix spmm_coo_dense(const CooMatrix& a, const DenseMatrix& b) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  DenseMatrix o(a.rows(), b.cols());
  const index_t n = b.cols();
  value_t* po = o.values().data();
  const value_t* pb = b.values().data();
  const std::int64_t nnz = a.nnz();
  if (!a.is_row_major_sorted()) {
    // Alg. 1 of the paper over arbitrary entry order: consecutive entries
    // may share output rows, so this path stays serial.
    for (std::int64_t i = 0; i < nnz; ++i) {
      const index_t rid = a.row_ids()[i];
      const index_t cid = a.col_ids()[i];
      const value_t val = a.values()[i];
      for (index_t j = 0; j < n; ++j) {
        po[rid * n + j] += val * pb[cid * n + j];
      }
    }
    return o;
  }
  // Row-major entries: split the nnz range at row boundaries so each
  // thread's output rows are disjoint (bit-identical to the serial sweep).
  const int nt = num_threads();
  const auto cut = key_aligned_cuts(a.row_ids(), nnz, nt);
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int t = 0; t < nt; ++t) {
    for (std::int64_t i = cut[static_cast<std::size_t>(t)];
         i < cut[static_cast<std::size_t>(t) + 1]; ++i) {
      const index_t rid = a.row_ids()[i];
      const index_t cid = a.col_ids()[i];
      const value_t val = a.values()[i];
      for (index_t j = 0; j < n; ++j) {
        po[rid * n + j] += val * pb[cid * n + j];
      }
    }
  }
  return o;
}

DenseMatrix spmm_csr_dense(const CsrMatrix& a, const DenseMatrix& b) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  DenseMatrix o(a.rows(), b.cols());
  const index_t n = b.cols();
  value_t* po = o.values().data();
  const value_t* pb = b.values().data();
  [[maybe_unused]] const int nt = num_threads();
#if MT_SIMD_X86
  if (simd_enabled()) {
    const index_t* rp = a.row_ptr().data();
    const index_t* ci = a.col_ids().data();
    const value_t* av = a.values().data();
    if (n > 0 && n <= 8) {
      // Groups of 4 rows; each iteration owns its rows exclusively.
#pragma omp parallel for num_threads(nt) schedule(static)
      for (index_t r0 = 0; r0 < a.rows(); r0 += 4) {
        const index_t nr = std::min<index_t>(4, a.rows() - r0);
        if (n == 1) {
          spmm_csr_rows4_narrow_avx2<NarrowOne>(rp, ci, av, r0, nr, pb, n,
                                                po);
        } else {
          spmm_csr_rows4_narrow_avx2<NarrowMasked>(rp, ci, av, r0, nr, pb,
                                                   n, po);
        }
      }
      return o;
    }
#pragma omp parallel for num_threads(nt) schedule(static)
    for (index_t r = 0; r < a.rows(); ++r) {
      spmm_csr_row_avx2(ci + rp[r], av + rp[r], rp[r + 1] - rp[r], pb, n,
                        po + r * n);
    }
    return o;
  }
#endif
#pragma omp parallel for num_threads(nt) schedule(static)
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const index_t k = a.col_ids()[i];
      const value_t av = a.values()[i];
      for (index_t j = 0; j < n; ++j) {
        po[r * n + j] += av * pb[k * n + j];
      }
    }
  }
  return o;
}

DenseMatrix spmm_csc_dense(const CscMatrix& a, const DenseMatrix& b) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  DenseMatrix o(m, n);
  value_t* po = o.values().data();
  const value_t* pb = b.values().data();
  // Scattering into shared output rows from different A columns would
  // race, so columns are processed in fixed-width chunks with a private
  // partial output per chunk, reduced in chunk order. The chunk width is
  // independent of the thread count (deterministic results) and capped so
  // the partials stay within 8x the output footprint.
  const index_t chunk_cols = std::max<index_t>(256, (k + 7) / 8);
  const index_t nchunks = (k + chunk_cols - 1) / chunk_cols;
  if (nchunks == 0) return o;
  std::vector<value_t> part(static_cast<std::size_t>(nchunks * m * n), 0.0f);
  [[maybe_unused]] const int nt = num_threads();
#pragma omp parallel for num_threads(nt) schedule(static)
  for (index_t chunk = 0; chunk < nchunks; ++chunk) {
    value_t* pp = part.data() + chunk * m * n;
    const index_t c_hi = std::min(k, (chunk + 1) * chunk_cols);
    for (index_t c = chunk * chunk_cols; c < c_hi; ++c) {
      for (index_t i = a.col_ptr()[c]; i < a.col_ptr()[c + 1]; ++i) {
        const index_t r = a.row_ids()[i];
        const value_t av = a.values()[i];
        for (index_t j = 0; j < n; ++j) {
          pp[r * n + j] += av * pb[c * n + j];
        }
      }
    }
  }
  for (index_t chunk = 0; chunk < nchunks; ++chunk) {
    const value_t* pp = part.data() + chunk * m * n;
    for (index_t e = 0; e < m * n; ++e) po[e] += pp[e];
  }
  return o;
}

DenseMatrix spmm_dense_csc(const DenseMatrix& a, const CscMatrix& b) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  DenseMatrix o(a.rows(), b.cols());
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  value_t* po = o.values().data();
  const value_t* pa = a.values().data();
  [[maybe_unused]] const int nt = num_threads();
#if MT_SIMD_X86
  if (simd_enabled()) {
    const index_t* cp = b.col_ptr().data();
    const index_t* ri = b.row_ids().data();
    const value_t* bv = b.values().data();
    // omp-determinism: each iteration owns output column j exclusively,
    // and the row-panel/nonzero walk inside the column kernel is a pure
    // function of j, so dynamic scheduling cannot change the result bits.
#pragma omp parallel for num_threads(nt) schedule(dynamic, 16)
    for (index_t j = 0; j < n; ++j) {
      spmm_dense_csc_col_avx2(pa, m, k, ri + cp[j], bv + cp[j],
                              cp[j + 1] - cp[j], po, n, j);
    }
    return o;
  }
#endif
  // omp-determinism: each iteration owns output column j exclusively
  // (writes po[r*n+j] for fixed j), and the per-column accumulation order
  // follows B's column-j nonzeros regardless of which thread runs it, so
  // dynamic scheduling cannot change the result bits.
#pragma omp parallel for num_threads(nt) schedule(dynamic, 16)
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = b.col_ptr()[j]; i < b.col_ptr()[j + 1]; ++i) {
      const index_t kk = b.row_ids()[i];
      const value_t bv = b.values()[i];
      for (index_t r = 0; r < m; ++r) {
        po[r * n + j] += pa[r * k + kk] * bv;
      }
    }
  }
  return o;
}

DenseMatrix spmm_csr_csc(const CsrMatrix& a, const CscMatrix& b) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  DenseMatrix o(a.rows(), b.cols());
  const index_t n = b.cols();
  value_t* po = o.values().data();
  [[maybe_unused]] const int nt = num_threads();
  // omp-determinism: each iteration owns output row r exclusively, and
  // every (r, j) cell accumulates via the same sorted intersection walk
  // on any thread, so dynamic scheduling cannot change the result bits.
#pragma omp parallel for num_threads(nt) schedule(dynamic, 16)
  for (index_t r = 0; r < a.rows(); ++r) {
    const index_t a_lo = a.row_ptr()[r], a_hi = a.row_ptr()[r + 1];
    if (a_lo == a_hi) continue;
    for (index_t j = 0; j < n; ++j) {
      // Sorted intersection of A's row-r col ids and B's column-j row ids
      // — exactly the comparator matching the extended PEs perform.
      index_t ia = a_lo;
      index_t ib = b.col_ptr()[j];
      const index_t b_hi = b.col_ptr()[j + 1];
      value_t acc = 0.0f;
      while (ia < a_hi && ib < b_hi) {
        const index_t ka = a.col_ids()[ia];
        const index_t kb = b.row_ids()[ib];
        if (ka == kb) {
          acc += a.values()[ia] * b.values()[ib];
          ++ia;
          ++ib;
        } else if (ka < kb) {
          ++ia;
        } else {
          ++ib;
        }
      }
      if (acc != 0.0f) po[r * n + j] += acc;
    }
  }
  return o;
}

}  // namespace mt
