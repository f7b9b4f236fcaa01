#include "kernels/gemm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/threads.hpp"

namespace mt {

#if MT_SIMD_X86
namespace {

// Register micro-kernel geometry. A full tile is kMr x kNr (4 rows x 16
// columns = 8 ymm accumulators, leaving registers for the two B vectors
// and the broadcast A element). The column tail at n % 16 <= 8 is one
// masked vector wide and kNarrowMr = 8 rows high, so it too keeps eight
// independent FMA chains in flight; a wider tail uses 4-row tiles like
// the full columns. Every tile height is a compile-time constant: with a
// runtime height GCC keeps the accumulator array on the stack and each
// FMA reads it from there. The output is walked in kNarrowMr-row blocks
// over kKc-deep k-panels, so the B panel (kKc x kNr floats = 16 KiB)
// stays L1-resident while both 4-row tiles of a block reuse it.
constexpr int kMr = 4;
constexpr int kNarrowMr = 8;
constexpr index_t kNr = 16;
constexpr index_t kKc = 256;

// One kRows-row output tile of V ymm columns at (i0, j0), accumulated
// over the k-panel [k0, k1). The tile is loaded once, FMA'd kc times,
// stored once; k advances in the same ascending order as the scalar
// loop, so per-cell accumulation order matches scalar exactly (FMA
// rounding and the zero-skip aside). The full 16-column tile is
// <kMr, 2, false>. When kMasked, the tile is the column tail: only its
// first w < 16 columns are live (V = 1 for w <= 8, else 2), masked-off
// lanes are never read or written, and a live lane computes exactly
// std::fmaf(a, b, c) in the same k order. So a cell's bits do not depend
// on the tile height, or on whether its column falls in a full tile or
// the tail, and concatenating batched GEMM factors (which shifts the
// tile grid) cannot change per-request results.
template <int kRows, int V, bool kMasked>
MT_SIMD_TARGET void gemm_tile_avx2(const value_t* pa, const value_t* pb,
                                   value_t* po, index_t k, index_t n,
                                   index_t i0, index_t k0, index_t k1,
                                   index_t j0, index_t w) {
  __m256i mask[V];
  for (int v = 0; v < V; ++v) mask[v] = simd::first_lanes(w - 8 * v);
  __m256 c[kRows][V];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < V; ++v) {
      const value_t* p = po + (i0 + r) * n + j0 + 8 * v;
      if constexpr (kMasked) {
        c[r][v] = simd::load_masked(p, mask[v]);
      } else {
        c[r][v] = simd::load(p);
      }
    }
  }
  // A k-panel is never empty. Without the zero-trip path there is no
  // merge of loaded and accumulated tiles after the loop, which otherwise
  // makes GCC store every accumulator to the stack on each iteration.
  index_t kk = k0;
  do {
    __m256 b[V];
    for (int v = 0; v < V; ++v) {
      const value_t* p = pb + kk * n + j0 + 8 * v;
      if constexpr (kMasked) {
        b[v] = simd::load_masked(p, mask[v]);
      } else {
        b[v] = simd::load(p);
      }
    }
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = simd::set1(pa[(i0 + r) * k + kk]);
      for (int v = 0; v < V; ++v) c[r][v] = simd::fma(av, b[v], c[r][v]);
    }
  } while (++kk < k1);
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < V; ++v) {
      value_t* p = po + (i0 + r) * n + j0 + 8 * v;
      if constexpr (kMasked) {
        simd::store_masked(p, mask[v], c[r][v]);
      } else {
        simd::store(p, c[r][v]);
      }
    }
  }
}

// Rows [i0, i1) of one column tile over one k-panel: kRows-high tiles,
// then the leftover rows in tiles of half the height, down to one row.
template <int kRows, int V, bool kMasked>
MT_SIMD_TARGET void gemm_rows_avx2(const value_t* pa, const value_t* pb,
                                   value_t* po, index_t k, index_t n,
                                   index_t i0, index_t i1, index_t k0,
                                   index_t k1, index_t j0, index_t w) {
  index_t i = i0;
  for (; i + kRows <= i1; i += kRows) {
    gemm_tile_avx2<kRows, V, kMasked>(pa, pb, po, k, n, i, k0, k1, j0, w);
  }
  if constexpr (kRows > 1) {
    if (i < i1) {
      gemm_rows_avx2<kRows / 2, V, kMasked>(pa, pb, po, k, n, i, i1, k0, k1,
                                            j0, w);
    }
  }
}

}  // namespace
#endif  // MT_SIMD_X86

DenseMatrix gemm(const DenseMatrix& a, const DenseMatrix& b) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  DenseMatrix o(a.rows(), b.cols());
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  const value_t* pa = a.values().data();
  const value_t* pb = b.values().data();
  value_t* po = o.values().data();
  [[maybe_unused]] const int nt = num_threads();
#if MT_SIMD_X86
  if (simd_enabled()) {
    const index_t j_main = n - n % kNr;
    const index_t w = n - j_main;
    // Each iteration owns rows [i0, i1) of the output exclusively;
    // results are bit-identical at any thread count.
#pragma omp parallel for num_threads(nt) schedule(static)
    for (index_t i0 = 0; i0 < m; i0 += kNarrowMr) {
      const index_t i1 = std::min<index_t>(m, i0 + kNarrowMr);
      for (index_t k0 = 0; k0 < k; k0 += kKc) {
        const index_t k1 = std::min(k, k0 + kKc);
        for (index_t j0 = 0; j0 < j_main; j0 += kNr) {
          gemm_rows_avx2<kMr, 2, false>(pa, pb, po, k, n, i0, i1, k0, k1, j0,
                                        kNr);
        }
        if (w > 8) {
          gemm_rows_avx2<kMr, 2, true>(pa, pb, po, k, n, i0, i1, k0, k1,
                                       j_main, w);
        } else if (w > 0) {
          gemm_rows_avx2<kNarrowMr, 1, true>(pa, pb, po, k, n, i0, i1, k0, k1,
                                             j_main, w);
        }
      }
    }
    return o;
  }
#endif
#pragma omp parallel for num_threads(nt) schedule(static)
  for (index_t i = 0; i < m; ++i) {
    // i-k-j loop order keeps the B row access contiguous.
    for (index_t kk = 0; kk < k; ++kk) {
      const value_t av = pa[i * k + kk];
      if (av == 0.0f) continue;
      for (index_t j = 0; j < n; ++j) {
        po[i * n + j] += av * pb[kk * n + j];
      }
    }
  }
  return o;
}

}  // namespace mt
