#include "kernels/gemm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/threads.hpp"

namespace mt {

#if MT_SIMD_X86
namespace {

// Register micro-kernel geometry: kMr x kNr output tiles (4 rows x 16
// columns = 8 ymm accumulators, leaving registers for the two B vectors
// and the broadcast A element) over kKc-deep k-panels so the B panel
// (kKc x kNr floats = 16 KiB) stays L1-resident while it is reused
// across every row tile.
constexpr index_t kMr = 4;
constexpr index_t kNr = 16;
constexpr index_t kKc = 256;

// One mr-row output tile of V ymm columns at j0, accumulated over the
// k-panel [k0, k1). The tile is loaded once, FMA'd kc times, stored
// once; k advances in the same ascending order as the scalar loop, so
// per-cell accumulation order matches scalar exactly (FMA rounding and
// the zero-skip aside). The full 16-column tile is <2, false>. When
// kMasked, the tile is the column tail: only its first w < 16 columns
// are live (V = 1 for w <= 8, else 2), masked-off lanes are never read
// or written, and a live lane computes exactly std::fmaf(a, b, c) in
// the same k order. So a cell's bits do not depend on whether its
// column falls in a full tile or the tail, and concatenating batched
// GEMM factors (which shifts the tile grid) cannot change per-request
// results.
template <int V, bool kMasked>
MT_SIMD_TARGET void gemm_tile_avx2(const value_t* pa, const value_t* pb,
                                   value_t* po, index_t k, index_t n,
                                   index_t i0, index_t mr, index_t k0,
                                   index_t k1, index_t j0, index_t w) {
  __m256i mask[V];
  for (int v = 0; v < V; ++v) mask[v] = simd::first_lanes(w - 8 * v);
  __m256 c[kMr][V];
  for (index_t r = 0; r < mr; ++r) {
    for (int v = 0; v < V; ++v) {
      const value_t* p = po + (i0 + r) * n + j0 + 8 * v;
      if constexpr (kMasked) {
        c[r][v] = simd::load_masked(p, mask[v]);
      } else {
        c[r][v] = simd::load(p);
      }
    }
  }
  for (index_t kk = k0; kk < k1; ++kk) {
    __m256 b[V];
    for (int v = 0; v < V; ++v) {
      const value_t* p = pb + kk * n + j0 + 8 * v;
      if constexpr (kMasked) {
        b[v] = simd::load_masked(p, mask[v]);
      } else {
        b[v] = simd::load(p);
      }
    }
    for (index_t r = 0; r < mr; ++r) {
      const __m256 av = simd::set1(pa[(i0 + r) * k + kk]);
      for (int v = 0; v < V; ++v) c[r][v] = simd::fma(av, b[v], c[r][v]);
    }
  }
  for (index_t r = 0; r < mr; ++r) {
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
    // Each iteration owns rows [i0, i0+mr) of the output exclusively;
    // results are bit-identical at any thread count.
#pragma omp parallel for num_threads(nt) schedule(static)
    for (index_t i0 = 0; i0 < m; i0 += kMr) {
      const index_t mr = std::min(kMr, m - i0);
      for (index_t k0 = 0; k0 < k; k0 += kKc) {
        const index_t k1 = std::min(k, k0 + kKc);
        for (index_t j0 = 0; j0 < j_main; j0 += kNr) {
          gemm_tile_avx2<2, false>(pa, pb, po, k, n, i0, mr, k0, k1, j0,
                                   kNr);
        }
        const index_t w = n - j_main;
        if (w > 8) {
          gemm_tile_avx2<2, true>(pa, pb, po, k, n, i0, mr, k0, k1, j_main,
                                  w);
        } else if (w > 0) {
          gemm_tile_avx2<1, true>(pa, pb, po, k, n, i0, mr, k0, k1, j_main,
                                  w);
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
