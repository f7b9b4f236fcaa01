#include "kernels/mttkrp.hpp"

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/threads.hpp"
#include "kernels/partition.hpp"

namespace mt {

#if MT_SIMD_X86
namespace {

// One CSF x-slice restricted to the rank tile [r0, r0+16): the fiber
// accumulator lives in V ymm registers across the whole z walk, and the
// B/C factor-row touches are confined to a 16-float panel — the
// rank-blocking that keeps factor panels L1-resident while the (much
// larger) id/value arrays stream. Per-(ix, r) accumulation order is the
// same z-then-y order as the scalar loop. The full tile is <2, false>.
// When kMasked, the tile is the rank tail: only its first w < 16 ranks
// are live (V = 1 for w <= 8, else 2), and masked-off lanes, which lie
// past the end of a factor row, are never read or written.
template <int V, bool kMasked>
MT_SIMD_TARGET void mttkrp_csf_slice_tile_avx2(
    const index_t* y_ptr, const index_t* y_ids, const index_t* z_ptr,
    const index_t* z_ids, const value_t* xv, const value_t* pb,
    const value_t* pc, value_t* pm, index_t rank, index_t xi, index_t ix,
    index_t r0, index_t w) {
  __m256i mask[V];
  for (int v = 0; v < V; ++v) mask[v] = simd::first_lanes(w - 8 * v);
  for (index_t yi = y_ptr[xi]; yi < y_ptr[xi + 1]; ++yi) {
    const index_t iy = y_ids[yi];
    __m256 acc[V];
    for (int v = 0; v < V; ++v) acc[v] = simd::zero();
    for (index_t zi = z_ptr[yi]; zi < z_ptr[yi + 1]; ++zi) {
      const __m256 x = simd::set1(xv[zi]);
      const value_t* pcr = pc + z_ids[zi] * rank + r0;
      for (int v = 0; v < V; ++v) {
        const __m256 cv = kMasked ? simd::load_masked(pcr + 8 * v, mask[v])
                                  : simd::load(pcr + 8 * v);
        acc[v] = simd::fma(x, cv, acc[v]);
      }
    }
    const value_t* pbr = pb + iy * rank + r0;
    value_t* pmr = pm + ix * rank + r0;
    for (int v = 0; v < V; ++v) {
      if constexpr (kMasked) {
        simd::store_masked(
            pmr + 8 * v, mask[v],
            simd::fma(acc[v], simd::load_masked(pbr + 8 * v, mask[v]),
                      simd::load_masked(pmr + 8 * v, mask[v])));
      } else {
        simd::store(pmr + 8 * v,
                    simd::fma(acc[v], simd::load(pbr + 8 * v),
                              simd::load(pmr + 8 * v)));
      }
    }
  }
}

}  // namespace
#endif  // MT_SIMD_X86

DenseMatrix mttkrp_coo(const CooTensor3& x, const DenseMatrix& b,
                       const DenseMatrix& c) {
  MT_REQUIRE(x.dim_y() == b.rows() && x.dim_z() == c.rows(),
             "factor matrix rows must match tensor modes");
  MT_REQUIRE(b.cols() == c.cols(), "factor rank mismatch");
  const index_t rank = b.cols();
  DenseMatrix m(x.dim_x(), rank);
  value_t* pm = m.values().data();
  const value_t* pb = b.values().data();
  const value_t* pc = c.values().data();
  for (std::int64_t i = 0; i < x.nnz(); ++i) {
    const index_t ix = x.x_ids()[i], iy = x.y_ids()[i], iz = x.z_ids()[i];
    const value_t v = x.values()[i];
    for (index_t r = 0; r < rank; ++r) {
      pm[ix * rank + r] += v * pb[iy * rank + r] * pc[iz * rank + r];
    }
  }
  return m;
}

DenseMatrix mttkrp_csf(const CsfTensor3& x, const DenseMatrix& b,
                       const DenseMatrix& c) {
  MT_REQUIRE(x.dim_y() == b.rows() && x.dim_z() == c.rows(),
             "factor matrix rows must match tensor modes");
  MT_REQUIRE(b.cols() == c.cols(), "factor rank mismatch");
  const index_t rank = b.cols();
  DenseMatrix m(x.dim_x(), rank);
  value_t* pm = m.values().data();
  const value_t* pb = b.values().data();
  const value_t* pc = c.values().data();
  // Each level-0 node owns one output row, so x-slices parallelize freely;
  // the z-fiber partial sum factors out B(j,:) — the classic CSF MTTKRP
  // operation-count saving.
  const auto n1 = static_cast<index_t>(x.x_ids().size());
  [[maybe_unused]] const int nt = num_threads();
#if MT_SIMD_X86
  if (simd_enabled()) {
    const index_t r_main = rank - rank % 16;
    const index_t* y_ptr = x.y_ptr().data();
    const index_t* y_ids = x.y_ids().data();
    const index_t* z_ptr = x.z_ptr().data();
    const index_t* z_ids = x.z_ids().data();
    const value_t* xv = x.values().data();
    const index_t w = rank - r_main;
#pragma omp parallel for num_threads(nt) schedule(static)
    for (index_t xi = 0; xi < n1; ++xi) {
      const index_t ix = x.x_ids()[static_cast<std::size_t>(xi)];
      for (index_t r0 = 0; r0 < r_main; r0 += 16) {
        mttkrp_csf_slice_tile_avx2<2, false>(y_ptr, y_ids, z_ptr, z_ids, xv,
                                             pb, pc, pm, rank, xi, ix, r0, 16);
      }
      if (w > 8) {
        mttkrp_csf_slice_tile_avx2<2, true>(y_ptr, y_ids, z_ptr, z_ids, xv, pb,
                                            pc, pm, rank, xi, ix, r_main, w);
      } else if (w > 0) {
        mttkrp_csf_slice_tile_avx2<1, true>(y_ptr, y_ids, z_ptr, z_ids, xv, pb,
                                            pc, pm, rank, xi, ix, r_main, w);
      }
    }
    return m;
  }
#endif
#pragma omp parallel num_threads(nt)
  {
    std::vector<value_t> fiber_acc(static_cast<std::size_t>(rank));
#pragma omp for schedule(static)
    for (index_t xi = 0; xi < n1; ++xi) {
      const index_t ix = x.x_ids()[static_cast<std::size_t>(xi)];
      for (index_t yi = x.y_ptr()[xi]; yi < x.y_ptr()[xi + 1]; ++yi) {
        const index_t iy = x.y_ids()[static_cast<std::size_t>(yi)];
        std::fill(fiber_acc.begin(), fiber_acc.end(), 0.0f);
        for (index_t zi = x.z_ptr()[yi]; zi < x.z_ptr()[yi + 1]; ++zi) {
          const index_t iz = x.z_ids()[static_cast<std::size_t>(zi)];
          const value_t v = x.values()[static_cast<std::size_t>(zi)];
          for (index_t r = 0; r < rank; ++r) {
            fiber_acc[static_cast<std::size_t>(r)] += v * pc[iz * rank + r];
          }
        }
        for (index_t r = 0; r < rank; ++r) {
          pm[ix * rank + r] +=
              fiber_acc[static_cast<std::size_t>(r)] * pb[iy * rank + r];
        }
      }
    }
  }
  return m;
}

DenseMatrix mttkrp_hicoo(const HicooTensor3& x, const DenseMatrix& b,
                         const DenseMatrix& c) {
  MT_REQUIRE(x.dim_y() == b.rows() && x.dim_z() == c.rows(),
             "factor matrix rows must match tensor modes");
  MT_REQUIRE(b.cols() == c.cols(), "factor rank mismatch");
  const index_t rank = b.cols();
  const index_t blk = x.block();
  DenseMatrix m(x.dim_x(), rank);
  value_t* pm = m.values().data();
  const value_t* pb = b.values().data();
  const value_t* pc = c.values().data();
  const auto nblocks = x.num_blocks();
  // Blocks with equal block_x cover the same output-row band [bx*B,
  // bx*B+B); cutting the block array between distinct block_x values keeps
  // those bands thread-private.
  const int nt = num_threads();
  const auto cut = key_aligned_cuts(x.block_x(), nblocks, nt);
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int t = 0; t < nt; ++t) {
    for (std::int64_t bi = cut[static_cast<std::size_t>(t)];
         bi < cut[static_cast<std::size_t>(t) + 1]; ++bi) {
      const index_t base_x = x.block_x()[static_cast<std::size_t>(bi)] * blk;
      const index_t base_y = x.block_y()[static_cast<std::size_t>(bi)] * blk;
      const index_t base_z = x.block_z()[static_cast<std::size_t>(bi)] * blk;
      for (index_t e = x.block_ptr()[static_cast<std::size_t>(bi)];
           e < x.block_ptr()[static_cast<std::size_t>(bi) + 1]; ++e) {
        const auto ei = static_cast<std::size_t>(e);
        const index_t ix = base_x + x.elem_x()[ei];
        const index_t iy = base_y + x.elem_y()[ei];
        const index_t iz = base_z + x.elem_z()[ei];
        const value_t v = x.values()[ei];
        for (index_t r = 0; r < rank; ++r) {
          pm[ix * rank + r] += v * pb[iy * rank + r] * pc[iz * rank + r];
        }
      }
    }
  }
  return m;
}

DenseMatrix mttkrp_dense(const DenseTensor3& x, const DenseMatrix& b,
                         const DenseMatrix& c) {
  MT_REQUIRE(x.dim_y() == b.rows() && x.dim_z() == c.rows(),
             "factor matrix rows must match tensor modes");
  MT_REQUIRE(b.cols() == c.cols(), "factor rank mismatch");
  const index_t rank = b.cols();
  DenseMatrix m(x.dim_x(), rank);
  for (index_t ix = 0; ix < x.dim_x(); ++ix) {
    for (index_t iy = 0; iy < x.dim_y(); ++iy) {
      for (index_t iz = 0; iz < x.dim_z(); ++iz) {
        const value_t v = x.at(ix, iy, iz);
        if (v == 0.0f) continue;
        for (index_t r = 0; r < rank; ++r) {
          m.set(ix, r, m.at(ix, r) + v * b.at(iy, r) * c.at(iz, r));
        }
      }
    }
  }
  return m;
}

}  // namespace mt
