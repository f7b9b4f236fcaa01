#include <algorithm>

#include "common/aligned.hpp"
#include "common/bitutil.hpp"
#include "common/error.hpp"
#include "convert/convert.hpp"

namespace mt {

CscMatrix csr_to_csc(const CsrMatrix& a) {
  const std::int64_t n = a.nnz();
  // Histogram of column ids (MINT's cluster counter, Fig. 8c step 3).
  std::vector<index_t> col_ptr(static_cast<std::size_t>(a.cols()) + 1, 0);
  for (index_t c : a.col_ids()) ++col_ptr[static_cast<std::size_t>(c) + 1];
  // Prefix sum (Fig. 8c step 5).
  for (index_t c = 0; c < a.cols(); ++c) {
    col_ptr[static_cast<std::size_t>(c) + 1] += col_ptr[static_cast<std::size_t>(c)];
  }
  // Scatter with a per-column write cursor (Fig. 8c steps 6-9). Iterating
  // rows in order makes row ids ascending within each column.
  std::vector<index_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  std::vector<index_t> row_ids(static_cast<std::size_t>(n));
  std::vector<value_t> values(static_cast<std::size_t>(n));
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const index_t dst = cursor[static_cast<std::size_t>(a.col_ids()[i])]++;
      row_ids[static_cast<std::size_t>(dst)] = r;
      values[static_cast<std::size_t>(dst)] = a.values()[i];
    }
  }
  return CscMatrix::from_parts(a.rows(), a.cols(), std::move(col_ptr),
                               std::move(row_ids), std::move(values));
}

CsrMatrix csc_to_csr(const CscMatrix& a) {
  std::vector<index_t> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  for (index_t r : a.row_ids()) ++row_ptr[static_cast<std::size_t>(r) + 1];
  for (index_t r = 0; r < a.rows(); ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] += row_ptr[static_cast<std::size_t>(r)];
  }
  std::vector<index_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<index_t> col_ids(static_cast<std::size_t>(a.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(a.nnz()));
  for (index_t c = 0; c < a.cols(); ++c) {
    for (index_t i = a.col_ptr()[c]; i < a.col_ptr()[c + 1]; ++i) {
      const index_t dst = cursor[static_cast<std::size_t>(a.row_ids()[i])]++;
      col_ids[static_cast<std::size_t>(dst)] = c;
      values[static_cast<std::size_t>(dst)] = a.values()[i];
    }
  }
  return CsrMatrix::from_parts(a.rows(), a.cols(), std::move(row_ptr),
                               std::move(col_ids), std::move(values));
}

CooMatrix rlc_to_coo(const RlcMatrix& a) {
  // Running linear position = prefix sum of (zero_run + 1) (Fig. 8d step
  // 2-3); row/col recovered from it (Fig. 8d step 4) by carrying the
  // column over, dividing only where the position crosses a row end. Escape
  // entries advance the position but emit nothing. Positions ascend, so
  // the COO comes out row-major without a sort.
  const std::size_t n = a.entries().size();
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  rows.reserve(n);
  cols.reserve(n);
  vals.reserve(n);
  const index_t k = a.cols();
  index_t row = 0, col = -1;
  for (const RlcEntry& e : a.entries()) {
    col += static_cast<index_t>(e.zero_run) + 1;
    if (col >= k) {
      row += col / k;
      col %= k;
    }
    if (e.value == 0.0f) continue;
    rows.push_back(row);
    cols.push_back(col);
    vals.push_back(e.value);
  }
  return CooMatrix::from_entries(a.rows(), a.cols(), std::move(rows),
                                 std::move(cols), std::move(vals));
}

RlcMatrix coo_to_rlc(const CooMatrix& a, int run_bits) {
  // Row-major COO gives ascending linear positions, so runs and escapes
  // are emitted straight from the gaps between nonzeros, in O(nnz +
  // escapes) without a dense staging buffer. Explicitly stored zeros are
  // part of a run, exactly as the dense encoder sees them.
  MT_REQUIRE(a.is_row_major_sorted(), "COO must be row-major sorted");
  MT_REQUIRE(run_bits >= 1 && run_bits <= 16, "run counter width 1..16 bits");
  const std::int64_t max_run = (std::int64_t{1} << run_bits) - 1;
  std::vector<RlcEntry> entries;
  entries.reserve(static_cast<std::size_t>(a.nnz()));
  std::int64_t next = 0;  // first linear position not yet encoded
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    const value_t x = a.values()[i];
    if (x == 0.0f) continue;
    const std::int64_t pos = a.row_ids()[i] * a.cols() + a.col_ids()[i];
    std::int64_t zeros = pos - next;
    // An escape carries max_run zeros plus one explicit zero value.
    while (zeros > max_run) {
      entries.push_back({static_cast<std::uint32_t>(max_run), 0.0f});
      zeros -= max_run + 1;
    }
    entries.push_back({static_cast<std::uint32_t>(zeros), x});
    next = pos + 1;
  }
  // Trailing zeros are implicit: the decoder knows rows*cols.
  return RlcMatrix::from_parts(a.rows(), a.cols(), run_bits, std::move(entries));
}

BsrMatrix csr_to_bsr(const CsrMatrix& a, index_t block_rows,
                     index_t block_cols) {
  MT_REQUIRE(block_rows > 0 && block_cols > 0, "positive block dims");
  const index_t grid_rows = ceil_div(a.rows(), block_rows);
  const index_t grid_cols = ceil_div(a.cols(), block_cols);
  std::vector<index_t> block_row_ptr{0};
  std::vector<index_t> block_col_ids;
  std::vector<value_t> block_values;
  // Per row block: find the set of touched block columns (MINT uses mods +
  // comparators + register flags, Fig. 8e step 2), then fill each block's
  // br*bc region with values or explicit zeros.
  std::vector<index_t> touched(static_cast<std::size_t>(grid_cols), 0);
  for (index_t gr = 0; gr < grid_rows; ++gr) {
    std::fill(touched.begin(), touched.end(), 0);
    const index_t r_lo = gr * block_rows;
    const index_t r_hi = std::min(r_lo + block_rows, a.rows());
    for (index_t r = r_lo; r < r_hi; ++r) {
      for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
        touched[static_cast<std::size_t>(a.col_ids()[i] / block_cols)] = 1;
      }
    }
    const index_t first_block = static_cast<index_t>(block_col_ids.size());
    for (index_t gc = 0; gc < grid_cols; ++gc) {
      if (touched[static_cast<std::size_t>(gc)]) block_col_ids.push_back(gc);
    }
    const index_t nb_row = static_cast<index_t>(block_col_ids.size()) - first_block;
    block_values.resize(block_values.size() +
                        static_cast<std::size_t>(nb_row * block_rows * block_cols),
                        0.0f);
    // Map block col -> slot within this row block for scatter.
    std::vector<index_t> slot(static_cast<std::size_t>(grid_cols), -1);
    for (index_t b = first_block; b < first_block + nb_row; ++b) {
      slot[static_cast<std::size_t>(block_col_ids[b])] = b;
    }
    for (index_t r = r_lo; r < r_hi; ++r) {
      for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
        const index_t c = a.col_ids()[i];
        const index_t b = slot[static_cast<std::size_t>(c / block_cols)];
        const index_t within =
            (b * block_rows + (r - r_lo)) * block_cols + (c % block_cols);
        block_values[static_cast<std::size_t>(within)] = a.values()[i];
      }
    }
    block_row_ptr.push_back(static_cast<index_t>(block_col_ids.size()));
  }
  return BsrMatrix::from_parts(a.rows(), a.cols(), block_rows, block_cols,
                               std::move(block_row_ptr),
                               std::move(block_col_ids),
                               std::move(block_values));
}

CsrMatrix bsr_to_csr(const BsrMatrix& a) {
  // Blocks are stored block-row by block-row with ascending block column
  // ids, so walking each scalar row across its block row's blocks yields
  // CSR order directly: O(nnz + rows), no sort.
  const index_t br = a.block_rows(), bc = a.block_cols();
  const auto& brp = a.block_row_ptr();
  const auto& bcol = a.block_col_ids();
  const auto& bval = a.block_values();
  std::vector<index_t> row_ptr{0};
  row_ptr.reserve(static_cast<std::size_t>(a.rows()) + 1);
  std::vector<index_t> col_ids;
  AlignedVec<value_t> values;
  for (index_t gr = 0; gr < a.block_grid_rows(); ++gr) {
    for (index_t in = 0; in < br; ++in) {
      const index_t r = gr * br + in;
      for (index_t b = brp[gr]; b < brp[gr + 1]; ++b) {
        for (index_t jc = 0; jc < bc; ++jc) {
          const value_t x =
              bval[static_cast<std::size_t>((b * br + in) * bc + jc)];
          if (x == 0.0f) continue;  // drop fill zeros
          const index_t c = bcol[b] * bc + jc;
          MT_REQUIRE(r < a.rows() && c < a.cols(),
                     "padding region of a boundary block must be zero");
          col_ids.push_back(c);
          values.push_back(x);
        }
      }
      if (r < a.rows()) {
        row_ptr.push_back(static_cast<index_t>(col_ids.size()));
      }
    }
  }
  return CsrMatrix::from_parts_aligned(a.rows(), a.cols(),
                                       std::move(row_ptr), std::move(col_ids),
                                       std::move(values));
}

CsfTensor3 dense_to_csf(const DenseTensor3& a) { return CsfTensor3::from_dense(a); }
ZvcMatrix dense_to_zvc(const DenseMatrix& a) { return ZvcMatrix::from_dense(a); }
DenseMatrix zvc_to_dense(const ZvcMatrix& a) { return a.to_dense(); }
CsrMatrix dense_to_csr(const DenseMatrix& a) { return CsrMatrix::from_dense(a); }
DenseMatrix csr_to_dense(const CsrMatrix& a) { return a.to_dense(); }

}  // namespace mt
