#include "formats/csc.hpp"

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace mt {

CscMatrix CscMatrix::from_parts(index_t rows, index_t cols,
                                std::vector<index_t> col_ptr,
                                std::vector<index_t> row_ids,
                                std::vector<value_t> values) {
  MT_REQUIRE(static_cast<index_t>(col_ptr.size()) == cols + 1,
             "col_ptr must have cols+1 entries");
  MT_REQUIRE(row_ids.size() == values.size(), "row_ids/values length mismatch");
  MT_REQUIRE(col_ptr.front() == 0 &&
                 col_ptr.back() == static_cast<index_t>(values.size()),
             "col_ptr must span [0, nnz]");
  for (index_t c = 0; c < cols; ++c) {
    MT_REQUIRE(col_ptr[c] <= col_ptr[c + 1], "col_ptr must be non-decreasing");
    for (index_t i = col_ptr[c]; i < col_ptr[c + 1]; ++i) {
      MT_REQUIRE(row_ids[i] >= 0 && row_ids[i] < rows, "row_id out of range");
      MT_REQUIRE(i == col_ptr[c] || row_ids[i - 1] < row_ids[i],
                 "row_ids ascending within a column");
    }
  }
  CscMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_ = std::move(col_ptr);
  m.row_ = std::move(row_ids);
  m.val_ = std::move(values);
  return m;
}

CscMatrix CscMatrix::from_dense(const DenseMatrix& d) {
  return from_coo(CooMatrix::from_dense(d));
}

CscMatrix CscMatrix::from_coo(const CooMatrix& c) {
  // Column histogram, prefix sum, then a scatter with a per-column write
  // cursor (csr_to_csc's pipeline). A COO is row-major or column-major
  // sorted, and either order leaves row ids ascending within each column.
  CscMatrix m;
  m.rows_ = c.rows();
  m.cols_ = c.cols();
  m.col_ptr_.assign(static_cast<std::size_t>(m.cols_) + 1, 0);
  for (index_t col : c.col_ids()) ++m.col_ptr_[static_cast<std::size_t>(col) + 1];
  for (index_t col = 0; col < m.cols_; ++col) {
    m.col_ptr_[static_cast<std::size_t>(col) + 1] += m.col_ptr_[static_cast<std::size_t>(col)];
  }
  std::vector<index_t> cursor(m.col_ptr_.begin(), m.col_ptr_.end() - 1);
  m.row_.resize(static_cast<std::size_t>(c.nnz()));
  m.val_.resize(static_cast<std::size_t>(c.nnz()));
  for (std::size_t i = 0; i < c.values().size(); ++i) {
    const auto dst = static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(c.col_ids()[i])]++);
    m.row_[dst] = c.row_ids()[i];
    m.val_[dst] = c.values()[i];
  }
  return m;
}

DenseMatrix CscMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (index_t c = 0; c < cols_; ++c) {
    for (index_t i = col_ptr_[c]; i < col_ptr_[c + 1]; ++i) {
      d.set(row_[i], c, val_[i]);
    }
  }
  return d;
}

CooMatrix CscMatrix::to_coo() const {
  // Scatter straight into row-major order with a per-row write cursor (as
  // csc_to_csr does): walking columns in order leaves columns ascending
  // within each row, so the result needs no sort.
  std::vector<index_t> cursor(static_cast<std::size_t>(rows_) + 1, 0);
  for (index_t r : row_) ++cursor[static_cast<std::size_t>(r) + 1];
  for (index_t r = 0; r < rows_; ++r) {
    cursor[static_cast<std::size_t>(r) + 1] += cursor[static_cast<std::size_t>(r)];
  }
  std::vector<index_t> rows(val_.size()), cols(val_.size());
  std::vector<value_t> vals(val_.size());
  for (index_t c = 0; c < cols_; ++c) {
    for (index_t i = col_ptr_[c]; i < col_ptr_[c + 1]; ++i) {
      const auto dst = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(row_[i])]++);
      rows[dst] = row_[i];
      cols[dst] = c;
      vals[dst] = val_[i];
    }
  }
  return CooMatrix::from_entries(rows_, cols_, std::move(rows), std::move(cols),
                                 std::move(vals));
}

StorageSize CscMatrix::storage(DataType dt) const {
  const std::int64_t n = nnz();
  const std::int64_t meta =
      n * bits_for(static_cast<std::uint64_t>(rows_)) +
      (cols_ + 1) * bits_for(static_cast<std::uint64_t>(n) + 1);
  return {n * bits_of(dt), meta};
}

}  // namespace mt
