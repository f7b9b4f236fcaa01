#include "formats/coo.hpp"

#include <algorithm>
#include <numeric>

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace mt {

namespace {
// Applies permutation `p` to the three parallel arrays.
void permute(const std::vector<std::size_t>& p, std::vector<index_t>& r,
             std::vector<index_t>& c, std::vector<value_t>& v) {
  std::vector<index_t> r2(r.size()), c2(c.size());
  std::vector<value_t> v2(v.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    r2[i] = r[p[i]];
    c2[i] = c[p[i]];
    v2[i] = v[p[i]];
  }
  r = std::move(r2);
  c = std::move(c2);
  v = std::move(v2);
}
}  // namespace

CooMatrix CooMatrix::from_entries(index_t rows, index_t cols,
                                  std::vector<index_t> row_ids,
                                  std::vector<index_t> col_ids,
                                  std::vector<value_t> values) {
  MT_REQUIRE(rows >= 0 && cols >= 0, "non-negative dimensions");
  MT_REQUIRE(row_ids.size() == col_ids.size() && col_ids.size() == values.size(),
             "parallel arrays must have equal length");
  CooMatrix c;
  c.rows_ = rows;
  c.cols_ = cols;
  c.row_ = std::move(row_ids);
  c.col_ = std::move(col_ids);
  c.val_ = std::move(values);
  const auto in_range = [&](std::size_t i) {
    return c.row_[i] >= 0 && c.row_[i] < rows && c.col_[i] >= 0 &&
           c.col_[i] < cols;
  };
  // Fast path: strictly row-major input (every CSR/RLC expansion and every
  // ordered generator) is kept as is. Strictness also rules out duplicates.
  bool sorted = true;
  for (std::size_t i = 0; i < c.val_.size(); ++i) {
    MT_REQUIRE(in_range(i), "COO coordinate out of range");
    sorted = sorted && (i == 0 || c.row_[i] > c.row_[i - 1] ||
                        (c.row_[i] == c.row_[i - 1] && c.col_[i] > c.col_[i - 1]));
  }
  if (sorted) return c;
  c.sort_row_major();
  for (std::size_t i = 1; i < c.val_.size(); ++i) {
    MT_REQUIRE(c.row_[i] != c.row_[i - 1] || c.col_[i] != c.col_[i - 1],
               "duplicate COO coordinate");
  }
  return c;
}

CooMatrix CooMatrix::from_dense(const DenseMatrix& d) {
  CooMatrix c;
  c.rows_ = d.rows();
  c.cols_ = d.cols();
  for (index_t r = 0; r < d.rows(); ++r) {
    for (index_t k = 0; k < d.cols(); ++k) {
      const value_t x = d.at(r, k);
      if (x != 0.0f) {
        c.row_.push_back(r);
        c.col_.push_back(k);
        c.val_.push_back(x);
      }
    }
  }
  return c;
}

DenseMatrix CooMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (std::size_t i = 0; i < val_.size(); ++i) d.set(row_[i], col_[i], val_[i]);
  return d;
}

void CooMatrix::sort_row_major() {
  std::vector<std::size_t> p(val_.size());
  std::iota(p.begin(), p.end(), 0);
  std::sort(p.begin(), p.end(), [&](std::size_t a, std::size_t b) {
    return row_[a] != row_[b] ? row_[a] < row_[b] : col_[a] < col_[b];
  });
  permute(p, row_, col_, val_);
}

void CooMatrix::sort_col_major() {
  std::vector<std::size_t> p(val_.size());
  std::iota(p.begin(), p.end(), 0);
  std::sort(p.begin(), p.end(), [&](std::size_t a, std::size_t b) {
    return col_[a] != col_[b] ? col_[a] < col_[b] : row_[a] < row_[b];
  });
  permute(p, row_, col_, val_);
}

bool CooMatrix::is_row_major_sorted() const {
  for (std::size_t i = 1; i < val_.size(); ++i) {
    if (row_[i] < row_[i - 1] ||
        (row_[i] == row_[i - 1] && col_[i] <= col_[i - 1])) {
      return false;
    }
  }
  return true;
}

StorageSize CooMatrix::storage(DataType dt) const {
  const std::int64_t n = nnz();
  return {n * bits_of(dt), n * (bits_for(static_cast<std::uint64_t>(rows_)) +
                                bits_for(static_cast<std::uint64_t>(cols_)))};
}

}  // namespace mt
