// Compressed Sparse Column (CSC) matrix format.
//
// The column-major dual of CSR. CSC(B) is the natural stationary ACF for a
// weight-stationary accelerator (each PE holds one compressed column of B,
// paper Fig. 6b), and CSR<->CSC conversion is the paper's canonical MINT
// use case (weight transposition during backpropagation).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "formats/coo.hpp"
#include "formats/dense.hpp"
#include "formats/storage.hpp"

namespace mt {

class CscMatrix {
 public:
  CscMatrix() = default;

  static CscMatrix from_parts(index_t rows, index_t cols,
                              std::vector<index_t> col_ptr,
                              std::vector<index_t> row_ids,
                              std::vector<value_t> values);
  static CscMatrix from_dense(const DenseMatrix& d);
  static CscMatrix from_coo(const CooMatrix& c);  // scatters column-major

  DenseMatrix to_dense() const;
  CooMatrix to_coo() const;  // returned row-major sorted

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(val_.size()); }

  const std::vector<index_t>& col_ptr() const { return col_ptr_; }
  const std::vector<index_t>& row_ids() const { return row_; }
  const std::vector<value_t>& values() const { return val_; }

  index_t col_nnz(index_t c) const { return col_ptr_[c + 1] - col_ptr_[c]; }

  StorageSize storage(DataType dt) const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> col_ptr_;  // cols + 1
  std::vector<index_t> row_;      // nnz, ascending within each column
  std::vector<value_t> val_;      // nnz
};

}  // namespace mt
