// Run-Length Coding (RLC) over the row-major linearization of a matrix.
//
// Each entry is (zero_run, value): `zero_run` zeros followed by one stored
// element. The run counter is a short fixed-width field (kRlcRunBits,
// Eyeriss-style); runs longer than the counter maximum are carried by
// escape entries whose stored element is an explicit zero, so an escape
// consumes (max_run + 1) zeros of the stream. Trailing zeros are implicit:
// the decoder knows rows*cols. This is the MCF that wins the paper's
// middle density band (Fig. 4a) and Table III picks it for speech/nd3k.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "formats/dense.hpp"
#include "formats/storage.hpp"

namespace mt {

struct RlcEntry {
  std::uint32_t zero_run = 0;  // < (1 << run_bits)
  value_t value = 0.0f;        // 0.0 for escape entries

  bool operator==(const RlcEntry&) const = default;
};

class RlcMatrix {
 public:
  RlcMatrix() = default;

  static RlcMatrix from_dense(const DenseMatrix& d, int run_bits = kRlcRunBits);
  // Adopts an encoded entry stream; validates run widths and that the
  // stream fits in rows*cols.
  static RlcMatrix from_parts(index_t rows, index_t cols, int run_bits,
                              std::vector<RlcEntry> entries);

  DenseMatrix to_dense() const;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  int run_bits() const { return run_bits_; }
  std::uint32_t max_run() const { return (1u << run_bits_) - 1u; }

  // Stored entries including escapes (what storage is charged for).
  const std::vector<RlcEntry>& entries() const { return entries_; }

  // True nonzero count (escape entries excluded).
  std::int64_t nnz() const;

  StorageSize storage(DataType dt) const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  int run_bits_ = kRlcRunBits;
  std::vector<RlcEntry> entries_;
};

}  // namespace mt
