#include "formats/rlc.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mt {

RlcMatrix RlcMatrix::from_dense(const DenseMatrix& d, int run_bits) {
  MT_REQUIRE(run_bits >= 1 && run_bits <= 16, "run counter width 1..16 bits");
  RlcMatrix m;
  m.rows_ = d.rows();
  m.cols_ = d.cols();
  m.run_bits_ = run_bits;
  const std::uint32_t max_run = m.max_run();
  std::uint32_t zeros = 0;
  for (value_t x : d.values()) {
    if (x == 0.0f) {
      ++zeros;
      continue;
    }
    // An escape entry encodes max_run zeros plus one explicit zero value,
    // consuming max_run + 1 zeros of the stream.
    while (zeros > max_run) {
      m.entries_.push_back({max_run, 0.0f});
      zeros -= max_run + 1;
    }
    m.entries_.push_back({zeros, x});
    zeros = 0;
  }
  // Trailing zeros are implicit: the decoder knows rows*cols.
  return m;
}

RlcMatrix RlcMatrix::from_parts(index_t rows, index_t cols, int run_bits,
                                std::vector<RlcEntry> entries) {
  MT_REQUIRE(rows >= 0 && cols >= 0, "non-negative dimensions");
  MT_REQUIRE(run_bits >= 1 && run_bits <= 16, "run counter width 1..16 bits");
  RlcMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.run_bits_ = run_bits;
  std::int64_t pos = 0;
  for (const RlcEntry& e : entries) {
    MT_REQUIRE(e.zero_run <= m.max_run(), "zero run exceeds the run counter");
    pos += static_cast<std::int64_t>(e.zero_run) + 1;
  }
  MT_REQUIRE(pos <= rows * cols, "RLC stream exceeds matrix size");
  m.entries_ = std::move(entries);
  return m;
}

DenseMatrix RlcMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  index_t pos = 0;
  const index_t total = rows_ * cols_;
  for (const RlcEntry& e : entries_) {
    pos += e.zero_run;
    MT_ENSURE(pos < total, "RLC stream exceeds matrix size");
    d.values()[static_cast<std::size_t>(pos)] = e.value;
    ++pos;
  }
  return d;
}

std::int64_t RlcMatrix::nnz() const {
  return std::count_if(entries_.begin(), entries_.end(),
                       [](const RlcEntry& e) { return e.value != 0.0f; });
}

StorageSize RlcMatrix::storage(DataType dt) const {
  const auto n = static_cast<std::int64_t>(entries_.size());
  return {n * bits_of(dt), n * run_bits_};
}

}  // namespace mt
