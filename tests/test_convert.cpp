// Direct converters vs encode-from-dense oracles, plus the generic
// any->any conversion layer (property: decode is invariant under convert).
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "convert/convert.hpp"
#include "testing.hpp"

namespace mt {
namespace {

using testing::random_dense;
using testing::random_tensor;

class DirectConverters
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, double>> {
 protected:
  DenseMatrix dense() const {
    const auto [m, k, d] = GetParam();
    return random_dense(m, k, d, 0xC0FFEE);
  }
};

TEST_P(DirectConverters, CsrToCscMatchesOracle) {
  const auto d = dense();
  const auto got = csr_to_csc(CsrMatrix::from_dense(d));
  const auto want = CscMatrix::from_dense(d);
  EXPECT_EQ(got.col_ptr(), want.col_ptr());
  EXPECT_EQ(got.row_ids(), want.row_ids());
  EXPECT_EQ(got.values(), want.values());
}

TEST_P(DirectConverters, CscToCsrMatchesOracle) {
  const auto d = dense();
  const auto got = csc_to_csr(CscMatrix::from_dense(d));
  const auto want = CsrMatrix::from_dense(d);
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_ids(), want.col_ids());
  EXPECT_EQ(got.values(), want.values());
}

TEST_P(DirectConverters, CsrCscInvolution) {
  const auto d = dense();
  const auto csr = CsrMatrix::from_dense(d);
  const auto back = csc_to_csr(csr_to_csc(csr));
  EXPECT_EQ(back.row_ptr(), csr.row_ptr());
  EXPECT_EQ(back.col_ids(), csr.col_ids());
  EXPECT_EQ(back.values(), csr.values());
}

TEST_P(DirectConverters, RlcToCooMatchesOracle) {
  const auto d = dense();
  const auto got = rlc_to_coo(RlcMatrix::from_dense(d));
  const auto want = CooMatrix::from_dense(d);
  EXPECT_EQ(got.row_ids(), want.row_ids());
  EXPECT_EQ(got.col_ids(), want.col_ids());
  EXPECT_EQ(got.values(), want.values());
}

TEST_P(DirectConverters, CsrToBsrMatchesOracle) {
  const auto d = dense();
  const auto got = csr_to_bsr(CsrMatrix::from_dense(d), 2, 2);
  const auto want = BsrMatrix::from_dense(d, 2, 2);
  EXPECT_EQ(got.block_row_ptr(), want.block_row_ptr());
  EXPECT_EQ(got.block_col_ids(), want.block_col_ids());
  EXPECT_EQ(got.block_values(), want.block_values());
}

TEST_P(DirectConverters, CsrToBsrOddBlocksRoundTrip) {
  const auto d = dense();
  const auto bsr = csr_to_bsr(CsrMatrix::from_dense(d), 3, 5);
  EXPECT_EQ(max_abs_diff(bsr.to_dense(), d), 0.0);
  const auto back = bsr_to_csr(bsr);
  EXPECT_EQ(max_abs_diff(back.to_dense(), d), 0.0);
}

TEST_P(DirectConverters, DenseZvcRoundTrip) {
  const auto d = dense();
  EXPECT_EQ(max_abs_diff(zvc_to_dense(dense_to_zvc(d)), d), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DirectConverters,
    ::testing::Values(std::tuple<index_t, index_t, double>{4, 4, 0.4},
                      std::tuple<index_t, index_t, double>{16, 16, 0.0},
                      std::tuple<index_t, index_t, double>{16, 16, 1.0},
                      std::tuple<index_t, index_t, double>{33, 17, 0.07},
                      std::tuple<index_t, index_t, double>{17, 33, 0.5},
                      std::tuple<index_t, index_t, double>{64, 64, 0.02},
                      std::tuple<index_t, index_t, double>{1, 100, 0.1},
                      std::tuple<index_t, index_t, double>{100, 1, 0.1}));

// bsr_to_csr builds CSR row by row; it must equal the sorting
// construction: every stored nonzero, in block order, through
// CooMatrix::from_entries.
CsrMatrix bsr_to_csr_by_sort(const BsrMatrix& a) {
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  for (index_t gr = 0; gr < a.block_grid_rows(); ++gr) {
    for (index_t b = a.block_row_ptr()[gr]; b < a.block_row_ptr()[gr + 1];
         ++b) {
      for (index_t br = 0; br < a.block_rows(); ++br) {
        for (index_t bc = 0; bc < a.block_cols(); ++bc) {
          const value_t x = a.block_values()[static_cast<std::size_t>(
              (b * a.block_rows() + br) * a.block_cols() + bc)];
          if (x == 0.0f) continue;
          rows.push_back(gr * a.block_rows() + br);
          cols.push_back(a.block_col_ids()[b] * a.block_cols() + bc);
          vals.push_back(x);
        }
      }
    }
  }
  return CsrMatrix::from_coo(CooMatrix::from_entries(
      a.rows(), a.cols(), std::move(rows), std::move(cols), std::move(vals)));
}

void expect_same_csr(const CsrMatrix& got, const CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_ids(), want.col_ids());
  EXPECT_EQ(got.values(), want.values());
}

TEST(BsrToCsr, MatchesSortingConstruction) {
  // Block shapes that do not divide the dimensions, rows spanning many
  // blocks, empty block rows (density 0.02) and full ones (1.0).
  const std::tuple<index_t, index_t, index_t, index_t, double> cases[] = {
      {7, 11, 2, 3, 0.4}, {33, 17, 4, 4, 0.3}, {17, 33, 3, 5, 1.0},
      {64, 64, 4, 4, 0.02}, {5, 100, 2, 7, 0.2}, {100, 5, 8, 2, 0.2},
      {1, 1, 4, 4, 1.0}, {9, 9, 1, 1, 0.5}};
  for (const auto& [m, k, br, bc, density] : cases) {
    const auto bsr =
        BsrMatrix::from_dense(random_dense(m, k, density, 0xB5), br, bc);
    SCOPED_TRACE(::testing::Message() << m << "x" << k << " blocks " << br
                                      << "x" << bc);
    expect_same_csr(bsr_to_csr(bsr), bsr_to_csr_by_sort(bsr));
  }
}

TEST(BsrToCsr, StoredZeroBlocksAndBoundaryPadding) {
  // 5x7 in 2x3 blocks (grid 3x3). Block row 0 stores an all-zero block
  // at column 0 and a boundary block at column 2 (matrix column 6, then
  // two padding columns); block row 1 is empty; block row 2 holds only
  // row 4 (its second row is padding) in two blocks.
  std::vector<value_t> vals(4 * 6, 0.0f);
  vals[6 + 0] = 1.0f;   // (0, 6)
  vals[6 + 3] = -2.0f;  // (1, 6)
  vals[12 + 1] = 3.0f;  // (4, 1)
  vals[18 + 0] = 4.0f;  // (4, 6)
  vals[18 + 1] = -0.0f; // (4, 7) would be padding: a zero is dropped
  const auto bsr = BsrMatrix::from_parts(5, 7, 2, 3, {0, 2, 2, 4},
                                         {0, 2, 0, 2}, std::move(vals));
  const auto got = bsr_to_csr(bsr);
  expect_same_csr(got, bsr_to_csr_by_sort(bsr));
  EXPECT_EQ(got.row_ptr(), (std::vector<index_t>{0, 1, 2, 2, 2, 4}));
  EXPECT_EQ(got.col_ids(), (std::vector<index_t>{6, 6, 1, 6}));
}

TEST(BsrToCsr, NonzeroPaddingIsRejected) {
  // 3x3 in 2x2 blocks: block (1,1) covers (2,2) and three padding cells.
  std::vector<value_t> vals(4, 0.0f);
  vals[1] = 5.0f;  // (2, 3): outside the matrix
  const auto bsr =
      BsrMatrix::from_parts(3, 3, 2, 2, {0, 0, 1}, {1}, std::move(vals));
  EXPECT_THROW(bsr_to_csr(bsr), std::invalid_argument);
}

TEST(DirectConverters, RlcWithEscapesToCoo) {
  DenseMatrix d(3, 40);
  d.set(0, 0, 1.f);
  d.set(2, 39, 2.f);  // long run of zeros in between forces escapes
  const auto got = rlc_to_coo(RlcMatrix::from_dense(d, 3));
  EXPECT_EQ(got.nnz(), 2);
  EXPECT_EQ(max_abs_diff(got.to_dense(), d), 0.0);
}

// coo_to_rlc encodes from the sorted COO directly; it must be bit-equal
// to the dense encoder run on the same matrix.
void expect_rlc_matches_dense_encoder(const CooMatrix& c, int run_bits) {
  const auto got = coo_to_rlc(c, run_bits);
  const auto want = RlcMatrix::from_dense(c.to_dense(), run_bits);
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.run_bits(), want.run_bits());
  EXPECT_EQ(got.entries(), want.entries())
      << c.rows() << "x" << c.cols() << " run_bits " << run_bits;
}

TEST(DirectConverters, CooToRlcMatchesDenseEncoder) {
  for (int run_bits : {1, 2, 3, kRlcRunBits, 16}) {
    for (double d : {0.0, 0.01, 0.1, 0.5, 1.0}) {
      expect_rlc_matches_dense_encoder(
          CooMatrix::from_dense(random_dense(23, 41, d, 0x51C)), run_bits);
    }
    expect_rlc_matches_dense_encoder(CooMatrix::from_dense(DenseMatrix(0, 0)),
                                     run_bits);
    expect_rlc_matches_dense_encoder(CooMatrix::from_dense(DenseMatrix(4, 0)),
                                     run_bits);
    // Explicitly stored zeros (positive and negative) fold into the runs;
    // the gaps between nonzeros are longer than max_run at small widths.
    const auto explicit_zeros = CooMatrix::from_entries(
        7, 300, {0, 0, 2, 4, 6, 6}, {0, 5, 299, 100, 0, 299},
        {0.f, 1.5f, -0.f, 2.f, 0.f, 3.f});
    expect_rlc_matches_dense_encoder(explicit_zeros, run_bits);
    // A gap over 2^16 zeros: an escape even at 16-bit runs.
    expect_rlc_matches_dense_encoder(
        CooMatrix::from_entries(300, 400, {0, 299}, {1, 398}, {1.f, 2.f}),
        run_bits);
  }
}

TEST(DirectConverters, DenseToCsfMatchesFromCoo) {
  const auto t = random_tensor(9, 7, 11, 0.08, 1234);
  const auto a = dense_to_csf(t);
  const auto b = CsfTensor3::from_coo(CooTensor3::from_dense(t));
  EXPECT_EQ(a.x_ids(), b.x_ids());
  EXPECT_EQ(a.y_ptr(), b.y_ptr());
  EXPECT_EQ(a.y_ids(), b.y_ids());
  EXPECT_EQ(a.z_ptr(), b.z_ptr());
  EXPECT_EQ(a.z_ids(), b.z_ids());
  EXPECT_EQ(a.values(), b.values());
}

// --- Generic layer: every (from, to) pair preserves the dense decode ---

class AnyToAny : public ::testing::TestWithParam<std::tuple<Format, Format>> {};

TEST_P(AnyToAny, ConversionPreservesContents) {
  const auto [from, to] = GetParam();
  const auto d = random_dense(24, 18, 0.15, 31337);
  const AnyMatrix src = encode(d, from);
  const AnyMatrix dst = convert(src, to);
  EXPECT_EQ(format_of(dst), to);
  EXPECT_EQ(max_abs_diff(decode(dst), d), 0.0);
}

TEST_P(AnyToAny, NnzPreservedThroughNonPaddingFormats) {
  const auto [from, to] = GetParam();
  // BSR/DIA/RLC report structural element counts that include fill; skip.
  const auto d = random_dense(24, 18, 0.15, 555);
  const AnyMatrix dst = convert(encode(d, from), to);
  EXPECT_EQ(decode(dst).nnz(), d.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, AnyToAny,
    ::testing::Combine(
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSR,
                          Format::kCSC, Format::kRLC, Format::kZVC,
                          Format::kBSR, Format::kDIA, Format::kELL),
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSR,
                          Format::kCSC, Format::kRLC, Format::kZVC,
                          Format::kBSR, Format::kDIA, Format::kELL)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_to_" +
             std::string(name_of(std::get<1>(info.param)));
    });

class AnyTensorToAny
    : public ::testing::TestWithParam<std::tuple<Format, Format>> {};

TEST_P(AnyTensorToAny, ConversionPreservesContents) {
  const auto [from, to] = GetParam();
  const auto d = random_tensor(10, 8, 12, 0.06, 8844);
  const AnyTensor dst = convert(encode(d, from), to);
  EXPECT_EQ(format_of(dst), to);
  EXPECT_EQ(max_abs_diff(decode(dst), d), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, AnyTensorToAny,
    ::testing::Combine(
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSF,
                          Format::kHiCOO, Format::kZVC, Format::kRLC),
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSF,
                          Format::kHiCOO, Format::kZVC, Format::kRLC)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_to_" +
             std::string(name_of(std::get<1>(info.param)));
    });

TEST(AnyMatrix, MetadataAccessors) {
  const auto d = random_dense(12, 20, 0.2, 99);
  const AnyMatrix m = encode(d, Format::kCSR);
  EXPECT_EQ(rows_of(m), 12);
  EXPECT_EQ(cols_of(m), 20);
  EXPECT_EQ(nnz_of(m), d.nnz());
  EXPECT_EQ(storage_of(m, DataType::kFp32).total_bits(),
            CsrMatrix::from_dense(d).storage(DataType::kFp32).total_bits());
}

TEST(AnyMatrix, EncodeRejectsTensorFormats) {
  EXPECT_THROW(encode(DenseMatrix(2, 2), Format::kCSF), std::invalid_argument);
}

}  // namespace
}  // namespace mt
