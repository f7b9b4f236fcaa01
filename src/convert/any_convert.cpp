#include "common/error.hpp"
#include "convert/convert.hpp"

namespace mt {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

// Formats whose encode/decode is O(nnz) via COO, without a dense
// intermediate (RLC counts: Fig. 8d gives it direct COO pipelines).
// ZVC/DIA/ELL encodings are defined over the dense linearization and
// must round-trip through decode() instead.
bool matrix_coo_path(Format f) {
  return f == Format::kCOO || f == Format::kCSR || f == Format::kCSC ||
         f == Format::kRLC || f == Format::kBSR;
}

CooMatrix hub_to_coo(const AnyMatrix& m) {
  if (const auto* coo = std::get_if<CooMatrix>(&m)) return *coo;
  if (const auto* csr = std::get_if<CsrMatrix>(&m)) return csr->to_coo();
  if (const auto* csc = std::get_if<CscMatrix>(&m)) return csc->to_coo();
  if (const auto* rlc = std::get_if<RlcMatrix>(&m)) return rlc_to_coo(*rlc);
  if (const auto* bsr = std::get_if<BsrMatrix>(&m)) {
    return bsr_to_csr(*bsr).to_coo();
  }
  MT_ENSURE(false, "format has no direct COO path");
}

AnyMatrix hub_from_coo(const CooMatrix& c, Format target) {
  switch (target) {
    case Format::kCSR: return CsrMatrix::from_coo(c);
    case Format::kCSC: return CscMatrix::from_coo(c);
    case Format::kRLC: return coo_to_rlc(c);
    case Format::kBSR: return csr_to_bsr(CsrMatrix::from_coo(c));
    default: MT_ENSURE(false, "format has no direct COO path");
  }
}

}  // namespace

Format format_of(const AnyMatrix& m) {
  return std::visit(
      Overloaded{[](const DenseMatrix&) { return Format::kDense; },
                 [](const CooMatrix&) { return Format::kCOO; },
                 [](const CsrMatrix&) { return Format::kCSR; },
                 [](const CscMatrix&) { return Format::kCSC; },
                 [](const RlcMatrix&) { return Format::kRLC; },
                 [](const ZvcMatrix&) { return Format::kZVC; },
                 [](const BsrMatrix&) { return Format::kBSR; },
                 [](const DiaMatrix&) { return Format::kDIA; },
                 [](const EllMatrix&) { return Format::kELL; }},
      m);
}

index_t rows_of(const AnyMatrix& m) {
  return std::visit([](const auto& x) { return x.rows(); }, m);
}

index_t cols_of(const AnyMatrix& m) {
  return std::visit([](const auto& x) { return x.cols(); }, m);
}

std::int64_t nnz_of(const AnyMatrix& m) {
  return std::visit([](const auto& x) { return x.nnz(); }, m);
}

StorageSize storage_of(const AnyMatrix& m, DataType dt) {
  return std::visit([dt](const auto& x) { return x.storage(dt); }, m);
}

AnyMatrix encode(const DenseMatrix& d, Format target) {
  switch (target) {
    case Format::kDense: return d;
    case Format::kCOO: return CooMatrix::from_dense(d);
    case Format::kCSR: return CsrMatrix::from_dense(d);
    case Format::kCSC: return CscMatrix::from_dense(d);
    case Format::kRLC: return RlcMatrix::from_dense(d);
    case Format::kZVC: return ZvcMatrix::from_dense(d);
    case Format::kBSR: return BsrMatrix::from_dense(d);
    case Format::kDIA: return DiaMatrix::from_dense(d);
    case Format::kELL: return EllMatrix::from_dense(d);
    case Format::kCSF:
    case Format::kHiCOO:
      MT_REQUIRE(false, "CSF/HiCOO are tensor formats");
  }
  MT_ENSURE(false, "unhandled format");
}

DenseMatrix decode(const AnyMatrix& m) {
  return std::visit(
      Overloaded{[](const DenseMatrix& x) { return x; },
                 [](const auto& x) { return x.to_dense(); }},
      m);
}

AnyMatrix convert(const AnyMatrix& m, Format target) {
  if (format_of(m) == target) return m;
  // Direct fast paths first (the conversions MINT implements natively).
  if (const auto* csr = std::get_if<CsrMatrix>(&m)) {
    if (target == Format::kCSC) return csr_to_csc(*csr);
    if (target == Format::kBSR) return csr_to_bsr(*csr);
    if (target == Format::kCOO) return csr->to_coo();
  }
  if (const auto* csc = std::get_if<CscMatrix>(&m)) {
    if (target == Format::kCSR) return csc_to_csr(*csc);
    if (target == Format::kCOO) return csc->to_coo();
  }
  if (const auto* rlc = std::get_if<RlcMatrix>(&m)) {
    if (target == Format::kCOO) return rlc_to_coo(*rlc);
  }
  if (const auto* coo = std::get_if<CooMatrix>(&m)) {
    if (target == Format::kCSR) return CsrMatrix::from_coo(*coo);
    if (target == Format::kCSC) return CscMatrix::from_coo(*coo);
  }
  if (const auto* bsr = std::get_if<BsrMatrix>(&m)) {
    if (target == Format::kCSR) return bsr_to_csr(*bsr);
  }
  // COO hub (paper §V-B: "COO enables fast translation to other formats"):
  // compressed->compressed pairs stay O(nnz); only pairs with a
  // dense-coupled side (ZVC/DIA/ELL, defined over the dense linearization)
  // decode to a dense intermediate.
  if (matrix_coo_path(format_of(m)) && matrix_coo_path(target)) {
    // A COO source feeds the hub converters directly — no copy of the
    // operand is ever made (the serving runtime's conversion cache relies
    // on const-ref conversion from shared, read-only representations).
    if (const auto* coo = std::get_if<CooMatrix>(&m)) {
      return hub_from_coo(*coo, target);
    }
    CooMatrix hub = hub_to_coo(m);
    if (target == Format::kCOO) return AnyMatrix(std::move(hub));
    return hub_from_coo(hub, target);
  }
  // The decoded matrix already is the Dense result; encode() would copy it.
  if (target == Format::kDense) return decode(m);
  return encode(decode(m), target);
}

// --- Tensor layer ---

Format format_of(const AnyTensor& t) {
  return std::visit(
      Overloaded{[](const DenseTensor3&) { return Format::kDense; },
                 [](const CooTensor3&) { return Format::kCOO; },
                 [](const CsfTensor3&) { return Format::kCSF; },
                 [](const HicooTensor3&) { return Format::kHiCOO; },
                 [](const ZvcTensor3&) { return Format::kZVC; },
                 [](const RlcTensor3&) { return Format::kRLC; }},
      t);
}

std::int64_t nnz_of(const AnyTensor& t) {
  return std::visit([](const auto& x) { return x.nnz(); }, t);
}

StorageSize storage_of(const AnyTensor& t, DataType dt) {
  return std::visit([dt](const auto& x) { return x.storage(dt); }, t);
}

AnyTensor encode(const DenseTensor3& d, Format target) {
  switch (target) {
    case Format::kDense: return d;
    case Format::kCOO: return CooTensor3::from_dense(d);
    case Format::kCSF: return CsfTensor3::from_dense(d);
    case Format::kHiCOO: return HicooTensor3::from_coo(CooTensor3::from_dense(d));
    case Format::kZVC: return ZvcTensor3::from_dense(d);
    case Format::kRLC: return RlcTensor3::from_dense(d);
    default:
      MT_REQUIRE(false, "matrix-only format for a tensor");
  }
  MT_ENSURE(false, "unhandled format");
}

DenseTensor3 decode(const AnyTensor& t) {
  return std::visit(
      Overloaded{[](const DenseTensor3& x) { return x; },
                 [](const HicooTensor3& x) { return x.to_coo().to_dense(); },
                 [](const auto& x) { return x.to_dense(); }},
      t);
}

AnyTensor convert(const AnyTensor& t, Format target) {
  if (format_of(t) == target) return t;
  if (const auto* coo = std::get_if<CooTensor3>(&t)) {
    if (target == Format::kCSF) return CsfTensor3::from_coo(*coo);
    if (target == Format::kHiCOO) return HicooTensor3::from_coo(*coo);
  }
  if (const auto* csf = std::get_if<CsfTensor3>(&t)) {
    if (target == Format::kCOO) return csf->to_coo();
    if (target == Format::kHiCOO) return HicooTensor3::from_coo(csf->to_coo());
  }
  if (const auto* h = std::get_if<HicooTensor3>(&t)) {
    if (target == Format::kCOO) return h->to_coo();
    if (target == Format::kCSF) return CsfTensor3::from_coo(h->to_coo());
  }
  if (target == Format::kDense) return decode(t);
  return encode(decode(t), target);
}

}  // namespace mt
