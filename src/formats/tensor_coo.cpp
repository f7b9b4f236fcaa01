#include "formats/tensor_coo.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace mt {

CooTensor3 CooTensor3::from_entries(index_t x, index_t y, index_t z,
                                    std::vector<index_t> xs,
                                    std::vector<index_t> ys,
                                    std::vector<index_t> zs,
                                    std::vector<value_t> values) {
  MT_REQUIRE(x >= 0 && y >= 0 && z >= 0, "non-negative dimensions");
  MT_REQUIRE(xs.size() == ys.size() && ys.size() == zs.size() &&
                 zs.size() == values.size(),
             "parallel arrays must have equal length");
  const auto key = [&](std::size_t i) { return std::tie(xs[i], ys[i], zs[i]); };
  // Validate before any reordering; strictly lexicographic input (every
  // CSF expansion and ordered generator) is kept as is, without a sort.
  bool sorted = true;
  for (std::size_t i = 0; i < values.size(); ++i) {
    MT_REQUIRE(xs[i] >= 0 && xs[i] < x && ys[i] >= 0 && ys[i] < y &&
                   zs[i] >= 0 && zs[i] < z,
               "tensor COO coordinate out of range");
    sorted = sorted && (i == 0 || key(i - 1) < key(i));
  }
  CooTensor3 t;
  t.x_ = x;
  t.y_ = y;
  t.z_ = z;
  if (sorted) {
    t.xi_ = std::move(xs);
    t.yi_ = std::move(ys);
    t.zi_ = std::move(zs);
    t.val_ = std::move(values);
    return t;
  }
  std::vector<std::size_t> p(values.size());
  std::iota(p.begin(), p.end(), 0);
  std::sort(p.begin(), p.end(),
            [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  t.xi_.reserve(p.size());
  t.yi_.reserve(p.size());
  t.zi_.reserve(p.size());
  t.val_.reserve(p.size());
  for (std::size_t i : p) {
    t.xi_.push_back(xs[i]);
    t.yi_.push_back(ys[i]);
    t.zi_.push_back(zs[i]);
    t.val_.push_back(values[i]);
  }
  for (std::size_t i = 1; i < t.val_.size(); ++i) {
    MT_REQUIRE(std::tie(t.xi_[i], t.yi_[i], t.zi_[i]) !=
                   std::tie(t.xi_[i - 1], t.yi_[i - 1], t.zi_[i - 1]),
               "duplicate tensor COO coordinate");
  }
  return t;
}

CooTensor3 CooTensor3::from_dense(const DenseTensor3& d) {
  CooTensor3 t;
  t.x_ = d.dim_x();
  t.y_ = d.dim_y();
  t.z_ = d.dim_z();
  for (index_t ix = 0; ix < d.dim_x(); ++ix) {
    for (index_t iy = 0; iy < d.dim_y(); ++iy) {
      for (index_t iz = 0; iz < d.dim_z(); ++iz) {
        const value_t v = d.at(ix, iy, iz);
        if (v != 0.0f) {
          t.xi_.push_back(ix);
          t.yi_.push_back(iy);
          t.zi_.push_back(iz);
          t.val_.push_back(v);
        }
      }
    }
  }
  return t;
}

DenseTensor3 CooTensor3::to_dense() const {
  DenseTensor3 d(x_, y_, z_);
  for (std::size_t i = 0; i < val_.size(); ++i) {
    d.set(xi_[i], yi_[i], zi_[i], val_[i]);
  }
  return d;
}

StorageSize CooTensor3::storage(DataType dt) const {
  const std::int64_t n = nnz();
  return {n * bits_of(dt), n * (bits_for(static_cast<std::uint64_t>(x_)) +
                                bits_for(static_cast<std::uint64_t>(y_)) +
                                bits_for(static_cast<std::uint64_t>(z_)))};
}

}  // namespace mt
