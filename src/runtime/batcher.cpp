#include "runtime/batcher.hpp"

#include <unordered_map>

namespace mt::runtime {

namespace {

// Fusion identity of one batchable request. Two requests fuse only if the
// whole key matches: same kernel and operand (same plan-cache entry), the
// same payload shape (so stacking/concatenation is well-formed and a
// malformed request fails alone with its own error, never poisoning a
// batch), and the same execution backend (so a fused group launches on
// exactly the substrate every member's plan was priced for).
struct FuseKey {
  Kernel kernel = Kernel::kSpMV;
  std::uint64_t a = 0;
  index_t rows = 0;
  index_t width = 0;
  exec::BackendKind backend = exec::BackendKind::kCpu;

  bool operator==(const FuseKey&) const = default;
};

struct FuseKeyHash {
  std::size_t operator()(const FuseKey& k) const {
    std::size_t h = static_cast<std::size_t>(k.kernel);
    h = h * 0x9e3779b97f4a7c15ull + k.a;
    h = h * 0x9e3779b97f4a7c15ull + static_cast<std::size_t>(k.rows);
    h = h * 0x9e3779b97f4a7c15ull + static_cast<std::size_t>(k.width);
    h = h * 0x9e3779b97f4a7c15ull + static_cast<std::size_t>(k.backend);
    return h;
  }
};

}  // namespace

bool coalescible_spmv_format(Format acf) {
  // A format is coalescible when its SpMM twin's per-column accumulation
  // order is independent of the factor width, so a request's bits are the
  // same whether it executes alone or inside any stacked batch. The
  // server leans on this by serving *every* SpMV on such a plan through
  // the twin (singles as a width-1 stack): batched == unbatched bitwise
  // holds by construction, in the scalar and SIMD tiers alike.
  // CSR: spmm_csr_dense accumulates each (row, column) cell from +0 over
  // the row's nonzeros in index order, one fused multiply-add per
  // nonzero, in its 32/16/8-wide tiles, masked tail lanes and the 4-row
  // groups it uses up to width 8 alike — width only changes which path
  // and which addresses, never a cell's bits (tests/test_simd.cpp checks
  // each column of widths 1..40 against width 1). COO: the twin
  // uses the same fixed row-aligned nnz partition (serial sweep when
  // unsorted) and mul+add per cell, which also matches spmv_coo exactly.
  // CSC is excluded: routing it through spmm_csc_dense would change
  // today's served bits (spmv_csc reduces over 512-column chunks, the
  // twin over max(256, k/8)). Dense is excluded: gemm() skips zero
  // entries of A while spmv_dense accumulates them, which diverges on
  // non-finite inputs. ELL/BSR have no native SpMM kernel at all.
  return acf == Format::kCSR || acf == Format::kCOO;
}

std::vector<BatchGroup> form_batches(const std::vector<BatchItem>& items) {
  std::vector<BatchGroup> groups;
  groups.reserve(items.size());
  // Fusion key -> group still accepting members.
  std::unordered_map<FuseKey, std::size_t, FuseKeyHash> open;
  // Operand id -> index of the last group touching it. A request may only
  // join a group that is the *latest* toucher of every operand it names;
  // otherwise joining would hoist it over an intervening request on the
  // same handle and break per-handle FIFO completion order.
  std::unordered_map<std::uint64_t, std::size_t> last_touch;

  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& it = items[i];
    const std::uint64_t handles[] = {it.a, it.b, it.x};
    if (it.fusible) {
      const FuseKey key{it.kernel, it.a, it.rows, it.width, it.backend};
      const auto og = open.find(key);
      if (og != open.end()) {
        bool fifo_safe = true;
        for (const auto h : handles) {
          if (h == 0) continue;
          const auto lt = last_touch.find(h);
          fifo_safe = fifo_safe && lt != last_touch.end() &&
                      lt->second == og->second;
        }
        if (fifo_safe) {
          groups[og->second].members.push_back(i);
          continue;  // last_touch already points at this group
        }
      }
    }
    const std::size_t g = groups.size();
    groups.push_back({{i}, it.fusible});
    if (it.fusible) {
      open[FuseKey{it.kernel, it.a, it.rows, it.width, it.backend}] = g;
    }
    for (const auto h : handles) {
      if (h != 0) last_touch[h] = g;
    }
  }
  return groups;
}

}  // namespace mt::runtime
