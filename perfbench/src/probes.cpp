#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include "common/threads.hpp"
#include "convert/convert.hpp"
#include "exec/exec.hpp"
#include "sage/sage.hpp"

namespace pb {

using mt::DataType;
using mt::Format;

namespace {

constexpr std::int64_t kMaxProbeSamples = 2000;

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Span name of a direct kernel call (spans keep the name pointer).
const char* exec_span_name(Kernel k) {
  switch (k) {
    case Kernel::kSpMV: return "exec.spmv";
    case Kernel::kSpMM: return "exec.spmm";
    case Kernel::kGemm: return "exec.gemm";
    case Kernel::kSpGEMM: return "exec.spgemm";
    case Kernel::kSpTTM: return "exec.spttm";
    case Kernel::kMTTKRP: return "exec.mttkrp";
  }
  return "exec";
}

// Bytes the kernel must move at least once, computed from the format's
// layout (fp32 values, 64-bit indices) — not measured.
double bytes_of(const AnyMatrix& m) {
  const double nnz = static_cast<double>(mt::nnz_of(m));
  const double rows = static_cast<double>(mt::rows_of(m));
  const double cols = static_cast<double>(mt::cols_of(m));
  switch (mt::format_of(m)) {
    case Format::kDense: return 4.0 * rows * cols;
    case Format::kCSR: return 12.0 * nnz + 8.0 * (rows + 1);
    case Format::kCSC: return 12.0 * nnz + 8.0 * (cols + 1);
    case Format::kCOO: return 20.0 * nnz;
    default: return mt::storage_of(m, DataType::kFp32).total_bytes();
  }
}

double bytes_of(const AnyTensor& t) {
  const double nnz = static_cast<double>(mt::nnz_of(t));
  if (mt::format_of(t) == Format::kCOO) return 28.0 * nnz;
  return mt::storage_of(t, DataType::kFp32).total_bytes();
}

double dense_bytes(const mt::DenseMatrix& d) {
  return 4.0 * static_cast<double>(d.rows()) * static_cast<double>(d.cols());
}

// Useful flops of one call: 2 per multiply-add, 3 per MTTKRP nonzero and
// rank (two multiplies and an add).
struct Work {
  double flops = 0.0;
  double bytes = 0.0;
};

Work work_of(const RequestSpec& s, const AnyMatrix* a, const AnyMatrix* b,
             const AnyTensor* x, const mt::exec::JobOutput& out) {
  Work w;
  switch (s.kernel) {
    case Kernel::kSpMV:
      w.flops = 2.0 * static_cast<double>(mt::nnz_of(*a));
      w.bytes = bytes_of(*a) + 4.0 * static_cast<double>(mt::cols_of(*a)) +
                4.0 * static_cast<double>(mt::rows_of(*a));
      break;
    case Kernel::kGemm:
    case Kernel::kSpMM: {
      const double n = static_cast<double>(s.dense_b.cols());
      const double work_nnz =
          mt::format_of(*a) == Format::kDense
              ? static_cast<double>(mt::rows_of(*a)) *
                    static_cast<double>(mt::cols_of(*a))
              : static_cast<double>(mt::nnz_of(*a));
      w.flops = 2.0 * work_nnz * n;
      w.bytes = bytes_of(*a) + dense_bytes(s.dense_b) +
                4.0 * static_cast<double>(mt::rows_of(*a)) * n;
      break;
    }
    case Kernel::kSpGEMM: {
      const auto ca = std::get<mt::CsrMatrix>(mt::convert(*a, Format::kCSR));
      const auto cb = std::get<mt::CsrMatrix>(mt::convert(*b, Format::kCSR));
      double macs = 0.0;
      for (const auto k : ca.col_ids()) {
        const auto ku = static_cast<std::size_t>(k);
        macs += static_cast<double>(cb.row_ptr()[ku + 1] - cb.row_ptr()[ku]);
      }
      const auto& c = std::get<mt::CsrMatrix>(out);
      w.flops = 2.0 * macs;
      w.bytes = bytes_of(*a) + bytes_of(*b) +
                12.0 * static_cast<double>(c.nnz()) +
                8.0 * static_cast<double>(c.rows() + 1);
      break;
    }
    case Kernel::kSpTTM: {
      const auto& y = std::get<mt::DenseTensor3>(out);
      w.flops = 2.0 * static_cast<double>(mt::nnz_of(*x)) *
                static_cast<double>(s.dense_b.cols());
      w.bytes = bytes_of(*x) + dense_bytes(s.dense_b) +
                4.0 * static_cast<double>(y.dim_x()) *
                    static_cast<double>(y.dim_y()) *
                    static_cast<double>(y.dim_z());
      break;
    }
    case Kernel::kMTTKRP: {
      const auto& m = std::get<mt::DenseMatrix>(out);
      w.flops = 3.0 * static_cast<double>(mt::nnz_of(*x)) *
                static_cast<double>(s.dense_b.cols());
      w.bytes = bytes_of(*x) + dense_bytes(s.dense_b) +
                dense_bytes(s.dense_c) + dense_bytes(m);
      break;
    }
  }
  return w;
}

mt::exec::JobOutput run_kernel(const RequestSpec& s, const AnyMatrix* a,
                               const AnyMatrix* b, const AnyTensor* x) {
  switch (s.kernel) {
    case Kernel::kSpMV: return mt::exec::spmv(*a, s.vec);
    case Kernel::kGemm:
    case Kernel::kSpMM: return mt::exec::spmm(*a, s.dense_b);
    case Kernel::kSpGEMM: return mt::exec::spgemm(*a, *b);
    case Kernel::kSpTTM: return mt::exec::ttm(*x, s.dense_b);
    case Kernel::kMTTKRP: return mt::exec::mttkrp(*x, s.dense_b, s.dense_c);
  }
  return {};
}

}  // namespace

void probe_sage_convert(const Workload& w, double budget_s, SpanLog& log,
                        Report& r) {
  std::vector<const AnyMatrix*> ops;
  for (const auto& m : w.mats) ops.push_back(&m);
  std::vector<mt::CooMatrix> coos;
  for (const auto* m : ops) {
    coos.push_back(std::get<mt::CooMatrix>(mt::convert(*m, Format::kCOO)));
  }
  std::vector<mt::CooTensor3> tcoos;
  for (const auto& t : w.tensors) {
    tcoos.push_back(std::get<mt::CooTensor3>(mt::convert(t, Format::kCOO)));
  }
  const auto accel = mt::AccelConfig::paper_default();
  const mt::EnergyParams energy;

  // SAGE: the SpMV-shaped search the server runs for a new operand, plus
  // the tensor search on resident tensors. Cycle until the budget ends.
  std::vector<double> sage_us;
  std::vector<Format> acf(ops.size(), Format::kDense);
  std::set<Format> distinct;
  const auto sage_end = now_ns() + static_cast<std::int64_t>(budget_s * 0.6e9);
  for (int pass = 0;; ++pass) {
    for (std::size_t i = 0; i < coos.size(); ++i) {
      const auto t0 = now_ns();
      const auto choice = mt::sage_select_spmm_dense_b(coos[i], 1, accel, energy);
      const auto t1 = now_ns();
      log.add("sage_select", 0, kNoParent, t0, t1);
      sage_us.push_back(us(t1 - t0));
      if (pass == 0) {
        acf[i] = choice.acf_a;
        distinct.insert(choice.acf_a);
      }
    }
    for (const auto& tc : tcoos) {
      const auto t0 = now_ns();
      const auto choice =
          mt::sage_select_tensor(tc, 8, Kernel::kMTTKRP, accel, energy);
      const auto t1 = now_ns();
      log.add("sage_select", 0, kNoParent, t0, t1);
      sage_us.push_back(us(t1 - t0));
      if (pass == 0) distinct.insert(choice.acf_t);
    }
    if (now_ns() >= sage_end ||
        static_cast<std::int64_t>(sage_us.size()) >= kMaxProbeSamples) {
      break;
    }
  }
  r.add_p50_p99("sage.select_us", sage_us);
  r.add("sage.distinct_acf_count", static_cast<double>(distinct.size()), "count");
  std::vector<std::string> acfs;
  for (const auto f : distinct) acfs.emplace_back(mt::name_of(f));
  r.note("sage.acfs", join(acfs, ","));

  // convert(): each operand's MCF -> chosen ACF, identity pairs skipped
  // (the server shares those without converting).
  std::vector<double> conv_us;
  const auto conv_end = now_ns() + static_cast<std::int64_t>(budget_s * 0.4e9);
  bool any = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    any = any || mt::format_of(*ops[i]) != acf[i];
  }
  while (any && now_ns() < conv_end &&
         static_cast<std::int64_t>(conv_us.size()) < kMaxProbeSamples) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (mt::format_of(*ops[i]) == acf[i]) continue;
      const auto t0 = now_ns();
      const auto out = mt::convert(*ops[i], acf[i]);
      const auto t1 = now_ns();
      log.add("convert", 0, kNoParent, t0, t1);
      conv_us.push_back(us(t1 - t0));
      (void)out;
    }
  }
  if (!any) r.note("convert", "every operand already arrives in its ACF");
  r.add_p50_p99("convert.us", conv_us);
}

void probe_kernels(const Workload& w, const Deployment& d, double budget_s,
                   SpanLog& log, Report& r) {
  struct Acc {
    double flops = 0.0, bytes = 0.0, seconds = 0.0;
  };
  std::map<Kernel, Acc> acc;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const auto& s = w.specs[i];
    const auto& disp = d.warm_dispatch[i];
    // The operands in the ACF the server ran them in.
    std::optional<AnyMatrix> a, b;
    std::optional<AnyTensor> x;
    if (s.a >= 0) a = mt::convert(w.mats[static_cast<std::size_t>(s.a)], disp.ran_a);
    if (s.b >= 0) {
      b = mt::convert(w.mats[static_cast<std::size_t>(s.b)],
                      disp.has_b ? disp.ran_b : disp.ran_a);
    }
    if (s.x >= 0) x = mt::convert(w.tensors[static_cast<std::size_t>(s.x)], disp.ran_a);
    const AnyMatrix* pa = a ? &*a : nullptr;
    const AnyMatrix* pb = b ? &*b : nullptr;
    const AnyTensor* px = x ? &*x : nullptr;
    const auto out = run_kernel(s, pa, pb, px);  // warm caches and pages
    const Work wk = work_of(s, pa, pb, px, out);
    const auto spec_budget = static_cast<std::int64_t>(
        budget_s * 1e9 / static_cast<double>(w.specs.size()));
    const auto end = now_ns() + spec_budget;
    std::vector<double> secs;
    const char* name = exec_span_name(s.kernel);
    while (secs.size() < 3 || (now_ns() < end && secs.size() < 1000)) {
      const auto t0 = now_ns();
      const auto o = run_kernel(s, pa, pb, px);
      const auto t1 = now_ns();
      log.add(name, 0, kNoParent, t0, t1);
      secs.push_back(static_cast<double>(t1 - t0) / 1e9);
      (void)o;
    }
    r.note("spec" + std::to_string(i) + "." + kernel_key(s.kernel) + "_us",
           std::to_string(median(secs) * 1e6));
    auto& k = acc[s.kernel];
    k.flops += wk.flops;
    k.bytes += wk.bytes;
    k.seconds += median(secs);
  }
  for (const auto k : mt::kAllKernels) {
    const std::string base = std::string("kernels.") + kernel_key(k);
    const auto it = acc.find(k);
    if (it == acc.end() || it->second.seconds <= 0.0) {
      r.add(base + ".gflops", 0.0, "GFLOP/s");
      r.add(base + ".gbps_computed", 0.0, "GB/s");
      r.add(base + ".flops_per_byte", 0.0, "flop/B");
      r.note(base, "not served on this workload");
      continue;
    }
    const Acc& a = it->second;
    r.add(base + ".gflops", a.flops / a.seconds / 1e9, "GFLOP/s");
    r.add(base + ".gbps_computed", a.bytes / a.seconds / 1e9, "GB/s");
    r.add(base + ".flops_per_byte", a.flops / a.bytes, "flop/B");
  }
}

long llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return v;
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  long n = std::atol(s.c_str());
  if (s.back() == 'K') n *= 1024;
  if (s.back() == 'M') n *= 1024 * 1024;
  return n;
}

double probe_triad(double budget_s, SpanLog& log, Report& r) {
  // STREAM needs a footprint of at least 4x the last-level cache to read
  // DRAM bandwidth. Past this cap the probe stays at the cap and says the
  // bound is not established.
  constexpr double kCapBytes = 256.0 * 1024 * 1024;
  const double llc = static_cast<double>(llc_bytes());
  const double want = llc > 0 ? 4.0 * llc : kCapBytes;
  const double footprint = std::min(want, kCapBytes);
  const auto n = static_cast<std::int64_t>(footprint / 12.0);
  std::vector<float> a(static_cast<std::size_t>(n)), b(a.size()), c(a.size());
  const int nt = mt::num_threads();
#pragma omp parallel for num_threads(nt) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = 0.0f;
    b[static_cast<std::size_t>(i)] = 1.0f;
    c[static_cast<std::size_t>(i)] = 2.0f;
  }
  std::vector<double> gbps;
  const auto end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  const float scalar = 3.0f;
  while (gbps.size() < 3 || (now_ns() < end && gbps.size() < 50)) {
    const auto t0 = now_ns();
#pragma omp parallel for num_threads(nt) schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      a[u] = b[u] + scalar * c[u];
    }
    const auto t1 = now_ns();
    log.add("triad", 0, kNoParent, t0, t1);
    gbps.push_back(12.0 * static_cast<double>(n) /
                   static_cast<double>(t1 - t0));
  }
  if (a[static_cast<std::size_t>(n / 2)] != 7.0f) {
    r.note("triad.check", "wrong triad result");
  }
  r.add("kernels.stream_triad_gbps", median(gbps), "GB/s");
  r.note("triad.footprint_mib", std::to_string(footprint / (1024.0 * 1024.0)));
  r.note("triad.llc_mib", std::to_string(llc / (1024.0 * 1024.0)));
  r.note("triad.threads", std::to_string(nt));
  if (footprint < want || llc <= 0) {
    r.note("triad.bound",
           "footprint below 4x LLC (memory cap): triad is not a DRAM bound, "
           "so no kernel/bandwidth ratio is reported; flop/B is");
    return 0.0;
  }
  r.note("triad.bound", "footprint >= 4x LLC: DRAM bandwidth bound");
  return median(gbps);
}

}  // namespace pb
