#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "common/prng.hpp"
#include "convert/convert.hpp"
#include "exec/exec.hpp"
#include "workloads/registry.hpp"
#include "workloads/synth.hpp"

namespace pb {

using mt::DenseMatrix;
using mt::Format;
using mt::runtime::ServerOptions;

namespace {

constexpr std::size_t kDraws = 4000;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<mt::value_t> random_vec(index_t n, std::uint64_t seed) {
  mt::Prng rng(seed);
  std::vector<mt::value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_value();
  return v;
}

DenseMatrix random_dense(index_t r, index_t c, std::uint64_t seed) {
  return mt::synth_coo_matrix(r, c, r * c, seed).to_dense();
}

AnyMatrix sparse(index_t m, index_t k, double density, Format mcf,
                 std::uint64_t seed) {
  const auto nnz = std::max<std::int64_t>(
      1, std::llround(density * static_cast<double>(m) * static_cast<double>(k)));
  return mt::convert(AnyMatrix(mt::synth_coo_matrix(m, k, nnz, seed)), mcf);
}

mt::exec::JobOutput reference(const Kernel k, const AnyMatrix* a,
                              const AnyMatrix* b, const AnyTensor* x,
                              const Request& r) {
  switch (k) {
    case Kernel::kSpMV: return mt::exec::spmv(*a, r.vec);
    case Kernel::kGemm:
    case Kernel::kSpMM: return mt::exec::spmm(*a, r.dense_b);
    case Kernel::kSpGEMM: return mt::exec::spgemm(*a, *b);
    case Kernel::kSpTTM: return mt::exec::ttm(*x, r.dense_b);
    case Kernel::kMTTKRP: return mt::exec::mttkrp(*x, r.dense_b, r.dense_c);
  }
  throw std::logic_error("unknown kernel");
}

Request body_of(const RequestSpec& s) {
  Request r;
  r.kernel = s.kernel;
  r.vec = s.vec;
  r.dense_b = s.dense_b;
  r.dense_c = s.dense_c;
  return r;
}

RequestSpec spmv_spec(int a, index_t cols, std::uint64_t seed, double w) {
  RequestSpec s;
  s.kernel = Kernel::kSpMV;
  s.a = a;
  s.vec = random_vec(cols, seed);
  s.weight = w;
  return s;
}

RequestSpec spmm_spec(Kernel k, int a, index_t rows_b, index_t n,
                      std::uint64_t seed, double w) {
  RequestSpec s;
  s.kernel = k;
  s.a = a;
  s.dense_b = random_dense(rows_b, n, seed);
  s.weight = w;
  return s;
}

// A new operand's arrival: SpMV, SpMM (n = 8), SpMV with another vector.
ColdOperand cold_operand(AnyMatrix src, std::uint64_t seed) {
  ColdOperand c;
  const index_t cols = mt::cols_of(src);
  const RequestSpec specs[] = {spmv_spec(0, cols, mix(seed, 1), 1),
                               spmm_spec(Kernel::kSpMM, 0, cols, 8, mix(seed, 2), 1),
                               spmv_spec(0, cols, mix(seed, 3), 1)};
  for (const auto& s : specs) {
    Request r = body_of(s);
    c.expects.push_back(expect_of(reference(s.kernel, &src, nullptr, nullptr, r),
                                  /*keep_values=*/true));
    c.requests.push_back(std::move(r));
  }
  c.source = std::move(src);
  return c;
}

// --- kernel_mix ---
//
// All six kernels over resident Table III operands (journal .. m3plates,
// the shapes whose SAGE choices span Dense, CSR and COO) in varied MCFs,
// plus a scaled-down Crime-like (FROSTT) tensor. Weights keep every
// kernel under half of the kernel time.
void build_kernel_mix(Workload& w) {
  const std::uint64_t seed = w.seed;
  const char* names[] = {"journal", "dendrimer", "cavity14",
                         "model3",  "cat_ears",  "m3plates"};
  // Small operands may arrive in any MCF; large ones avoid the formats
  // whose conversion materializes a dense intermediate.
  const Format small_mcfs[] = {Format::kCSR, Format::kCOO, Format::kZVC,
                               Format::kCSC, Format::kRLC, Format::kDense};
  const Format large_mcfs[] = {Format::kCSR, Format::kCOO, Format::kCSC,
                               Format::kRLC};
  for (int i = 0; i < 6; ++i) {
    const auto& mw = mt::matrix_workload(names[i]);
    const auto coo = mt::synth_coo_matrix(mw, mix(seed, 10 + static_cast<std::uint64_t>(i)));
    const Format mcf = i < 2 ? small_mcfs[i] : large_mcfs[i % 4];
    w.mats.push_back(mt::convert(AnyMatrix(coo), mcf));
    w.specs.push_back(spmv_spec(i, mw.k, mix(seed, 20 + static_cast<std::uint64_t>(i)), 4.0));
    w.specs.push_back(spmm_spec(Kernel::kSpMM, i, mw.k, 16,
                                mix(seed, 30 + static_cast<std::uint64_t>(i)), 2.0));
  }
  // GEMM on dense copies of the two small operands; SpGEMM on journal
  // (dendrimer's product costs tens of milliseconds and would own the
  // tail of every other request).
  for (int i = 0; i < 2; ++i) {
    const int dense = static_cast<int>(w.mats.size());
    w.mats.push_back(mt::convert(w.mats[static_cast<std::size_t>(i)], Format::kDense));
    const index_t k = mt::cols_of(w.mats.back());
    w.specs.push_back(spmm_spec(Kernel::kGemm, dense, k, 16,
                                mix(seed, 40 + static_cast<std::uint64_t>(i)), 1.0));
  }
  {
    RequestSpec s;
    s.kernel = Kernel::kSpGEMM;
    s.a = 0;
    s.b = 0;
    s.weight = 0.5;
    w.specs.push_back(std::move(s));
  }
  // Crime (6200 x 24 x 2500, FROSTT) scaled to 620 x 24 x 250.
  const auto tcoo = mt::synth_coo_tensor(620, 24, 250, 50'000, mix(seed, 50));
  w.tensors.push_back(mt::convert(AnyTensor(tcoo), Format::kCSF));
  {
    RequestSpec s;
    s.kernel = Kernel::kSpTTM;
    s.x = 0;
    s.dense_b = random_dense(250, 8, mix(seed, 51));
    s.weight = 0.5;
    w.specs.push_back(std::move(s));
    RequestSpec m;
    m.kernel = Kernel::kMTTKRP;
    m.x = 0;
    m.dense_b = random_dense(24, 8, mix(seed, 52));
    m.dense_c = random_dense(250, 8, mix(seed, 53));
    m.weight = 0.5;
    w.specs.push_back(std::move(m));
  }
  // Cold probes: journal-shaped operands, new each time.
  const auto& jw = mt::matrix_workload("journal");
  for (int i = 0; i < 16; ++i) {
    w.cold.push_back(cold_operand(
        sparse(jw.m, jw.k, jw.density(), large_mcfs[static_cast<std::size_t>(i) % 4],
               mix(seed, 60 + static_cast<std::uint64_t>(i))),
        mix(seed, 80 + static_cast<std::uint64_t>(i))));
  }
}

// --- spmv_stream ---
//
// Small-operand SpMV/SpMM (n = 256) on four resident operands: per-request
// kernel work is a few microseconds, so the serving path itself dominates.
void build_spmv_stream(Workload& w) {
  const std::uint64_t seed = w.seed;
  const double densities[] = {0.02, 0.05, 0.10, 0.01};
  const Format mcfs[] = {Format::kCSR, Format::kCOO, Format::kCSC,
                         Format::kELL, Format::kDense, Format::kZVC};
  constexpr index_t n = 256;
  for (int i = 0; i < 4; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    w.mats.push_back(sparse(n, n, densities[i], mcfs[u % 6], mix(seed, 10 + u)));
    w.specs.push_back(spmv_spec(i, n, mix(seed, 20 + u), 1.0));
    w.specs.push_back(spmv_spec(i, n, mix(seed, 30 + u), 1.0));
    w.specs.push_back(spmm_spec(Kernel::kSpMM, i, n, 4, mix(seed, 40 + u), 0.5));
  }
  for (int i = 0; i < 16; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    w.cold.push_back(cold_operand(
        sparse(n, n, 0.05, mcfs[u % 6], mix(seed, 60 + u)), mix(seed, 80 + u)));
  }
  w.server.queue_capacity = 256;
}

// --- device_offload ---
//
// The mint backend behind the async DeviceRing with modeled latency and
// kAuto routing: small requests price cheaper on the host, large ones on
// the device, so both paths serve.
void build_device_offload(Workload& w) {
  const std::uint64_t seed = w.seed;
  const Format mcfs[] = {Format::kCSR, Format::kCOO, Format::kCSC};
  const index_t sizes[] = {128, 128, 2048, 2048};
  const double densities[] = {0.05, 0.03, 0.01, 0.005};
  for (int i = 0; i < 4; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    const index_t m = sizes[i];
    w.mats.push_back(sparse(m, m, densities[i], mcfs[u % 3], mix(seed, 10 + u)));
    w.specs.push_back(spmv_spec(i, m, mix(seed, 20 + u), 1.0));
    w.specs.push_back(spmm_spec(Kernel::kSpMM, i, m, 8, mix(seed, 30 + u), 0.5));
  }
  for (int i = 0; i < 16; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    w.cold.push_back(cold_operand(
        sparse(128, 128, 0.05, mcfs[u % 3], mix(seed, 60 + u)),
        mix(seed, 80 + u)));
  }
  auto& o = w.server.backend;
  o.backend = mt::exec::BackendKind::kMint;
  o.policy = mt::runtime::BackendPolicy::kAuto;
  o.async = true;
  o.simulate_latency = true;
  o.ring_workers = 2;
}

WorkloadDef def_for(const std::string& name) {
  WorkloadDef d;
  d.name = name;
  if (name == "kernel_mix") {
    d.window = 4;
    d.ladder_rps = {1000, 1500, 2000, 2250, 2500, 2750, 3000, 3250, 3500, 3750, 4000, 4500};
    d.slo_p99_us = 100'000;
    d.server = "Server: 1 worker, caches on, batch window 8";
  } else if (name == "spmv_stream") {
    d.window = 32;
    d.ladder_rps = {2500, 4000, 6000, 8000, 10'000, 12'000, 14'000, 16'000, 18'000, 20'000, 22'000};
    d.slo_p99_us = 50'000;
    d.server = "Server: 1 worker, queue 256, batch window 8";
  } else if (name == "device_offload") {
    d.window = 32;
    d.ladder_rps = {1500, 3000, 4500, 6000, 7500, 9000, 10'500, 12'000, 13'500, 15'000, 16'500};
    d.slo_p99_us = 50'000;
    d.server = "Server: 1 worker, mint backend, kAuto, async ring (2 ring workers), simulated latency";
  }
  return d;
}

}  // namespace

void Workload::finish_inputs() {
  for (const auto& s : specs) {
    const AnyMatrix* a = s.a >= 0 ? &mats[static_cast<std::size_t>(s.a)] : nullptr;
    const AnyMatrix* b = s.b >= 0 ? &mats[static_cast<std::size_t>(s.b)] : nullptr;
    const AnyTensor* x = s.x >= 0 ? &tensors[static_cast<std::size_t>(s.x)] : nullptr;
    expects.push_back(
        expect_of(reference(s.kernel, a, b, x, body_of(s)), /*keep_values=*/true));
  }
  // The sequence is built from blocks that hold every spec in proportion
  // to its weight (about 100 requests a block), each block shuffled by
  // the seed: any run of a block or more has the same mix, so the seed
  // changes the order of requests, not how heavy the traffic is.
  double total = 0.0;
  for (const auto& s : specs) total += s.weight;
  std::vector<std::uint32_t> block;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto n = std::max<long>(1, std::lround(100.0 * specs[i].weight / total));
    block.insert(block.end(), static_cast<std::size_t>(n),
                 static_cast<std::uint32_t>(i));
  }
  std::mt19937_64 rng(mix(seed, 99));
  draws.clear();
  while (draws.size() < kDraws) {
    std::shuffle(block.begin(), block.end(), rng);
    draws.insert(draws.end(), block.begin(), block.end());
  }
}

std::unique_ptr<Deployment> Workload::deploy() {
  auto d = std::make_unique<Deployment>();
  d->target = make_server(server);
  std::vector<MatrixHandle> mh;
  for (const auto& m : mats) mh.push_back(d->target->register_matrix(m));
  std::vector<mt::runtime::TensorHandle> th;
  for (const auto& t : tensors) th.push_back(d->target->register_tensor(t));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& s = specs[i];
    Template t;
    t.req = body_of(s);
    if (s.a >= 0) t.req.a = mh[static_cast<std::size_t>(s.a)];
    if (s.b >= 0) t.req.b = mh[static_cast<std::size_t>(s.b)];
    if (s.x >= 0) t.req.x = th[static_cast<std::size_t>(s.x)];
    t.expect = expects[i];
    d->templates.push_back(std::move(t));
  }
  d->draws = draws;
  d->cold = &cold;
  // Warm-up: every distinct request once, so plans and conversions are
  // cached before anything is timed; its outputs are checked in full.
  for (const auto& t : d->templates) {
    mt::exec::Dispatch disp;
    try {
      auto resp = d->target->submit(t.req).get();
      if (!response_ok(t.expect, resp, true)) d->warm_failed += 1;
      disp = resp.stats.dispatch;
    } catch (...) {
      d->warm_failed += 1;
    }
    d->warm_dispatch.push_back(disp);
  }
  return d;
}

std::unique_ptr<Target> make_router_target(const ServerOptions& server) {
  mt::runtime::ShardedServerOptions o;
  o.num_shards = kRouterShards;
  o.shard = server;
  o.shard.num_workers = 1;
  o.shard.caches.plan_limits.max_entries = kRouterCacheEntries;
  o.shard.caches.conversion_limits.max_entries = kRouterCacheEntries;
  return make_sharded(o);
}

std::vector<std::string> workload_names() {
  return {"kernel_mix", "spmv_stream", "device_offload"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->seed = seed;
  w->server.num_workers = kServingThreads;
  w->def = def_for(name);
  if (name == "kernel_mix") {
    build_kernel_mix(*w);
  } else if (name == "spmv_stream") {
    build_spmv_stream(*w);
  } else if (name == "device_offload") {
    build_device_offload(*w);
  } else {
    return nullptr;
  }
  w->finish_inputs();
  return w;
}

}  // namespace pb
