// The benchmark workloads. Each is generated entirely from the run's
// seed; the served system sees only the generated operands and requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace pb {

// Serving workers of every workload's Server. With the single generator
// thread, kernel width 1 (kKernelThreads) and the process pinned to one
// CPU, the benchmark computes on one vCPU at a time. On a shared host
// whose cores are also given to other guests, every further thread that
// runs at the same time is exposed to their load: two compute threads
// there ran a third slower than one, and a 2-worker, 2-client, width-2
// configuration moved its throughput by 3x between runs of the same code.
inline constexpr int kServingThreads = 1;

// Kernel width (mt::set_num_threads) for the whole run.
inline constexpr int kKernelThreads = 1;

// Shards of the router target, 1 worker each.
inline constexpr int kRouterShards = 2;

// Plan- and conversion-cache entries a shard of the router target keeps.
// Small enough that the traced run's pile of live new operands (two or
// three plans and up to one representation each) overflows it.
inline constexpr std::size_t kRouterCacheEntries = 8;

// One distinct request of a workload, naming its operands by index into
// the workload's resident sets.
struct RequestSpec {
  Kernel kernel = Kernel::kSpMV;
  int a = -1, b = -1, x = -1;  // resident matrix / matrix / tensor index
  std::vector<mt::value_t> vec;
  mt::DenseMatrix dense_b, dense_c;
  double weight = 1.0;
};

struct WorkloadDef {
  std::string name;
  int window = 4;  // closed loop: requests in flight per client
  // Fixed open-loop rates, ascending. The first step is the reference
  // rate at which latency_p50_us / latency_p99_us are reported.
  std::vector<double> ladder_rps;
  double slo_p99_us = 0.0;
  int cold_probes = 1000;  // sequential new-operand (first-result) probes
  std::string server;      // one-line description for the fingerprint
};

// A workload's generated inputs and the server it runs against.
struct Workload {
  WorkloadDef def;
  std::uint64_t seed = 0;
  mt::runtime::ServerOptions server;  // the workload's Server
  std::vector<AnyMatrix> mats;        // resident, in their registered MCF
  std::vector<AnyTensor> tensors;
  std::vector<RequestSpec> specs;     // distinct requests on resident operands
  std::vector<ColdOperand> cold;      // new-operand arrivals
  std::vector<Expect> expects;        // per spec, from finish_inputs()
  std::vector<std::uint32_t> draws;   // seeded spec sequence

  // Computes every reference output and the seeded draw sequence.
  void finish_inputs();

  // Server construction, resident-operand registration and warm-up: the
  // work setup_s times.
  std::unique_ptr<Deployment> deploy();
};

// The workload's server options on a ShardedServer of kRouterShards
// shards (1 worker a shard, caches bounded at kRouterCacheEntries): the
// router and cache eviction paths, which the traced run drives with new
// operands.
std::unique_ptr<Target> make_router_target(
    const mt::runtime::ServerOptions& server);

// kernel_mix | spmv_stream | device_offload; null when
// the name is unknown.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

std::vector<std::string> workload_names();

}  // namespace pb
