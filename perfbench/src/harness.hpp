// The load generator's moving parts, shared by every workload: the served
// system behind one interface, request templates with their expected
// outputs, the benchmark's span log, and the three traffic shapes
// (pipelined closed loop, fixed-rate open-loop ladder, cold-operand
// probe).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "metrics.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"

namespace pb {

using mt::AnyMatrix;
using mt::AnyTensor;
using mt::index_t;
using mt::Kernel;
using mt::runtime::MatrixHandle;
using mt::runtime::Request;
using mt::runtime::Response;

std::int64_t now_ns();

// CPU time consumed by every thread of this process.
std::int64_t process_cpu_ns();

// Lower-case kernel names used in metric names.
inline const char* kernel_key(Kernel k) {
  switch (k) {
    case Kernel::kSpMV: return "spmv";
    case Kernel::kSpMM: return "spmm";
    case Kernel::kGemm: return "gemm";
    case Kernel::kSpGEMM: return "spgemm";
    case Kernel::kSpTTM: return "spttm";
    case Kernel::kMTTKRP: return "mttkrp";
  }
  return "?";
}

// The served system — a Server or a ShardedServer — through the public
// calls the benchmark makes on it.
class Target {
 public:
  virtual ~Target() = default;
  virtual std::future<Response> submit(Request r) = 0;
  virtual MatrixHandle register_matrix(AnyMatrix m) = 0;
  virtual mt::runtime::TensorHandle register_tensor(AnyTensor t) = 0;
  virtual void evict(MatrixHandle h) = 0;
  virtual std::vector<mt::obs::MetricSnapshot> metrics() const = 0;
  virtual int num_shards() const = 0;
  virtual int shard_of(MatrixHandle h) const = 0;
  // The async device ring, or null when the target has none.
  virtual const mt::exec::DeviceRing* ring() const = 0;
};

std::unique_ptr<Target> make_server(const mt::runtime::ServerOptions& o);
std::unique_ptr<Target> make_sharded(
    const mt::runtime::ShardedServerOptions& o);

// What a correct response looks like: the output alternative, its
// dimensions and, for the sampled requests, the reference values computed
// by `exec` on the registered source operand.
struct Expect {
  std::size_t kind = 0;  // exec::JobOutput alternative index
  index_t d0 = 0, d1 = 0, d2 = 0;
  std::shared_ptr<const mt::exec::JobOutput> ref;
};

// Outputs agree with the reference to this relative error. Different
// ACFs sum in different orders, so served and reference fp32 results
// differ in the last bits; a wrong kernel is off by O(1).
inline constexpr double kRefTolerance = 1e-3;

Expect expect_of(const mt::exec::JobOutput& ref, bool keep_values);

// One distinct request of a workload: the request body (handles filled at
// deployment) and how to check it.
struct Template {
  Request req;
  Expect expect;
};

// A new operand that arrives, serves `requests`, and is evicted. The
// request bodies carry no handle; the harness fills it per registration.
struct ColdOperand {
  AnyMatrix source;
  std::vector<Request> requests;
  std::vector<Expect> expects;
};

// --- Span log ---
//
// Spans are appended by the thread that owns the log and merged when the
// run ends; nothing here locks on the hot path.
class SpanLog {
 public:
  std::size_t add(const char* name, std::uint64_t request, std::size_t parent,
                  std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, request, parent, start_ns, end_ns});
    return spans_.size() - 1;
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

// A traced response's server-side record, under the kernel the client
// asked for (a coalesced SpMV's Dispatch names the SpMM it ran).
struct Served {
  Kernel kernel = Kernel::kSpMV;
  mt::runtime::ServeStats stats;
};

// Everything the run observed, merged across generator threads.
struct Observed {
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> failed{0};  // exceptions + refused + wrong

  std::mutex mu;
  std::vector<Span> spans;  // merged span logs (tracing only)
  std::vector<Served> served;                  // traced responses
  std::vector<double> handoff_us;              // traced open-loop requests
  std::vector<std::int64_t> shard_completed;   // by shard, client side

  void merge(const std::vector<Span>& more, const std::vector<Served>& st);
};

// The live state a workload runs against.
struct Deployment {
  std::unique_ptr<Target> target;
  std::vector<Template> templates;
  std::vector<std::uint32_t> draws;  // template index sequence (seeded)
  std::vector<ColdOperand>* cold = nullptr;
  // Per template: how the server ran it during warm-up.
  std::vector<mt::exec::Dispatch> warm_dispatch;
  std::int64_t warm_failed = 0;
};

// Closed-loop client threads (see kServingThreads for the sizing).
inline constexpr int kGenerators = 1;

// Every response's shape is checked; every k-th response's values too.
inline constexpr int kValueCheckEvery = 8;

struct TraceCtx {
  bool on = false;
  std::atomic<std::uint64_t>* next_request = nullptr;
};

struct ClosedResult {
  double throughput_rps = 0.0;  // median over equal time slices
  std::vector<double> slice_rps;
  // CPU time of the whole process (server and client threads) per
  // completed request.
  double cpu_us_per_request = 0.0;
};

// `window` requests in flight per client.
ClosedResult closed_loop(Deployment& d, int window, double seconds,
                         int slices, Observed& obs, const TraceCtx& tc);

struct OpenResult {
  LadderStep step;
  std::vector<double> send_lag_us;
  double cpu_us_per_request = 0.0;  // process CPU per request sent
};

OpenResult open_loop_step(Deployment& d, double rate_rps, double seconds,
                          Observed& obs, const TraceCtx& tc);

struct ColdResult {
  std::vector<double> first_us;  // register_matrix -> first response ready
  // Process CPU from register_matrix to the operand's last response.
  std::vector<double> cpu_us;
};

// Sequential register -> requests -> evict cycles of `count` new operands
// on an otherwise idle target. Each operand stays registered until `live`
// newer ones are, so with live > 1 their plans and representations pile
// up in the caches.
ColdResult cold_probe(Deployment& d, int count, Observed& obs,
                      const TraceCtx& tc, int live = 1);

// Checks a response against its expectation; values only when asked.
bool response_ok(const Expect& e, const Response& r, bool compare_values);

}  // namespace pb
