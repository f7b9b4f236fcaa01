// perfbench_loadgen — the repository benchmark's load generator.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans-out FILE]
//
// --trace 0 reports the end-to-end metrics from untraced traffic. Gated
// (in the JSON result), times and the rate adjusted by the square root of
// the run's host slowdown (see kCalibrationReferenceUs):
//   cpu_us_per_request       process CPU per request, pipelined closed loop
//   open_cpu_us_per_request  process CPU per request, open loop at the
//                            workload's reference rate
//   new_operand_cpu_us       process CPU from register_matrix to the new
//                            operand's last response (median)
//   first_result_p50_us      register_matrix -> first response ready
//   throughput_rps           closed loop, median over rounds
//   success_frac             1 - failed / attempted
//   setup_s                  process CPU of a deployment (server
//                            construction, resident-operand registration,
//                            warm-up), median of 21
//   peak_rss_mb              peak resident set after setup and a saturated
//                            closed loop (not adjusted)
// Printed, not gated: host_slowdown, the reference-rate latency p50/p99
// (timed from each request's due time), max_rate_at_slo_rps (highest
// passing step of the fixed rate ladder), the first-result p99,
// failed_frac and the wall-clock set-up time.
// The closed loop, the reference-rate open loop and the new-operand probes
// alternate in rounds for 62% of --seconds, with the calibration loop
// before each; the ladder gets most of the rest, so a run takes about
// --seconds plus input generation and the deployments.
// --trace 1 runs one deployment with the benchmark's spans on and reports
// the per-layer metrics; the direct probes of sage, convert, the kernels
// and a STREAM triad run after the served phases.
//
// Every metric is printed by name and unit, then a detail line (host and
// configuration fingerprint, sample counts, the ladder, span totals); the
// last line of stdout is one JSON object {correct, attempted, failed,
// metrics}.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "common/simd.hpp"
#include "common/threads.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

// `s` as a JSON string literal.
std::string quote(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  o += '"';
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      return p == std::string::npos ? line : line.substr(p + 2);
    }
  }
  return "unknown";
}

// --- Host slowdown ---
//
// This benchmark's host is a guest on a shared machine: other guests on
// the sibling hyperthreads and in the shared caches slow every
// instruction of the run, by up to 1.6x, in spells of seconds to minutes.
// The run times a fixed single-threaded loop between its phases; its
// slowdown is the loop's median CPU time over kCalibrationReferenceUs,
// its time on an uncontended core of the host the bounds were set on (an
// Intel Xeon KVM guest, 4 vCPUs). Over three sets of ten runs of each
// workload the gated costs followed it with an elasticity of 0.3-1.3, so
// they are adjusted by its square root: the widest interquartile range
// over those sets was 0.16 of the median adjusted that way, 0.26
// unadjusted and 0.25 divided by the full slowdown.
constexpr double kCalibrationReferenceUs = 1000.0;

// CPU time of one pass of a fixed loop: 92 sweeps of a multiply-add over
// two 256 KiB arrays (cache-resident, no allocation, no system calls).
double calibration_us() {
  constexpr std::size_t kLen = 1 << 16;
  constexpr int kSweeps = 92;
  static std::vector<float> a(kLen, 1.0f), b(kLen, 0.5f);
  timespec t0{}, t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  for (int k = 0; k < kSweeps; ++k) {
    for (std::size_t i = 0; i < kLen; ++i) a[i] = a[i] * 0.999f + b[i];
    asm volatile("" : : "r"(a.data()) : "memory");
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e6 +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) / 1e3;
}

double host_slowdown(const std::vector<double>& calibration) {
  return median(calibration) / kCalibrationReferenceUs;
}

// Pins the calling thread, and so every thread it starts later, to the
// last CPU it may run on; returns that CPU, or -1 when it cannot. Threads
// of one process spread over several vCPUs hand requests to each other
// with cross-CPU wake-ups, whose cost on this host's hypervisor changed
// from run to run: on device_offload the CPU time per request came in
// two levels, 36 and 44-51 us, over consecutive runs of the same code;
// pinned to one CPU it stayed at 36-38. One CPU also exposes the run to
// only one vCPU's share of the host.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Steal and total jiffies of all CPUs from /proc/stat (zeros when absent).
std::pair<double, double> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

// Share of CPU time the hypervisor gave to other guests between two reads.
double steal_between(std::pair<double, double> a, std::pair<double, double> b) {
  const double total = b.second - a.second;
  return total > 0 ? (b.first - a.first) / total : 0.0;
}

std::int64_t series(const std::vector<mt::obs::MetricSnapshot>& snap,
                    const std::string& name) {
  for (const auto& m : snap) {
    if (m.name == name) return m.value;
  }
  return 0;
}

std::vector<double> span_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == name) out.push_back(us(s.duration()));
  }
  return out;
}

// Per-span-name count, total and self time, for the detail line.
std::string span_summary(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  struct Sum {
    std::int64_t n = 0, total = 0, self = 0;
  };
  std::map<std::string, Sum> by;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& s = by[spans[i].name];
    s.n += 1;
    s.total += spans[i].duration();
    s.self += self[i];
  }
  std::vector<std::string> parts;
  for (const auto& [k, s] : by) {
    parts.push_back("\"" + k + "\":{\"count\":" + std::to_string(s.n) +
                    ",\"total_us\":" + num(us(s.total)) +
                    ",\"self_us\":" + num(us(s.self)) + "}");
  }
  std::string out = "{";
  out += join(parts, ",");
  out += '}';
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream f(path);
  f << "name,request,parent,start_ns,end_ns\n";
  for (const auto& s : spans) {
    f << s.name << ',' << s.request << ','
      << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent)) << ','
      << s.start_ns << ',' << s.end_ns << '\n';
  }
}

// Prints the exact q-percentile of `samples` as `name`, with the sample
// count in the detail line; not printed with fewer than kMinBeyond
// samples beyond it.
void print_percentile(Report& r, const std::string& name,
                      const std::vector<double>& samples, double q) {
  const auto p = percentile(samples, q);
  if (p.supported()) {
    r.print(name, p.value, "us");
  } else {
    r.note(name, "not printed: fewer than 10 samples beyond it");
  }
  r.note(name + ".samples", std::to_string(p.samples));
}

std::string ladder_summary(const std::vector<LadderStep>& steps, double slo) {
  std::vector<std::string> parts;
  for (const auto& s : steps) {
    parts.push_back(num(s.rate_rps) + ":" +
                    (step_meets_slo(s, slo) ? "pass" : "miss") + "(p99=" +
                    num(percentile(s.latencies_us, 0.99).value) +
                    "us,n=" + std::to_string(s.attempted) +
                    (backlog_grows(s.backlog, s.rate_rps) ? ",backlog" : "") +
                    (s.aborted ? ",aborted" : "") + ")");
  }
  return join(parts, " ");
}

std::string joined(const std::vector<double>& v) {
  std::vector<std::string> parts;
  for (const auto x : v) parts.push_back(num(x));
  return join(parts, ",");
}

// Shares of --seconds: untimed warm-up, measurement rounds, rate ladder.
constexpr double kWarmShare = 0.08, kRoundsShare = 0.62, kLadderShare = 0.26;

// One measurement round: a closed loop, an open loop at the reference
// rate and a batch of new-operand probes, each this long (the open loop
// at least long enough for kRoundOpenRequests requests).
constexpr double kRoundPhaseShare = 0.014;
constexpr double kRoundOpenRequests = 400;
constexpr int kRoundProbes = 40;

// Untimed traffic before any measurement. The first seconds of serving
// run slower (allocator pages faulting in, the arena and the bounded
// caches filling). Returns the peak RSS after the saturated closed loop:
// the server's footprint under load, read before the new-operand probes
// and the phases whose length varies.
double warm_up(Deployment& d, const WorkloadDef& def, double s, Observed& obs) {
  closed_loop(d, def.window, kWarmShare * s, 1, obs, TraceCtx{});
  const double rss_mb = peak_rss_mb();
  cold_probe(d, kRoundProbes, obs, TraceCtx{});
  return rss_mb;
}

// setup_s is the median over this many deployments.
constexpr int kDeployments = 21;

void run_untraced(Workload& w, const Args& args, Observed& obs, Report& r) {
  const auto& def = w.def;
  const double s = args.seconds;
  std::vector<double> calib_us;
  std::vector<double> setup_cpu, setup_wall;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kDeployments; ++i) {
    d.reset();
    calib_us.push_back(calibration_us());
    const auto t0 = now_ns();
    const auto c0 = process_cpu_ns();
    d = w.deploy();
    setup_cpu.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e9);
    setup_wall.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    obs.attempted += static_cast<std::int64_t>(d->templates.size());
    obs.failed += d->warm_failed;
  }
  r.note("kernel_threads", std::to_string(mt::num_threads()));
  const TraceCtx off;
  const double rss_mb = warm_up(*d, def, s, obs);

  // Rounds of closed loop, reference-rate open loop and new-operand
  // probes until their share of the run is spent, with the calibration
  // loop before each phase. Every per-round figure is reported as its
  // median over the rounds.
  const auto rounds_end =
      now_ns() + static_cast<std::int64_t>(kRoundsShare * s * 1e9);
  const double ref_rate = def.ladder_rps.front();
  const double phase_s = kRoundPhaseShare * s;
  std::vector<double> closed_cpu, open_cpu, slices, first_cpu, first_us,
      latency, lag;
  do {
    calib_us.push_back(calibration_us());
    const auto c = closed_loop(*d, def.window, phase_s, 1, obs, off);
    closed_cpu.push_back(c.cpu_us_per_request);
    slices.push_back(c.throughput_rps);
    calib_us.push_back(calibration_us());
    auto o = open_loop_step(*d, ref_rate,
                            std::max(phase_s, kRoundOpenRequests / ref_rate),
                            obs, off);
    open_cpu.push_back(o.cpu_us_per_request);
    latency.insert(latency.end(), o.step.latencies_us.begin(),
                   o.step.latencies_us.end());
    lag.insert(lag.end(), o.send_lag_us.begin(), o.send_lag_us.end());
    calib_us.push_back(calibration_us());
    auto cold = cold_probe(*d, kRoundProbes, obs, off);
    first_us.insert(first_us.end(), cold.first_us.begin(), cold.first_us.end());
    first_cpu.insert(first_cpu.end(), cold.cpu_us.begin(), cold.cpu_us.end());
  } while (now_ns() < rounds_end);

  // The ladder climbs until a step misses; a missed step runs up to twice
  // more, so one slow spell of the host does not end it below capacity.
  // A step starts only while the ladder's share of the run has room for
  // it; a ladder cut short that way is noted as truncated.
  const auto ladder_end =
      now_ns() + static_cast<std::int64_t>(kLadderShare * s * 1e9);
  std::vector<LadderStep> steps;
  int retries = 0;
  bool truncated = false;
  for (const double rate : def.ladder_rps) {
    // Every step runs long enough for 1200 requests: a p99 needs 1000.
    const double secs = std::max(0.02 * s, 1200.0 / rate);
    const auto fits = [&] {
      return steps.empty() ||
             now_ns() + static_cast<std::int64_t>(secs * 1e9) <= ladder_end;
    };
    if (!fits()) {
      truncated = true;
      break;
    }
    OpenResult o;
    for (int attempt = 0;; ++attempt) {
      o = open_loop_step(*d, rate, secs, obs, off);
      if (step_meets_slo(o.step, def.slo_p99_us) || attempt == 2) break;
      if (!fits()) {
        truncated = true;
        break;
      }
      ++retries;
    }
    steps.push_back(std::move(o.step));
    if (!step_meets_slo(steps.back(), def.slo_p99_us)) break;
  }

  // Gated times are divided, and the rate multiplied, by the square root
  // of the run's host slowdown (see kCalibrationReferenceUs).
  const double slowdown = host_slowdown(calib_us);
  const double adjust = std::sqrt(slowdown);
  const auto first_p50 = percentile(first_us, 0.5);
  r.add("cpu_us_per_request", median(closed_cpu) / adjust, "us");
  r.add("open_cpu_us_per_request", median(open_cpu) / adjust, "us");
  r.add("new_operand_cpu_us", median(first_cpu) / adjust, "us");
  r.add("first_result_p50_us", first_p50.value / adjust, "us");
  r.add("throughput_rps", median(slices) * adjust, "1/s");
  const double attempted = static_cast<double>(obs.attempted.load());
  const double failed = static_cast<double>(obs.failed.load());
  r.add("success_frac", attempted > 0 ? 1.0 - failed / attempted : 0.0, "frac");
  r.add("setup_s", median(setup_cpu) / adjust, "s");
  r.add("peak_rss_mb", rss_mb, "MB");

  // Printed, not gated: the open-loop latency and the ladder, which carry
  // the hypervisor's vCPU wake-up delay, and the host's slowdown.
  r.print("host_slowdown", slowdown, "ratio");
  print_percentile(r, "latency_p50_us", latency, 0.5);
  print_percentile(r, "latency_p99_us", latency, 0.99);
  r.print("max_rate_at_slo_rps", max_rate_at_slo(steps, def.slo_p99_us), "1/s");
  print_percentile(r, "first_result_p99_us", first_us, 0.99);
  r.print("failed_frac", attempted > 0 ? failed / attempted : 0.0, "frac");
  r.print("setup_wall_s", median(setup_wall), "s");

  r.note("rounds", std::to_string(closed_cpu.size()));
  r.note("first_result.samples", std::to_string(first_p50.samples));
  r.note("reference_rate_rps", num(ref_rate));
  r.note("ladder", ladder_summary(steps, def.slo_p99_us));
  r.note("ladder_retries", std::to_string(retries));
  if (truncated) r.note("ladder_truncated", "the ladder's time share ran out");
  r.note("slo_p99_us", num(def.slo_p99_us));
  r.note("calibration_us", joined(calib_us));
  r.note("round_closed_rps", joined(slices));
  r.note("round_cpu_us_per_request", joined(closed_cpu));
  r.note("round_open_cpu_us_per_request", joined(open_cpu));
  r.note("setup_cpu_s_runs", joined(setup_cpu));
  r.note("send_lag_p99_us", num(percentile(lag, 0.99).value));
}

void run_traced(Workload& w, const Args& args, Observed& obs, Report& r) {
  const auto& def = w.def;
  auto d = w.deploy();
  obs.attempted += static_cast<std::int64_t>(d->templates.size());
  obs.failed += d->warm_failed;
  r.note("kernel_threads", std::to_string(mt::num_threads()));
  std::atomic<std::uint64_t> ids{1};
  const TraceCtx off;
  TraceCtx on;
  on.on = true;
  on.next_request = &ids;
  const double s = args.seconds;
  warm_up(*d, def, s, obs);

  const auto base = closed_loop(*d, def.window, 0.15 * s, 5, obs, off);
  const auto traced = closed_loop(*d, def.window, 0.15 * s, 5, obs, on);
  const auto open = open_loop_step(*d, def.ladder_rps.front(), 0.2 * s, obs, on);
  // New operands on the router target (the workload's server options on
  // 2 shards with small bounded caches), each kept registered until
  // kColdLive newer ones are: every request misses the plan cache and,
  // unless the operand arrived in its ACF, the conversion cache, the
  // router places and routes each operand, and the pile of live operands
  // forces capacity evictions. Their ServeStats are kept apart from the
  // resident traffic's.
  constexpr int kColdLive = 32;
  Deployment routed;
  routed.target = make_router_target(w.server);
  routed.cold = &w.cold;
  Observed cold;
  cold_probe(routed, def.cold_probes / 4, cold, on, kColdLive);
  obs.attempted += cold.attempted.load();
  obs.failed += cold.failed.load();
  obs.merge(cold.spans, {});
  const auto routed_snap = routed.target->metrics();
  routed.target.reset();

  // Modeled device time of one pass over every distinct request: an exact
  // count that a host-only change leaves unchanged.
  double modeled_us = 0.0;
  for (const auto& t : d->templates) {
    obs.attempted += 1;
    try {
      const auto resp = d->target->submit(t.req).get();
      if (!response_ok(t.expect, resp, true)) obs.failed += 1;
      modeled_us += us(resp.stats.device_ns);
    } catch (...) {
      obs.failed += 1;
    }
  }

  SpanLog probe_log;
  probe_sage_convert(w, 0.12 * s, probe_log, r);
  probe_kernels(w, *d, 0.12 * s, probe_log, r);
  const double triad_bound = probe_triad(0.04 * s, probe_log, r);
  obs.merge(probe_log.spans(), {});

  const auto snap = d->target->metrics();
  const auto* ring = d->target->ring();
  const auto& spans = obs.spans;

  r.add_p50_p99("runtime.submit_us", span_us(spans, "submit"));
  std::vector<double> queue, plan_miss, conv_miss, dev_wait;
  std::map<Kernel, std::vector<double>> exec_us;
  double batch_sum = 0, batched = 0, plan_hits = 0, conv_hits = 0,
         conv_all = 0, fallback = 0, device = 0;
  // Miss timings of the resident traffic (normally none) and the new
  // operands.
  const auto add_misses = [&](const mt::runtime::ServeStats& x) {
    if (!x.plan_cache_hit) plan_miss.push_back(us(x.plan_ns));
    if (x.conversion_misses > 0) conv_miss.push_back(us(x.convert_ns));
  };
  for (const auto& [kernel, x] : obs.served) {
    queue.push_back(us(x.queue_wait_ns));
    batch_sum += x.batch_size;
    batched += x.batched ? 1 : 0;
    plan_hits += x.plan_cache_hit ? 1 : 0;
    add_misses(x);
    conv_hits += x.conversion_hits;
    conv_all += x.conversion_hits + x.conversion_misses;
    exec_us[kernel].push_back(us(x.exec_ns));
    fallback += x.dispatch.path == mt::exec::Path::kFallback ? 1 : 0;
    if (x.dispatch.backend != mt::exec::BackendKind::kCpu) {
      device += 1;
      dev_wait.push_back(us(x.device_wait_ns));
    }
  }
  const auto resident_misses = plan_miss.size();
  for (const auto& c : cold.served) add_misses(c.stats);
  const double n = std::max<double>(1.0, static_cast<double>(obs.served.size()));
  r.add_p50_p99("runtime.queue_wait_us", queue);
  r.add("runtime.batch_size_mean", batch_sum / n, "count");
  r.add("runtime.batched_frac", batched / n, "frac");
  r.add_p50_p99("runtime.handoff_us", obs.handoff_us);
  r.add("runtime.plan_hit_frac", plan_hits / n, "frac");
  r.add("runtime.conversion_hit_frac", conv_all > 0 ? conv_hits / conv_all : 1.0,
        "frac");
  r.add("runtime.plan_us_p50", percentile(plan_miss, 0.5).value, "us");
  r.add("runtime.convert_us_p50", percentile(conv_miss, 0.5).value, "us");
  r.note("runtime.plan_misses", std::to_string(plan_miss.size()) + " (" +
                                    std::to_string(resident_misses) +
                                    " resident, the rest new operands)");
  r.note("runtime.convert_misses", std::to_string(conv_miss.size()));
  r.note("runtime.evictions_resident",
         std::to_string(series(snap, "mt_plan_cache_evictions_total") +
                        series(snap, "mt_conversion_cache_evictions_total")));
  r.add("runtime.plan_cache_evictions",
        static_cast<double>(series(routed_snap, "mt_plan_cache_evictions_total")),
        "count");
  r.add("runtime.conversion_cache_evictions",
        static_cast<double>(
            series(routed_snap, "mt_conversion_cache_evictions_total")),
        "count");
  r.add("runtime.register_us_p50",
        percentile(span_us(spans, "register_matrix"), 0.5).value, "us");
  r.add("runtime.evict_us_p50", percentile(span_us(spans, "evict"), 0.5).value,
        "us");
  const double reuses = static_cast<double>(series(snap, "mt_arena_reuses_total"));
  const double fresh =
      static_cast<double>(series(snap, "mt_arena_fresh_allocs_total"));
  r.add("runtime.arena_reuse_frac",
        reuses + fresh > 0 ? reuses / (reuses + fresh) : 0.0, "frac");
  // Requests completed per shard of the router target.
  double most = 0, total = 0;
  for (const auto c : cold.shard_completed) {
    most = std::max(most, static_cast<double>(c));
    total += static_cast<double>(c);
  }
  const double per_shard =
      total / std::max<double>(1.0, static_cast<double>(cold.shard_completed.size()));
  r.add("router.shard_imbalance", per_shard > 0 ? most / per_shard : 1.0, "ratio");
  for (const auto k : mt::kAllKernels) {
    const std::string key = std::string("exec.") + kernel_key(k);
    const auto& v = exec_us[k];
    r.add(key + ".us_p50", percentile(v, 0.5).value, "us");
    r.add(key + ".us_p99", percentile(v, 0.99).value, "us");
    r.note(key + ".samples", std::to_string(v.size()));
  }
  r.add("exec.fallback_frac", fallback / n, "frac");
  r.add("ring.peak_in_flight",
        ring != nullptr ? static_cast<double>(ring->stats().peak_in_flight) : 0.0,
        "count");
  r.add("ring.device_wait_us_p50", percentile(dev_wait, 0.5).value, "us");
  r.add("exec.device_frac", device / n, "frac");
  r.add("mint.modeled_device_us_sum", modeled_us, "us");
  r.add("loadgen.send_lag_p99_us", percentile(open.send_lag_us, 0.99).value, "us");
  r.add("trace.overhead_frac",
        base.throughput_rps > 0 ? 1.0 - traced.throughput_rps / base.throughput_rps
                                : 0.0,
        "frac");
  if (triad_bound > 0) {
    for (const auto& m : r.metrics) {
      if (m.name.rfind("kernels.", 0) == 0 &&
          m.name.find(".gbps_computed") != std::string::npos) {
        r.note(m.name + ".pct_of_triad", num(100.0 * m.value / triad_bound));
      }
    }
  }
  r.note("spans", span_summary(spans));
  r.note("closed_untraced_rps", num(base.throughput_rps));
  r.note("closed_traced_rps", num(traced.throughput_rps));
  write_spans(args.spans_out, spans);
}

std::string fingerprint(const Workload& w, const Args& args, int cpu) {
  // Results from different hosts or configurations are not comparable.
  std::ostringstream fp;
  fp << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":" << quote(cpu_model())
     << ",\"simd\":\"" << (mt::simd_enabled() ? "avx2" : "scalar") << "\""
     << ",\"llc_bytes\":" << llc_bytes()
     << ",\"pinned_cpu\":" << cpu
     << ",\"workers\":" << kServingThreads
     << ",\"generators\":" << kGenerators
     << ",\"window\":" << w.def.window
     << ",\"server\":" << quote(w.def.server)
     << ",\"workload\":" << quote(args.workload)
     << ",\"seed\":" << args.seed << ",\"seconds\":" << num(args.seconds)
     << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"build\":\"" << PERFBENCH_BUILD_TYPE << "\"}";
  return fp.str();
}

void print(const Report& r, const std::string& fp, std::int64_t attempted,
           std::int64_t failed) {
  std::cout << "# fingerprint " << fp << '\n';
  for (const auto* list : {&r.metrics, &r.printed}) {
    for (const auto& m : *list) {
      std::cout << m.name << ' ' << num(m.value) << ' ' << m.unit << '\n';
    }
  }
  std::vector<std::string> notes;
  for (const auto& [k, v] : r.notes) {
    // Notes holding a JSON object (the span summary) are embedded as is.
    std::string entry = quote(k);
    entry += ':';
    entry += !v.empty() && v.front() == '{' ? v : quote(v);
    notes.push_back(std::move(entry));
  }
  std::cout << "# detail {\"fingerprint\":" << fp << ",\"notes\":{"
            << join(notes, ",") << "}}\n";

  std::vector<std::string> metrics;
  for (const auto& m : r.metrics) {
    metrics.push_back("\"" + m.name + "\": {\"value\": " + num(m.value) +
                      ", \"unit\": \"" + m.unit + "\"}");
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << join(metrics, ", ") << "}}" << std::endl;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench_loadgen --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n";
    return 2;
  }
  const int cpu = pin_to_one_cpu();
  mt::set_num_threads(kKernelThreads);
  auto w = make_workload(args.workload, args.seed);
  if (!w) {
    std::cerr << "unknown workload '" << args.workload << "'; known: "
              << join(workload_names(), " ") << '\n';
    return 2;
  }
  Observed obs;
  Report r;
  const auto jiffies0 = cpu_jiffies();
  try {
    if (args.trace) {
      run_traced(*w, args, obs, r);
    } else {
      run_untraced(*w, args, obs, r);
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark error: " << e.what() << '\n';
    return 1;
  }
  // Runs with more than a few percent of steal read slower on every metric.
  r.note("host_steal_frac", num(steal_between(jiffies0, cpu_jiffies())));
  print(r, fingerprint(*w, args, cpu), obs.attempted.load(), obs.failed.load());
  return 0;
}
