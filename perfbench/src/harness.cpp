#include "harness.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <array>
#include <chrono>
#include <deque>
#include <thread>
#include <type_traits>
#include <variant>

namespace pb {

using mt::runtime::ServeStats;
using mt::runtime::Server;
using mt::runtime::ShardedServer;

std::int64_t now_ns() { return mt::runtime::now_ns(); }

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

// A future that has not resolved after this long counts as failed, so a
// hung server cannot keep the benchmark from exiting.
constexpr auto kFutureTimeout = std::chrono::seconds(30);

template <class S>
class TargetOf final : public Target {
 public:
  template <class O>
  explicit TargetOf(const O& o) : s_(o) {}
  std::future<Response> submit(Request r) override {
    return s_.submit(std::move(r));
  }
  MatrixHandle register_matrix(AnyMatrix m) override {
    return s_.register_matrix(std::move(m));
  }
  mt::runtime::TensorHandle register_tensor(AnyTensor t) override {
    return s_.register_tensor(std::move(t));
  }
  void evict(MatrixHandle h) override { s_.evict(h); }
  std::vector<mt::obs::MetricSnapshot> metrics() const override {
    return s_.metrics_snapshot();
  }
  int num_shards() const override {
    if constexpr (std::is_same_v<S, Server>) {
      return 1;
    } else {
      return s_.num_shards();
    }
  }
  int shard_of(MatrixHandle h) const override {
    if constexpr (std::is_same_v<S, Server>) {
      (void)h;
      return 0;
    } else {
      return s_.shard_of(h);
    }
  }
  const mt::exec::DeviceRing* ring() const override {
    if constexpr (std::is_same_v<S, Server>) {
      return s_.device_ring();
    } else {
      return nullptr;
    }
  }

 private:
  S s_;
};

// Stage spans laid end to end from the request's enqueue instant (its
// submit start) under the client's wait span.
constexpr std::array<const char*, 5> kStageNames = {
    "queue", "plan", "convert", "exec", "device_wait"};

Stages stages_of(const ServeStats& s) {
  return {s.queue_wait_ns, s.plan_ns, s.convert_ns, s.exec_ns,
          s.device_wait_ns};
}

void record_request_spans(SpanLog& log, std::uint64_t id, std::int64_t s0,
                          std::int64_t s1, std::int64_t ready,
                          const ServeStats* st) {
  const auto req = log.add("request", id, kNoParent, s0, ready);
  log.add("submit", id, req, s0, s1);
  const auto wait = log.add("wait", id, req, s1, ready);
  if (st == nullptr) return;
  const Stages g = stages_of(*st);
  const std::array<std::int64_t, 5> ns = {g.queue_ns, g.plan_ns,
                                          g.convert_ns, g.exec_ns,
                                          g.device_wait_ns};
  std::int64_t t = s0;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    if (ns[i] <= 0) continue;
    log.add(kStageNames[i], id, wait, t, t + ns[i]);
    t += ns[i];
  }
}

// Sleeps until `due` on an absolute timer. The sender asks for 1 ns timer
// slack, so the wake-up is microseconds late, not the default 50 us; it
// never spins, leaving the cores to the server.
void wait_until(std::int64_t due) {
  if (due <= now_ns()) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// One submitted request as the client tracks it.
struct Pending {
  std::future<Response> fut;
  const Expect* expect = nullptr;
  std::int64_t submit_start = 0;
  std::int64_t submit_end = 0;
  std::uint64_t id = 0;
  Kernel kernel = Kernel::kSpMV;
  int shard = 0;
  bool check_values = false;
  bool submitted = false;
};

// Per-thread bookkeeping, merged into Observed when the thread ends.
struct Local {
  SpanLog log;
  std::vector<Served> served;
  std::vector<double> handoff_us;
  std::vector<std::int64_t> shard_completed;
};

std::uint64_t next_id(const TraceCtx& tc) {
  return tc.on ? tc.next_request->fetch_add(1, std::memory_order_relaxed) : 0;
}

// Submits `r`, timing the call. A throwing submit counts as refused.
Pending submit_one(Target& tgt, Request r, const Expect* e, bool check,
                   Observed& obs, const TraceCtx& tc) {
  Pending p;
  p.expect = e;
  p.check_values = check;
  p.id = next_id(tc);
  p.kernel = r.kernel;
  p.shard = tgt.shard_of(r.a);
  obs.attempted.fetch_add(1, std::memory_order_relaxed);
  p.submit_start = now_ns();
  try {
    p.fut = tgt.submit(std::move(r));
    p.submitted = true;
  } catch (...) {
    obs.failed.fetch_add(1, std::memory_order_relaxed);
  }
  p.submit_end = now_ns();
  return p;
}

// Checks and records a response whose future was observed ready (or
// timed out) at `ready`. `open_loop` requests also feed the handoff gap.
// Returns `ready`, or 0 when the request failed.
std::int64_t settle(Pending& p, bool is_ready, std::int64_t ready,
                    Observed& obs, const TraceCtx& tc, Local& loc,
                    bool open_loop) {
  bool ok = false;
  Response resp;
  try {
    if (is_ready) {
      resp = p.fut.get();
      ok = response_ok(*p.expect, resp, p.check_values);
    }
  } catch (...) {
    ok = false;
  }
  if (!ok) {
    obs.failed.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  loc.shard_completed[static_cast<std::size_t>(p.shard)] += 1;
  if (tc.on) {
    record_request_spans(loc.log, p.id, p.submit_start, p.submit_end, ready,
                         &resp.stats);
    loc.served.push_back({p.kernel, resp.stats});
    if (open_loop) {
      loc.handoff_us.push_back(
          static_cast<double>(handoff_gap_ns(ready - p.submit_start,
                                             p.submit_end - p.submit_start,
                                             stages_of(resp.stats))) /
          1e3);
    }
  }
  return ready;
}

// Blocks until `p` is ready (or times out), then settles it. The ready
// instant is taken before the output is read or checked.
std::int64_t reap(Pending& p, Observed& obs, const TraceCtx& tc, Local& loc) {
  if (!p.submitted) return 0;
  const bool is_ready =
      p.fut.wait_for(kFutureTimeout) == std::future_status::ready;
  return settle(p, is_ready, now_ns(), obs, tc, loc, false);
}

// A timed call into the target, recorded as its own root span.
template <class F>
auto timed(const char* name, Local& loc, const TraceCtx& tc, F&& f) {
  const auto t0 = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    if (tc.on) loc.log.add(name, next_id(tc), kNoParent, t0, now_ns());
  } else {
    auto r = f();
    if (tc.on) loc.log.add(name, next_id(tc), kNoParent, t0, now_ns());
    return r;
  }
}

// One new operand's arrival: register it, submit every request on it.
struct Arrival {
  MatrixHandle h;
  std::int64_t register_start = 0;
  std::vector<Pending> pending;
};

Arrival arrive(Deployment& d, const ColdOperand& c, AnyMatrix copy,
               Observed& obs, const TraceCtx& tc, Local& loc) {
  Arrival a;
  a.register_start = now_ns();
  a.h = timed("register_matrix", loc, tc, [&] {
    return d.target->register_matrix(std::move(copy));
  });
  for (std::size_t i = 0; i < c.requests.size(); ++i) {
    Request r = c.requests[i];
    r.a = a.h;
    a.pending.push_back(
        submit_one(*d.target, std::move(r), &c.expects[i], true, obs, tc));
  }
  return a;
}

// Reaps every request of an arrival. Returns the time from the register
// call to the first response ready, negative when that request failed.
double collect(Arrival& a, Observed& obs, const TraceCtx& tc, Local& loc) {
  double first_us = -1.0;
  for (std::size_t i = 0; i < a.pending.size(); ++i) {
    const auto ready = reap(a.pending[i], obs, tc, loc);
    if (i == 0 && ready > 0) {
      first_us = static_cast<double>(ready - a.register_start) / 1e3;
    }
  }
  return first_us;
}

}  // namespace

std::unique_ptr<Target> make_server(const mt::runtime::ServerOptions& o) {
  return std::make_unique<TargetOf<Server>>(o);
}

std::unique_ptr<Target> make_sharded(
    const mt::runtime::ShardedServerOptions& o) {
  return std::make_unique<TargetOf<ShardedServer>>(o);
}

Expect expect_of(const mt::exec::JobOutput& ref, bool keep_values) {
  Expect e;
  e.kind = ref.index();
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<mt::value_t>>) {
          e.d0 = static_cast<index_t>(v.size());
        } else if constexpr (std::is_same_v<T, mt::DenseTensor3>) {
          e.d0 = v.dim_x();
          e.d1 = v.dim_y();
          e.d2 = v.dim_z();
        } else {
          e.d0 = v.rows();
          e.d1 = v.cols();
        }
      },
      ref);
  if (keep_values) e.ref = std::make_shared<const mt::exec::JobOutput>(ref);
  return e;
}

bool response_ok(const Expect& e, const Response& r, bool compare_values) {
  const Expect got = expect_of(r.result, false);
  if (got.kind != e.kind || got.d0 != e.d0 || got.d1 != e.d1 ||
      got.d2 != e.d2) {
    return false;
  }
  if (!compare_values || !e.ref) return true;
  return mt::exec::max_rel_error(*e.ref, r.result) <= kRefTolerance;
}

void Observed::merge(const std::vector<Span>& more,
                     const std::vector<Served>& st) {
  std::lock_guard<std::mutex> lk(mu);
  // Parent indices are local to each log; rebase them on the merged one.
  const std::size_t base = spans.size();
  for (auto s : more) {
    if (s.parent != kNoParent) s.parent += base;
    spans.push_back(s);
  }
  served.insert(served.end(), st.begin(), st.end());
}

namespace {

void merge_local(Observed& obs, Local& loc) {
  obs.merge(loc.log.spans(), loc.served);
  std::lock_guard<std::mutex> lk(obs.mu);
  obs.handoff_us.insert(obs.handoff_us.end(), loc.handoff_us.begin(),
                        loc.handoff_us.end());
  if (obs.shard_completed.size() < loc.shard_completed.size()) {
    obs.shard_completed.resize(loc.shard_completed.size(), 0);
  }
  for (std::size_t i = 0; i < loc.shard_completed.size(); ++i) {
    obs.shard_completed[i] += loc.shard_completed[i];
  }
}

Local make_local(const Deployment& d) {
  Local loc;
  loc.shard_completed.assign(
      static_cast<std::size_t>(d.target->num_shards()), 0);
  return loc;
}

}  // namespace

ClosedResult closed_loop(Deployment& d, int window, double seconds,
                         int slices, Observed& obs, const TraceCtx& tc) {
  const auto cpu0 = process_cpu_ns();
  const auto t0 = now_ns();
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::vector<std::int64_t>> done_at(
      static_cast<std::size_t>(kGenerators));

  auto client = [&](int g) {
    Local loc = make_local(d);
    auto& done = done_at[static_cast<std::size_t>(g)];
    std::deque<Pending> q;
    std::uint64_t seq = static_cast<std::uint64_t>(g);
    const auto reap_front = [&] {
      const auto ready = reap(q.front(), obs, tc, loc);
      if (ready > 0) done.push_back(ready);
      q.pop_front();
    };
    while (now_ns() < end) {
      const auto ti = d.draws[seq % d.draws.size()];
      const Template& tm = d.templates[ti];
      const bool check =
          (seq / static_cast<std::uint64_t>(kGenerators)) %
              static_cast<std::uint64_t>(kValueCheckEvery) == 0;
      q.push_back(submit_one(*d.target, tm.req, &tm.expect, check, obs, tc));
      seq += static_cast<std::uint64_t>(kGenerators);
      if (static_cast<int>(q.size()) >= window) reap_front();
    }
    while (!q.empty()) reap_front();
    merge_local(obs, loc);
  };

  std::vector<std::thread> threads;
  for (int g = 0; g < kGenerators; ++g) threads.emplace_back(client, g);
  for (auto& th : threads) th.join();
  const auto cpu = process_cpu_ns() - cpu0;

  ClosedResult res;
  std::size_t completed = 0;
  for (const auto& v : done_at) completed += v.size();
  res.cpu_us_per_request = static_cast<double>(cpu) / 1e3 /
                           static_cast<double>(std::max<std::size_t>(completed, 1));
  const double slice_ns = static_cast<double>(end - t0) / slices;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(slices), 0);
  for (const auto& v : done_at) {
    for (const auto ts : v) {
      if (ts >= end) continue;
      const auto s = static_cast<std::size_t>(
          static_cast<double>(ts - t0) / slice_ns);
      counts[std::min(s, counts.size() - 1)] += 1;
    }
  }
  for (const auto c : counts) {
    res.slice_rps.push_back(static_cast<double>(c) / (slice_ns / 1e9));
  }
  res.throughput_rps = median(res.slice_rps);
  return res;
}

OpenResult open_loop_step(Deployment& d, double rate_rps, double seconds,
                          Observed& obs, const TraceCtx& tc) {
  struct Slot {
    std::int64_t due = 0;
    Pending req;
  };
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::floor(rate_rps * seconds)));
  const double period_ns = 1e9 / rate_rps;
  std::vector<Slot> slots(n);
  // Slots published to the reaper; kAborted tells it the sender gave up
  // after `sent_before_abort` slots (a changed value wakes its wait()).
  constexpr std::size_t kAborted = static_cast<std::size_t>(-1);
  std::atomic<std::size_t> sent{0};
  std::size_t sent_before_abort = 0;
  std::atomic<std::size_t> done{0};
  // Falling this far behind schedule means the rate is far past capacity;
  // the step stops sending and fails.
  const auto max_lag_ns = static_cast<std::int64_t>(
      std::max(0.25, 0.1 * seconds) * 1e9);

  OpenResult res;
  res.step.rate_rps = rate_rps;
  const auto t0 = now_ns() + 2'000'000;
  const auto cpu0 = process_cpu_ns();
  Local sender_loc = make_local(d);
  Local reaper_loc = make_local(d);

  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    auto next_sample = t0;
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots[i];
      s.due = t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      // Copy the payload before the due time so the copy is not charged
      // to the request.
      const Template& tm = d.templates[d.draws[i % d.draws.size()]];
      Request body = tm.req;
      wait_until(s.due);
      const auto start = now_ns();
      res.send_lag_us.push_back(static_cast<double>(start - s.due) / 1e3);
      if (start - s.due > max_lag_ns) {
        sent_before_abort = i;
        sent.store(kAborted, std::memory_order_release);
        sent.notify_one();
        break;
      }
      const bool check = i % static_cast<std::size_t>(kValueCheckEvery) == 0;
      s.req = submit_one(*d.target, std::move(body), &tm.expect, check, obs, tc);
      sent.store(i + 1, std::memory_order_release);
      sent.notify_one();
      const auto now = now_ns();
      if (now >= next_sample) {
        const auto due_count = static_cast<double>(now - t0) / period_ns + 1.0;
        res.step.backlog.push_back(
            due_count - static_cast<double>(done.load(std::memory_order_acquire)));
        next_sample = now + 1'000'000;
      }
    }
  });

  // The reaper stamps each request when its own future is seen ready, not
  // in send order, so a fast request finishing behind a slow one is not
  // charged for it. With one request outstanding it blocks on it; with
  // more it blocks on the oldest for at most kPoll, then checks all the
  // others: a request that completes out of order is stamped within about
  // one poll interval, one that completes in order exactly.
  std::thread reaper([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    constexpr auto kPoll = std::chrono::microseconds(20);
    std::vector<std::size_t> out;  // outstanding slots, in send order
    std::size_t next = 0;
    std::size_t completed = 0;
    const auto finish = [&](std::size_t j, bool is_ready, std::int64_t ready) {
      Slot& s = slots[j];
      if (settle(s.req, is_ready, ready, obs, tc, reaper_loc, true) > 0) {
        res.step.latencies_us.push_back(static_cast<double>(ready - s.due) / 1e3);
      }
      done.store(++completed, std::memory_order_release);
    };
    for (;;) {
      const auto v = sent.load(std::memory_order_acquire);
      const std::size_t avail = v == kAborted ? sent_before_abort : v;
      for (; next < avail; ++next) {
        if (slots[next].req.submitted) {
          out.push_back(next);
        } else {
          finish(next, false, 0);  // refused by submit()
        }
      }
      if (out.empty()) {
        if (v == kAborted || next == n) break;
        sent.wait(v, std::memory_order_acquire);
        continue;
      }
      if (out.size() == 1 && sent.load(std::memory_order_acquire) == v) {
        slots[out.front()].req.fut.wait_for(kFutureTimeout);
      } else {
        slots[out.front()].req.fut.wait_for(kPoll);
      }
      const auto now = now_ns();
      std::size_t keep = 0;
      for (const auto j : out) {
        auto& f = slots[j].req.fut;
        if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          finish(j, true, now);
        } else if (now - slots[j].due >
                       std::chrono::nanoseconds(kFutureTimeout).count()) {
          finish(j, false, 0);  // hung: counted failed, future abandoned
        } else {
          out[keep++] = j;
        }
      }
      out.resize(keep);
    }
  });
  sender.join();
  reaper.join();
  res.step.aborted = sent.load() == kAborted;
  res.step.attempted = res.step.aborted ? sent_before_abort : n;
  res.cpu_us_per_request =
      static_cast<double>(process_cpu_ns() - cpu0) / 1e3 /
      static_cast<double>(std::max<std::size_t>(res.step.attempted, 1));
  res.step.failed =
      res.step.attempted - std::min(res.step.attempted,
                                    res.step.latencies_us.size());
  merge_local(obs, sender_loc);
  merge_local(obs, reaper_loc);
  return res;
}

ColdResult cold_probe(Deployment& d, int count, Observed& obs,
                      const TraceCtx& tc, int live) {
  ColdResult out;
  if (d.cold == nullptr || d.cold->empty()) return out;
  Local loc = make_local(d);
  std::deque<MatrixHandle> registered;
  const auto evict_oldest = [&] {
    const auto h = registered.front();
    registered.pop_front();
    timed("evict", loc, tc, [&] { d.target->evict(h); });
  };
  for (int i = 0; i < count; ++i) {
    const ColdOperand& op = (*d.cold)[static_cast<std::size_t>(i) % d.cold->size()];
    AnyMatrix copy = op.source;
    const auto cpu0 = process_cpu_ns();
    Arrival a = arrive(d, op, std::move(copy), obs, tc, loc);
    const double first_us = collect(a, obs, tc, loc);
    if (first_us >= 0) {
      out.first_us.push_back(first_us);
      out.cpu_us.push_back(static_cast<double>(process_cpu_ns() - cpu0) / 1e3);
    }
    registered.push_back(a.h);
    if (static_cast<int>(registered.size()) >= live) evict_oldest();
  }
  while (!registered.empty()) evict_oldest();
  merge_local(obs, loc);
  return out;
}

}  // namespace pb
