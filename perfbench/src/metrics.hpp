// Pure arithmetic behind the benchmark's reported numbers: exact
// percentiles over raw samples, span self time, the request handoff gap
// and the rate-ladder SLO rule. No clocks and no threads here, so
// tests/test_metrics.cpp checks every rule on hand-built inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

// The nearest-rank percentile of raw samples: the value at sorted
// position ceil(q * n) (1-based). `beyond` counts the samples ranked
// after it; a tail percentile is only trusted ("supported") with at
// least kMinBeyond of them, so p99 needs 1000 samples.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported() const { return samples > 0 && beyond >= kMinBeyond; }
};

// `sorted` must be ascending.
inline Percentile percentile_sorted(const std::vector<double>& sorted,
                                    double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

inline Percentile percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Spans ---
//
// One timed interval of the benchmark's own calls. Spans of one request
// share `request`; `parent` is the index of the enclosing span in the
// same recording (or kNoParent).
inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::size_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration() const { return end_ns - start_ns; }
};

// A span's duration minus the part of its interval that its children
// cover. Children may overlap each other or spill past the parent; only
// their union clipped to the parent is subtracted, so self time is never
// negative and overlapping time is not subtracted twice.
inline std::int64_t self_time_ns(
    const Span& parent, std::vector<std::pair<std::int64_t, std::int64_t>> kids) {
  for (auto& [s, e] : kids) {
    s = std::max(s, parent.start_ns);
    e = std::min(e, parent.end_ns);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : kids) {
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_s;
  return parent.duration() - covered;
}

// Self time of every span in `spans`, indexed like it.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = self_time_ns(spans[i], std::move(kids[i]));
  }
  return out;
}

// --- Handoff gap ---
//
// Server-side stage durations of one request, as its ServeStats reports
// them. The queue stage is stamped before the request is pushed, so it
// already contains the client's submit() call: the two start together
// and overlap.
struct Stages {
  std::int64_t queue_ns = 0;
  std::int64_t plan_ns = 0;
  std::int64_t convert_ns = 0;
  std::int64_t exec_ns = 0;
  std::int64_t device_wait_ns = 0;
};

// Client-observed latency not accounted for by the submit call or any
// server stage: promise set -> future ready -> client wakes, plus work
// the stages do not time (a fused batch's scatter, waiting behind the
// rest of a drained window). The open-loop reaper stamps a request that
// completes out of order within one 20 us poll, which lands here too. Submit and queue overlap, so their union —
// the longer of the two — is subtracted once. The result is signed and
// reported as measured; a negative gap means the stages overran the
// client's own clock.
inline std::int64_t handoff_gap_ns(std::int64_t latency_ns,
                                   std::int64_t submit_ns, const Stages& s) {
  return latency_ns - std::max(submit_ns, s.queue_ns) - s.plan_ns -
         s.convert_ns - s.exec_ns - s.device_wait_ns;
}

// --- Rate ladder ---
//
// One fixed-rate step of an open-loop phase. `backlog` samples the number
// of requests due by the sample instant minus those completed by it, so a
// sender stalled by backpressure counts as backlog too.
struct LadderStep {
  double rate_rps = 0.0;
  std::vector<double> latencies_us;  // from each request's due time
  std::size_t attempted = 0;
  std::size_t failed = 0;  // exceptions, refused submits, wrong outputs
  std::vector<double> backlog;
  bool aborted = false;  // the sender fell so far behind it gave up
};

// The backlog grows when its mean over the last third of the step exceeds
// its mean over the first third by more than the larger of the first-third
// mean itself (a doubling) and 50 ms worth of arrivals at `rate_rps`. A
// rate past capacity grows it without bound; a burst of slow requests
// below capacity lifts it briefly by less.
inline bool backlog_grows(const std::vector<double>& backlog, double rate_rps) {
  if (backlog.size() < 3) return false;
  const std::size_t third = backlog.size() / 3;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    head += backlog[i];
    tail += backlog[backlog.size() - 1 - i];
  }
  head /= static_cast<double>(third);
  tail /= static_cast<double>(third);
  return tail - head > std::max(head, 0.05 * rate_rps);
}

// A step meets the SLO when it ran to the end, nothing failed, its p99 is
// supported by the sample count and within `slo_p99_us`, and the backlog
// does not grow.
inline bool step_meets_slo(const LadderStep& s, double slo_p99_us) {
  if (s.aborted || s.failed > 0 || s.attempted == 0) return false;
  const auto p99 = percentile(s.latencies_us, 0.99);
  return p99.supported() && p99.value <= slo_p99_us &&
         !backlog_grows(s.backlog, s.rate_rps);
}

// The highest rate of the passing prefix of an ascending ladder (0 when
// the first step already fails). A pass above a failed step does not
// count: the ladder stops at the first miss.
inline double max_rate_at_slo(const std::vector<LadderStep>& steps,
                              double slo_p99_us) {
  double best = 0.0;
  for (const auto& s : steps) {
    if (!step_meets_slo(s, slo_p99_us)) break;
    best = s.rate_rps;
  }
  return best;
}

}  // namespace pb
