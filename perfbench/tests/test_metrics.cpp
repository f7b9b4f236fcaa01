// Unit tests of the benchmark's arithmetic (src/metrics.hpp) on hand-built
// inputs: percentile selection, span self time, the handoff gap and the
// rate-ladder SLO rule. Exit code 0 when every check holds.
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentiles() {
  using pb::percentile;
  // Nearest rank: p50 of 1..100 is 50, p99 is 99 with one sample beyond.
  auto p = percentile(iota(100), 0.50);
  check(p.value == 50 && p.beyond == 50 && p.samples == 100, "p50 of 1..100");
  p = percentile(iota(100), 0.99);
  check(p.value == 99 && p.beyond == 1 && !p.supported(),
        "p99 of 100 samples is unsupported");
  p = percentile(iota(1000), 0.99);
  check(p.value == 990 && p.beyond == 10 && p.supported(),
        "p99 of 1000 samples has ten beyond");
  p = percentile(iota(999), 0.99);
  check(p.value == 990 && p.beyond == 9 && !p.supported(),
        "p99 of 999 samples has nine beyond");
  // Order of input does not matter; rank clamps at the ends.
  check(percentile({5, 1, 4, 2, 3}, 0.5).value == 3, "unsorted input");
  check(percentile({7}, 0.99).value == 7, "single sample");
  check(percentile({1, 2, 3}, 0.0).value == 1, "q = 0 clamps to the minimum");
  check(percentile({}, 0.5).samples == 0 && !percentile({}, 0.5).supported(),
        "empty input");
  check(pb::median({4, 1, 3, 2}) == 2.5 && pb::median({3, 1, 2}) == 2,
        "median of even and odd counts");
}

void test_self_time() {
  pb::Span parent{"p", 1, pb::kNoParent, 0, 100};
  check(pb::self_time_ns(parent, {}) == 100, "no children: all self");
  check(pb::self_time_ns(parent, {{10, 30}, {50, 60}}) == 70,
        "disjoint children subtract");
  check(pb::self_time_ns(parent, {{10, 40}, {30, 60}}) == 50,
        "overlapping children subtract their union once");
  check(pb::self_time_ns(parent, {{-20, 10}, {90, 150}}) == 80,
        "children spilling past the parent are clipped");
  check(pb::self_time_ns(parent, {{0, 100}, {20, 30}}) == 0,
        "fully covered parent has zero self time");

  // A request: submit [0,10], wait [10,100] with stages laid end to end
  // from the submit start: queue 0..25, exec 25..80. Wait self time =
  // handoff = 100 - max(10, 25) - 55 = 20.
  std::vector<pb::Span> spans = {
      {"request", 1, pb::kNoParent, 0, 100},
      {"submit", 1, 0, 0, 10},
      {"wait", 1, 0, 10, 100},
      {"queue", 1, 2, 0, 25},
      {"exec", 1, 2, 25, 80},
  };
  const auto self = pb::self_times_ns(spans);
  check(self[0] == 0, "request is covered by submit + wait");
  check(self[1] == 10 && self[3] == 25 && self[4] == 55, "leaf spans");
  check(self[2] == 20, "wait self time is the handoff gap");
}

void test_handoff() {
  pb::Stages s{25, 0, 0, 55, 0};
  check(pb::handoff_gap_ns(100, 10, s) == 20,
        "submit inside the queue stage is counted once");
  check(pb::handoff_gap_ns(100, 40, s) == 5,
        "a submit longer than the queue stage is subtracted instead");
  pb::Stages all{10, 5, 5, 30, 20};
  check(pb::handoff_gap_ns(100, 2, all) == 30, "every stage subtracts");
  check(pb::handoff_gap_ns(50, 2, all) == -20,
        "stages overrunning the client clock give a negative gap");
}

pb::LadderStep step(double rate, int n, double lat, std::size_t failed = 0,
                    std::vector<double> backlog = {1, 1, 1, 1, 1, 1}) {
  pb::LadderStep s;
  s.rate_rps = rate;
  s.latencies_us.assign(static_cast<std::size_t>(n), lat);
  s.attempted = static_cast<std::size_t>(n);
  s.failed = failed;
  s.backlog = std::move(backlog);
  return s;
}

void test_ladder() {
  using pb::max_rate_at_slo;
  // At 320 requests/s the floor is 50 ms of arrivals: 16 requests.
  check(!pb::backlog_grows({2, 3, 2, 3, 2, 3}, 320), "flat backlog");
  check(pb::backlog_grows({1, 1, 50, 100, 150, 200}, 320), "growing backlog");
  check(!pb::backlog_grows({1, 1, 10, 12, 14, 16}, 320),
        "growth under 50 ms of arrivals is noise");
  check(pb::backlog_grows({40, 40, 60, 70, 90, 90}, 320),
        "doubling above the floor grows");
  check(!pb::backlog_grows({1, 1, 50, 100, 150, 200}, 10'000),
        "the floor scales with the rate");

  const std::vector<pb::LadderStep> pass = {step(100, 1000, 50),
                                            step(200, 1000, 80),
                                            step(300, 1000, 200)};
  check(max_rate_at_slo(pass, 100) == 200, "highest step within the SLO");
  check(max_rate_at_slo(pass, 1000) == 300, "every step passes");
  check(max_rate_at_slo(pass, 10) == 0, "first step misses");
  // The p99 is read from the latencies: one slow request in 1000 is below
  // p99, eleven are not.
  auto s = step(100, 1000, 50);
  s.latencies_us[0] = 1e6;
  check(pb::step_meets_slo(s, 100), "a single outlier sits beyond p99");
  for (int i = 0; i < 11; ++i) s.latencies_us[static_cast<std::size_t>(i)] = 1e6;
  check(!pb::step_meets_slo(s, 100), "eleven outliers reach p99");
  check(!pb::step_meets_slo(step(100, 500, 50), 100),
        "p99 without ten samples beyond does not pass");
  check(!pb::step_meets_slo(step(100, 1000, 50, 1), 100),
        "a failed request is a miss");
  check(!pb::step_meets_slo(step(100, 1000, 50, 0, {1, 1, 100, 200, 300, 400}), 100),
        "a growing backlog is a miss");
  auto ab = step(100, 1000, 50);
  ab.aborted = true;
  check(!pb::step_meets_slo(ab, 100), "an aborted step is a miss");
  // A pass above a miss does not count.
  const std::vector<pb::LadderStep> gap = {step(100, 1000, 50),
                                           step(200, 1000, 50, 3),
                                           step(300, 1000, 50)};
  check(max_rate_at_slo(gap, 100) == 100, "the ladder stops at the first miss");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_handoff();
  test_ladder();
  if (failures == 0) std::printf("perfbench metrics: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
