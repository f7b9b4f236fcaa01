// What one run reports: the metrics of the final JSON line, metrics that
// are only printed, and free-form notes for the detail line.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"

namespace pb {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;  // the JSON result
  std::vector<Metric> printed;  // printed by name, not in the JSON result
  std::vector<std::pair<std::string, std::string>> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void print(std::string name, double value, std::string unit) {
    printed.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }

  // `base`_p50 and `base`_p99 in microseconds from raw samples, noting the
  // sample count and how many lie beyond p99 (a p99 needs ten).
  void add_p50_p99(const std::string& base, std::vector<double> us) {
    std::sort(us.begin(), us.end());
    const auto p50 = percentile_sorted(us, 0.50);
    const auto p99 = percentile_sorted(us, 0.99);
    add(base + "_p50", p50.value, "us");
    add(base + "_p99", p99.value, "us");
    note(base + ".samples", std::to_string(us.size()));
    note(base + ".p99_beyond", std::to_string(p99.beyond));
  }
};

inline std::string join(const std::vector<std::string>& parts,
                        const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace pb
