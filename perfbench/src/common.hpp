// Shared vocabulary of the end-to-end benchmark: options, the result every
// workload returns, and the small statistics and timing helpers they share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget of one run
  bool trace = false;     // per-layer run instead of the end-to-end run
  Clock::time_point process_start;  // main() entry; setup_s starts here
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one workload run reports. `end_to_end` comes from untraced work
// only; `per_layer` is filled by traced runs. `table` holds extra lines for
// the human-readable report (output checks, 3-state errors, failed_frac).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> table;

  // Records one output check; a failed check counts in `failed` and makes
  // the run incorrect.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
    table.push_back(std::string(ok ? "check ok   " : "check FAIL ") + what);
  }

  void layer(const std::string& name, const char* unit, double value) {
    per_layer.push_back({name, unit, value});
  }
};

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

Result run_fig3(const Options& options);
Result run_thm41(const Options& options);
Result run_serve_tcp(const Options& options);

}  // namespace perfbench
