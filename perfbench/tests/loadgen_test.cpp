// Self-test of the open-loop generator against a null sink: it must send
// exactly the scheduled count, at the target rate, on time, and the same
// seed must give the same schedule.
//
//   perfbench_loadgen_test        exit 0 = pass, 1 = a check failed
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "loadgen.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, double value) {
  std::printf("%s %-48s %.6g\n", ok ? "ok  " : "FAIL", what, value);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;
  constexpr double kRate = 5000.0;  // jobs/s, the rate the stress tool missed
  constexpr std::size_t kCount = 10000;

  const auto schedule = poisson_schedule(kRate, kCount, 42);
  expect(schedule == poisson_schedule(kRate, kCount, 42),
         "same seed, same schedule", 1.0);
  expect(schedule != poisson_schedule(kRate, kCount, 43),
         "other seed, other schedule", 1.0);
  expect(std::is_sorted(schedule.begin(), schedule.end()),
         "due times never decrease", 1.0);
  const double span =
      std::chrono::duration<double>(schedule.back()).count();
  // A Poisson count over the span has relative sd 1/sqrt(10000) = 1%.
  const double scheduled_rate = static_cast<double>(kCount) / span;
  expect(std::abs(scheduled_rate / kRate - 1.0) < 0.05,
         "scheduled rate within 5% of target (jobs/s)", scheduled_rate);

  std::size_t delivered = 0;
  const LoadReport report = run_open_loop(
      schedule, LoadClock::now(),
      [&delivered](std::size_t, LoadClock::time_point) { ++delivered; });
  expect(report.sent == kCount && delivered == kCount,
         "sent exactly the scheduled count", static_cast<double>(delivered));
  expect(std::abs(report.achieved_rate() / scheduled_rate - 1.0) < 0.02,
         "achieved rate within 2% of the schedule (jobs/s)",
         report.achieved_rate());
  std::vector<double> late = report.late_ms;
  std::sort(late.begin(), late.end());
  const double p99 = late[late.size() * 99 / 100];
  expect(late.front() >= 0.0, "never sends before its due time (ms)",
         late.front());
  expect(p99 < 2.0, "p99 lateness under 2 ms (ms)", p99);
  return failures == 0 ? 0 : 1;
}
