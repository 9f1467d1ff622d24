#include "loadgen.hpp"

#include <thread>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::vector<LoadClock::duration> poisson_schedule(double rate_per_s,
                                                  std::size_t count,
                                                  std::uint64_t seed) {
  POPBEAN_CHECK(rate_per_s > 0.0);
  popbean::Xoshiro256ss rng(seed, 0x10ad);
  std::vector<LoadClock::duration> schedule;
  schedule.reserve(count);
  double at_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    at_s += rng.exponential(rate_per_s);
    schedule.push_back(std::chrono::duration_cast<LoadClock::duration>(
        std::chrono::duration<double>(at_s)));
  }
  return schedule;
}

double LoadReport::achieved_rate() const {
  const double span =
      std::chrono::duration<double>(last_send - start).count();
  return span > 0.0 ? static_cast<double>(sent) / span : 0.0;
}

LoadReport run_open_loop(
    const std::vector<LoadClock::duration>& schedule,
    LoadClock::time_point start,
    const std::function<void(std::size_t, LoadClock::time_point)>& send) {
  LoadReport report;
  report.start = start;
  report.late_ms.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const LoadClock::time_point due = start + schedule[i];
    std::this_thread::sleep_until(due);
    const LoadClock::time_point now = LoadClock::now();
    report.late_ms.push_back(
        std::chrono::duration<double, std::milli>(now - due).count());
    send(i, due);
    report.last_send = now;
    ++report.sent;
  }
  return report;
}

}  // namespace perfbench
