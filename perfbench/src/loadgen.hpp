// Open-loop load generator: Poisson arrivals at absolute due times.
//
// The schedule is fixed before the run from the workload seed, and each
// request is sent at (or, when the generator falls behind, as soon as
// possible after) its own due time. It never waits for responses, so a
// slow server faces the same offered load and its backlog shows as
// latency, which callers measure from the due time, not from the send.
// The generator reports how late it ran against the schedule.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using LoadClock = std::chrono::steady_clock;

// Due offsets (from the run's start) of `count` Poisson arrivals at
// `rate_per_s`: exponential gaps drawn from a stream seeded by `seed`.
std::vector<LoadClock::duration> poisson_schedule(double rate_per_s,
                                                  std::size_t count,
                                                  std::uint64_t seed);

struct LoadReport {
  std::size_t sent = 0;
  LoadClock::time_point start;
  LoadClock::time_point last_send;
  std::vector<double> late_ms;  // send time − due time, per request

  // Requests per second over the span from start to the last send.
  double achieved_rate() const;
};

// Runs the schedule from `start`: waits for each due time, then calls
// send(index, due). A send that returns late delays the next ones, and
// that delay counts as lateness; it is never made up by skipping.
LoadReport run_open_loop(
    const std::vector<LoadClock::duration>& schedule,
    LoadClock::time_point start,
    const std::function<void(std::size_t, LoadClock::time_point)>& send);

}  // namespace perfbench
