// Liveness / readiness / overload snapshots for the job service, derived
// from the obs::MetricsRegistry the service records into (DESIGN.md §9).
//
// The service continuously maintains "serve.*" counters and gauges; a
// health probe is a pure read of a registry snapshot — no service lock, no
// coupling to JobService internals, and the same series are what the
// Prometheus exposition (obs/prom.hpp, --prom-out) carries, so a dashboard
// and a health check can never disagree about what the service believes.
//
//   live        the service object exists and is publishing gauges
//   ready       accepting new jobs (not draining)
//   overloaded  the admission queue has crossed the overload hysteresis
//               band (entered above the ladder's high watermark, not yet
//               back below the low watermark), or any breaker is open
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace popbean::serve {

// Two-threshold overload latch. The raw occupancy comparison
// (occupancy >= high ? 1 : 0) flaps on every poll when load hovers at the
// boundary — each 1→0→1 edge looks like a fresh overload event to anything
// watching the health endpoint. The latch enters overload at `enter`, exits
// only at or below `exit`, and holds its last state in between, so one
// sustained episode reads as one transition pair.
class OverloadHysteresis {
 public:
  OverloadHysteresis(double enter, double exit) : enter_(enter), exit_(exit) {
    POPBEAN_CHECK_MSG(exit <= enter,
                      "overload hysteresis exit threshold must not exceed "
                      "the enter threshold");
  }

  bool update(double occupancy) {
    if (occupancy >= enter_) {
      overloaded_ = true;
    } else if (occupancy <= exit_) {
      overloaded_ = false;
    }
    return overloaded_;
  }

  bool overloaded() const noexcept { return overloaded_; }
  double enter_threshold() const noexcept { return enter_; }
  double exit_threshold() const noexcept { return exit_; }

 private:
  double enter_;
  double exit_;
  bool overloaded_ = false;
};

struct HealthSnapshot {
  bool live = false;
  bool ready = false;
  bool overloaded = false;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t inflight = 0;
  int degradation_level = 0;
  std::size_t breakers_open = 0;
  std::uint64_t breaker_opens = 0;   // closed/half-open → open transitions
  std::uint64_t breaker_closes = 0;  // half-open → closed transitions
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t invalid = 0;
  std::uint64_t completed = 0;   // done + truncated
  std::uint64_t truncated = 0;
  std::uint64_t failed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;        // queued jobs evicted by ladder/policy
  // Replicated-voting health (DESIGN.md §12).
  std::uint64_t voted = 0;             // voted attempts (k > 1)
  std::uint64_t divergences = 0;       // voted attempts with a minority
  std::uint64_t no_majority = 0;       // voted attempts with no winner
  std::uint64_t quarantine_entered = 0;
  std::uint64_t quarantine_recovered = 0;
  std::uint64_t quarantined_jobs = 0;  // jobs forced unvoted by quarantine
  std::size_t quarantined_families = 0;
};

namespace detail {

inline std::uint64_t counter_value(const obs::MetricsRegistry::Snapshot& snap,
                                   std::string_view name) {
  for (const auto& [counter_name, value] : snap.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

inline double gauge_value(const obs::MetricsRegistry::Snapshot& snap,
                          std::string_view name, double fallback = 0.0) {
  for (const auto& [gauge_name, value] : snap.gauges) {
    if (gauge_name == name) return value;
  }
  return fallback;
}

}  // namespace detail

// Builds a health view from a registry snapshot. A registry that has never
// seen a service (no serve.live gauge) reports !live, !ready.
inline HealthSnapshot derive_health(const obs::MetricsRegistry& registry) {
  const obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  HealthSnapshot health;
  health.live = detail::gauge_value(snap, "serve.live") > 0.5;
  health.ready =
      health.live && detail::gauge_value(snap, "serve.draining") < 0.5;
  health.queue_depth =
      static_cast<std::size_t>(detail::gauge_value(snap, "serve.queue_depth"));
  health.queue_capacity = static_cast<std::size_t>(
      detail::gauge_value(snap, "serve.queue_capacity"));
  health.inflight =
      static_cast<std::size_t>(detail::gauge_value(snap, "serve.inflight"));
  health.degradation_level =
      static_cast<int>(detail::gauge_value(snap, "serve.degradation_level"));
  health.breakers_open =
      static_cast<std::size_t>(detail::gauge_value(snap, "serve.breakers_open"));
  health.overloaded = detail::gauge_value(snap, "serve.overloaded") > 0.5 ||
                      health.breakers_open > 0;
  health.breaker_opens = detail::counter_value(snap, "serve.breaker_opens");
  health.breaker_closes = detail::counter_value(snap, "serve.breaker_closes");
  health.accepted = detail::counter_value(snap, "serve.accepted");
  health.rejected = detail::counter_value(snap, "serve.rejected");
  health.invalid = detail::counter_value(snap, "serve.invalid");
  health.completed = detail::counter_value(snap, "serve.completed");
  health.truncated = detail::counter_value(snap, "serve.truncated");
  health.failed = detail::counter_value(snap, "serve.failed");
  health.timeouts = detail::counter_value(snap, "serve.timeouts");
  health.retries = detail::counter_value(snap, "serve.retries");
  health.shed = detail::counter_value(snap, "serve.shed");
  health.voted = detail::counter_value(snap, "serve.vote.voted");
  health.divergences = detail::counter_value(snap, "serve.vote.divergences");
  health.no_majority = detail::counter_value(snap, "serve.vote.no_majority");
  health.quarantine_entered =
      detail::counter_value(snap, "serve.vote.quarantine_entered");
  health.quarantine_recovered =
      detail::counter_value(snap, "serve.vote.quarantine_recovered");
  health.quarantined_jobs =
      detail::counter_value(snap, "serve.vote.quarantined_jobs");
  health.quarantined_families = static_cast<std::size_t>(
      detail::gauge_value(snap, "serve.vote.quarantined_families"));
  return health;
}

}  // namespace popbean::serve
