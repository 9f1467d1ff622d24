// JobService end to end (serve/service.hpp): the exactly-one-response
// contract, retries under chaos, circuit breaking, deadlines (queued and
// watchdog-abandoned), the degradation ladder, and drain semantics.
//
// Chaos is injected deterministically by job id, so every scenario is
// scripted — no probabilistic flakiness. Waits are generous (seconds)
// because CI runs on loaded single-core machines; tests pass as soon as
// the condition holds.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/avc.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "zoo/registry.hpp"

namespace popbean::serve {
namespace {

using namespace std::chrono_literals;

// Thread-safe response sink with a blocking lookup.
class Collector {
 public:
  void operator()(const JobResponse& response) {
    std::lock_guard lock(mutex_);
    responses_.push_back(response);
    cv_.notify_all();
  }

  // Blocks until a response for `id` exists; fails the test on timeout.
  JobResponse await(const std::string& id,
                    std::chrono::milliseconds timeout = 20'000ms) {
    std::unique_lock lock(mutex_);
    const bool ok = cv_.wait_for(lock, timeout, [&] {
      return find_locked(id) != nullptr;
    });
    EXPECT_TRUE(ok) << "no response for " << id;
    const JobResponse* found = find_locked(id);
    return found != nullptr ? *found : JobResponse{};
  }

  std::size_t count(const std::string& id) {
    std::lock_guard lock(mutex_);
    std::size_t n = 0;
    for (const JobResponse& r : responses_) {
      if (r.id == id) ++n;
    }
    return n;
  }

  std::size_t total() {
    std::lock_guard lock(mutex_);
    return responses_.size();
  }

 private:
  const JobResponse* find_locked(const std::string& id) const {
    for (const JobResponse& r : responses_) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<JobResponse> responses_;
};

// A small four-state job that completes in well under a second.
JobSpec quick_job(std::string id, std::uint32_t replicates = 1) {
  JobSpec spec;
  spec.id = std::move(id);
  spec.protocol = "four-state";
  spec.n = 60;
  spec.epsilon = 0.2;
  spec.seed = 7;
  spec.replicates = replicates;
  return spec;
}

ServiceConfig base_config(std::size_t threads = 1) {
  ServiceConfig config;
  config.threads = threads;
  config.admission.capacity = 16;
  config.backoff = BackoffPolicy{1ms, 4ms};
  config.default_deadline = 10'000ms;
  config.drain_deadline = 20'000ms;
  config.degradation.escalate_after = 10'000ms;  // ladder quiet by default
  return config;
}

// The service's engine rule, over the protocols a job can name: skip for
// s ≤ 8 at any n; otherwise agent up to kJobAgentMaxN agents, then count.
TEST(JobEngineTest, SkipForSmallProtocolsElseAgentThenCount) {
  const auto pick = [](const auto& protocol, std::uint64_t n) {
    return job_engine(protocol.num_states(), n);
  };
  for (const std::uint64_t n : {100ULL, 300ULL, 100'000'000ULL}) {
    EXPECT_EQ(pick(FourStateProtocol{}, n), EngineKind::kSkip) << n;
    EXPECT_EQ(pick(ThreeStateProtocol{}, n), EngineKind::kSkip) << n;
    EXPECT_EQ(pick(avc::AvcProtocol(3, 1), n), EngineKind::kSkip) << n;
  }
  const avc::AvcProtocol avc63(63, 1);
  EXPECT_EQ(pick(avc63, 300), EngineKind::kAgent);
  EXPECT_EQ(pick(avc63, kJobAgentMaxN), EngineKind::kAgent);
  EXPECT_EQ(pick(avc63, kJobAgentMaxN + 1), EngineKind::kCount);
  for (const char* zoo_spec : {"zoo:doubling", "zoo:berenbrink"}) {
    zoo::with_zoo_runtime(zoo_spec, [&](const auto& runtime) {
      EXPECT_GT(runtime.num_states(), 8u) << zoo_spec;
      EXPECT_EQ(pick(runtime, 300), EngineKind::kAgent) << zoo_spec;
      EXPECT_EQ(pick(runtime, kJobAgentMaxN + 1), EngineKind::kCount)
          << zoo_spec;
    });
  }
}

TEST(ServiceTest, EveryAdmittedJobGetsExactlyOneDoneResponse) {
  Collector collector;
  {
    JobService service(base_config(2),
                       [&](const JobResponse& r) { collector(r); });
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(service.submit(quick_job("job-" + std::to_string(i), 2)));
    }
    EXPECT_TRUE(service.drain(20'000ms));
  }
  EXPECT_EQ(collector.total(), 8u);
  for (int i = 0; i < 8; ++i) {
    const std::string id = "job-" + std::to_string(i);
    EXPECT_EQ(collector.count(id), 1u);
    const JobResponse response = collector.await(id);
    EXPECT_EQ(response.outcome, JobOutcome::kDone) << id;
    EXPECT_EQ(response.attempts, 1u);
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.result.replicates_run, 2u);
    EXPECT_EQ(response.result.converged, 2u) << id;
    EXPECT_EQ(response.result.correct, 2u) << id;
  }
}

TEST(ServiceTest, DrainingServiceRejectsNewSubmissions) {
  Collector collector;
  JobService service(base_config(1),
                     [&](const JobResponse& r) { collector(r); });
  service.begin_drain();
  EXPECT_FALSE(service.submit(quick_job("late")));
  const JobResponse response = collector.await("late");
  EXPECT_EQ(response.outcome, JobOutcome::kOverloaded);
  EXPECT_EQ(response.error, "draining");
  EXPECT_FALSE(service.health().ready);
  EXPECT_TRUE(service.health().live);
  EXPECT_EQ(service.health().rejected, 1u);
}

TEST(ServiceTest, ChaosFailureIsRetriedUnderBackoffThenSucceeds) {
  ServiceConfig config = base_config(1);
  config.max_retries = 2;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.attempt == 0 ? ChaosAction::kFail : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("flaky")));
  const JobResponse response = collector.await("flaky");
  EXPECT_EQ(response.outcome, JobOutcome::kDone);
  EXPECT_EQ(response.attempts, 2u);  // one chaos failure + one clean run
  EXPECT_EQ(service.health().retries, 1u);
  // The job's single breaker record was the final success.
  EXPECT_EQ(service.breaker_state("four-state"),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.health().breaker_opens, 0u);
}

TEST(ServiceTest, ExhaustedRetriesFailTheJob) {
  ServiceConfig config = base_config(1);
  config.max_retries = 1;
  config.chaos = [](const ChaosContext&) { return ChaosAction::kFail; };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("doomed")));
  const JobResponse response = collector.await("doomed");
  EXPECT_EQ(response.outcome, JobOutcome::kFailed);
  EXPECT_EQ(response.error, "chaos_fail");
  EXPECT_EQ(response.attempts, 2u);  // 1 + max_retries
}

TEST(ServiceTest, BreakerOpensFastFailsThenRecoversAfterCooldown) {
  ServiceConfig config = base_config(1);
  config.max_retries = 0;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown = 500ms;
  config.breaker.half_open_probes = 1;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id.rfind("bad", 0) == 0 ? ChaosAction::kFail
                                            : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });

  // Two consecutive failures trip the four-state breaker.
  EXPECT_TRUE(service.submit(quick_job("bad-1")));
  EXPECT_EQ(collector.await("bad-1").error, "chaos_fail");
  EXPECT_TRUE(service.submit(quick_job("bad-2")));
  EXPECT_EQ(collector.await("bad-2").error, "chaos_fail");
  EXPECT_EQ(service.breaker_state("four-state"), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.health().breaker_opens, 1u);
  EXPECT_TRUE(service.health().overloaded);  // an open breaker alone

  // While open, a healthy job fast-fails without burning a worker.
  EXPECT_TRUE(service.submit(quick_job("blocked")));
  const JobResponse blocked = collector.await("blocked");
  EXPECT_EQ(blocked.outcome, JobOutcome::kFailed);
  EXPECT_EQ(blocked.error, "circuit_open");
  EXPECT_EQ(blocked.attempts, 0u);  // vetoed before the attempt loop

  // After the cooldown a probe succeeds and closes the breaker.
  std::this_thread::sleep_for(700ms);
  EXPECT_TRUE(service.submit(quick_job("probe")));
  EXPECT_EQ(collector.await("probe").outcome, JobOutcome::kDone);
  EXPECT_EQ(service.breaker_state("four-state"),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.health().breaker_closes, 1u);
}

TEST(ServiceTest, DeadlineExpiredInQueueIsATimeoutTheBreakerNeverSees) {
  ServiceConfig config = base_config(1);
  config.chaos_slow = 400ms;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id == "wedge" ? ChaosAction::kSlow : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("wedge")));  // holds the only worker
  JobSpec rushed = quick_job("rushed");
  rushed.deadline = 50ms;  // expires long before the 400ms wedge lifts
  EXPECT_TRUE(service.submit(rushed));

  const JobResponse response = collector.await("rushed");
  EXPECT_EQ(response.outcome, JobOutcome::kTimeout);
  EXPECT_EQ(response.error, "deadline expired in queue");
  EXPECT_EQ(response.attempts, 0u);
  EXPECT_EQ(collector.await("wedge").outcome, JobOutcome::kDone);
  // A job that never ran teaches the breaker nothing about the protocol.
  EXPECT_EQ(service.breaker_state("four-state"),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.health().timeouts, 1u);
}

TEST(ServiceTest, WatchdogAbandonsAWedgedWorkerPastDeadlinePlusGrace) {
  ServiceConfig config = base_config(1);
  config.stop_check_interval = 1;    // observe the abandon flag promptly
  config.watchdog_interval = 10ms;
  config.watchdog_grace = 30ms;
  config.chaos_slow = 5'000ms;       // wedge far longer than the deadline
  config.chaos = [](const ChaosContext&) { return ChaosAction::kSlow; };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  JobSpec wedged = quick_job("wedged");
  wedged.deadline = 100ms;
  EXPECT_TRUE(service.submit(wedged));

  // The wedge does not poll the deadline; only the watchdog can unstick it
  // (and it must do so in ~130ms, not after the full 5s stall).
  const JobResponse response = collector.await("wedged", 4'000ms);
  EXPECT_EQ(response.outcome, JobOutcome::kTimeout);
  EXPECT_EQ(response.error, "watchdog_abandoned");
  const auto snap = service.metrics().snapshot();
  std::uint64_t abandons = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve.watchdog_abandons") abandons = value;
  }
  EXPECT_GE(abandons, 1u);
}

TEST(ServiceTest, LadderRungOneShrinksReplicationWithHysteresis) {
  ServiceConfig config = base_config(1);
  config.admission.capacity = 4;
  config.degradation.high_watermark = 0.5;
  config.degradation.low_watermark = 0.25;
  config.degradation.escalate_after = 10'000ms;  // stay on rung 1
  config.chaos_slow = 400ms;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id == "wedge" ? ChaosAction::kSlow : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("wedge")));  // occupies the worker
  EXPECT_TRUE(service.submit(quick_job("d2", 4)));
  EXPECT_TRUE(service.submit(quick_job("d3", 4)));  // occupancy hits 0.5
  EXPECT_TRUE(service.submit(quick_job("d4", 4)));
  EXPECT_EQ(service.degradation_level(), 1);

  // d2 runs while the ladder is armed: one replicate, flagged degraded.
  const JobResponse d2 = collector.await("d2");
  EXPECT_EQ(d2.outcome, JobOutcome::kDone);
  EXPECT_TRUE(d2.degraded);
  EXPECT_EQ(d2.result.replicates_run, 1u);
  // By d4 the queue has fallen to the low watermark and the ladder reset:
  // full replication again.
  const JobResponse d4 = collector.await("d4");
  EXPECT_EQ(d4.outcome, JobOutcome::kDone);
  EXPECT_FALSE(d4.degraded);
  EXPECT_EQ(d4.result.replicates_run, 4u);
}

TEST(ServiceTest, LadderRungThreeShedsAndRungTwoTruncates) {
  ServiceConfig config = base_config(1);
  config.admission.capacity = 4;
  config.degradation.high_watermark = 0.5;
  config.degradation.low_watermark = 0.25;
  config.degradation.escalate_after = 0ms;  // escalate to rung 3 instantly
  config.degradation.truncate_interactions = 500;
  config.chaos_slow = 400ms;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id == "wedge" ? ChaosAction::kSlow : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("wedge")));
  EXPECT_TRUE(service.submit(quick_job("p2", 2)));
  JobSpec low3 = quick_job("p3");
  low3.priority = JobPriority::kLow;
  EXPECT_TRUE(service.submit(low3));  // occupancy 0.5: rung 3 arms
  JobSpec low4 = quick_job("p4");
  low4.priority = JobPriority::kLow;
  // Pushes occupancy past the watermark; rung 3 sheds the newest job of
  // the lowest class — p4 itself — back down to the watermark.
  service.submit(low4);
  const JobResponse shed = collector.await("p4");
  EXPECT_EQ(shed.outcome, JobOutcome::kOverloaded);
  EXPECT_EQ(shed.error, "shed_overload");
  EXPECT_EQ(service.degradation_level(), 3);
  EXPECT_GE(service.health().shed, 1u);

  // p2 executes on rung ≥ 2: its interaction cap shrinks below the spec's,
  // so the outcome is `truncated` (and replication fell to 1).
  const JobResponse p2 = collector.await("p2");
  EXPECT_EQ(p2.outcome, JobOutcome::kTruncated);
  EXPECT_TRUE(p2.degraded);
  EXPECT_EQ(p2.result.replicates_run, 1u);
}

TEST(ServiceTest, DrainPastBudgetFlushesQueuedJobsAndCancelsTheWedge) {
  ServiceConfig config = base_config(1);
  config.stop_check_interval = 1;
  config.chaos_slow = 5'000ms;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id == "wedge" ? ChaosAction::kSlow : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("wedge")));
  EXPECT_TRUE(service.submit(quick_job("q2")));
  EXPECT_TRUE(service.submit(quick_job("q3")));

  // The 5s wedge cannot finish inside a 100ms budget: drain reports an
  // unclean stop, but every admitted job still gets its one response.
  EXPECT_FALSE(service.drain(100ms));
  for (const std::string id : {"wedge", "q2", "q3"}) {
    EXPECT_EQ(collector.count(id), 1u) << id;
    const JobResponse response = collector.await(id);
    EXPECT_EQ(response.outcome, JobOutcome::kFailed) << id;
    EXPECT_EQ(response.error, "shutdown") << id;
  }
  EXPECT_EQ(service.health().failed, 3u);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.inflight(), 0u);
}

TEST(ServiceTest, ExternalRegistrySeesTheServiceLifecycle) {
  obs::MetricsRegistry registry;
  Collector collector;
  {
    ServiceConfig config = base_config(1);
    config.metrics = &registry;
    JobService service(config, [&](const JobResponse& r) { collector(r); });
    EXPECT_TRUE(derive_health(registry).live);
    EXPECT_TRUE(service.submit(quick_job("observed")));
    EXPECT_TRUE(service.drain(20'000ms));
  }
  // The service is gone; its final gauge flip survives in the registry.
  const HealthSnapshot health = derive_health(registry);
  EXPECT_FALSE(health.live);
  EXPECT_EQ(health.accepted, 1u);
  EXPECT_EQ(health.completed, 1u);
}

}  // namespace
}  // namespace popbean::serve
