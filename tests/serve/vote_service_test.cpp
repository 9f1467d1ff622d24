// Replicated voting through the full JobService (serve/service.hpp +
// serve/replicate.hpp): labelled responses, divergence detection and
// capture, the quarantine ladder, and the k = 1 bit-exactness contract.
//
// Chaos is keyed on job ids, so every scenario is scripted; runs are
// deterministic for a fixed seed.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/telemetry.hpp"
#include "population/with_engine.hpp"
#include "population/run.hpp"
#include "protocols/four_state.hpp"
#include "serve/replicate.hpp"
#include "util/rng.hpp"

namespace popbean::serve {
namespace {

using namespace std::chrono_literals;

class Collector {
 public:
  void operator()(const JobResponse& response) {
    std::lock_guard lock(mutex_);
    responses_.push_back(response);
    cv_.notify_all();
  }

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
  config.degradation.escalate_after = 10'000ms;  // ladder quiet
  return config;
}

TEST(VoteServiceTest, VotedResponsesCarryTheReplicationLabels) {
  ServiceConfig config = base_config(1);
  config.vote_replicas = 3;
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("agree", 2)));
  const JobResponse response = collector.await("agree");
  EXPECT_EQ(response.outcome, JobOutcome::kDone);
  EXPECT_TRUE(response.voted);
  EXPECT_EQ(response.replicas_used, 3u);
  EXPECT_EQ(response.divergent, 0u);
  EXPECT_FALSE(response.quarantined);
  // Healthy replicas agree bit-for-bit, so the winner's stats are a full
  // clean run.
  EXPECT_EQ(response.result.replicates_run, 2u);
  EXPECT_EQ(response.result.correct, 2u);
  EXPECT_EQ(service.health().voted, 1u);
  EXPECT_EQ(service.health().divergences, 0u);
  EXPECT_EQ(service.vote_state("four-state"),
            CircuitBreaker::VoteState::kVoting);
}

TEST(VoteServiceTest, PerJobReplicasOverrideTheServiceDefault) {
  Collector collector;
  JobService service(base_config(1),
                     [&](const JobResponse& r) { collector(r); });
  JobSpec spec = quick_job("override");
  spec.vote_replicas = 5;
  EXPECT_TRUE(service.submit(std::move(spec)));
  const JobResponse response = collector.await("override");
  EXPECT_TRUE(response.voted);
  EXPECT_EQ(response.replicas_used, 5u);
  // And the unvoted default stays unvoted.
  EXPECT_TRUE(service.submit(quick_job("plain")));
  const JobResponse plain = collector.await("plain");
  EXPECT_FALSE(plain.voted);
  EXPECT_EQ(plain.replicas_used, 1u);
}

TEST(VoteServiceTest, EvenReplicaCountsAreRejectedUpFront) {
  // Config-level validation happens at construction…
  ServiceConfig config = base_config(1);
  config.vote_replicas = 2;
  EXPECT_THROW(
      JobService(config, [](const JobResponse&) {}), std::logic_error);
  // …and a spec smuggling an even k past the codec fails its job rather
  // than tying a vote.
  Collector collector;
  JobService service(base_config(1),
                     [&](const JobResponse& r) { collector(r); });
  JobSpec spec = quick_job("even");
  spec.vote_replicas = 4;
  EXPECT_TRUE(service.submit(std::move(spec)));
  const JobResponse response = collector.await("even");
  EXPECT_EQ(response.outcome, JobOutcome::kFailed);
  EXPECT_NE(response.error.find("odd"), std::string::npos) << response.error;
}

TEST(VoteServiceTest, CorruptMinorityIsOutvotedAndCaptured) {
  const std::string capture_dir =
      ::testing::TempDir() + "popbean_vote_captures";
  std::filesystem::remove_all(capture_dir);
  std::ostringstream telemetry_lines;
  obs::TelemetrySink telemetry(telemetry_lines);

  ServiceConfig config = base_config(1);
  config.vote_replicas = 3;
  config.chaos_corrupt_rate = 0.9;  // the corrupt replica cannot converge
  config.vote_capture_dir = capture_dir;
  config.telemetry = &telemetry;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id == "struck" ? ChaosAction::kCorrupt
                                   : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  EXPECT_TRUE(service.submit(quick_job("struck", 2)));
  const JobResponse response = collector.await("struck");

  // The vote masked the corruption: done, correct, but labelled divergent.
  EXPECT_EQ(response.outcome, JobOutcome::kDone);
  EXPECT_TRUE(response.voted);
  EXPECT_EQ(response.divergent, 1u);
  EXPECT_EQ(response.result.wrong, 0u);
  EXPECT_EQ(response.result.correct, 2u);
  EXPECT_EQ(service.health().divergences, 1u);

  // The minority replica was frozen as a replayable capture pair.
  std::size_t capture_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(capture_dir)) {
    (void)entry;
    ++capture_files;
  }
  EXPECT_EQ(capture_files, 2u);  // header + log

  // And telemetry names the exact minority run.
  const std::string events = telemetry_lines.str();
  EXPECT_NE(events.find("vote_divergence"), std::string::npos);
  EXPECT_NE(events.find("\"minority_replica\": 2"), std::string::npos)
      << events;
  EXPECT_NE(events.find("capture_header"), std::string::npos);
  std::filesystem::remove_all(capture_dir);
}

TEST(VoteServiceTest, RepeatedDivergenceQuarantinesThenProbationRecovers) {
  ServiceConfig config = base_config(1);
  config.vote_replicas = 3;
  config.chaos_corrupt_rate = 0.9;
  config.breaker.quarantine_divergences = 1;  // trip on the first divergence
  config.breaker.quarantine_cooldown = 200ms;
  config.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id.rfind("div", 0) == 0 ? ChaosAction::kCorrupt
                                            : ChaosAction::kNone;
  };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });

  // One corrupt vote quarantines the family.
  EXPECT_TRUE(service.submit(quick_job("div-1")));
  const JobResponse diverged = collector.await("div-1");
  EXPECT_EQ(diverged.outcome, JobOutcome::kDone);
  EXPECT_EQ(diverged.divergent, 1u);
  EXPECT_EQ(service.vote_state("four-state"),
            CircuitBreaker::VoteState::kQuarantined);
  EXPECT_EQ(service.health().quarantine_entered, 1u);

  // While quarantined, jobs degrade to single-replica and say so.
  EXPECT_TRUE(service.submit(quick_job("gated")));
  const JobResponse gated = collector.await("gated");
  EXPECT_EQ(gated.outcome, JobOutcome::kDone);
  EXPECT_FALSE(gated.voted);
  EXPECT_TRUE(gated.quarantined);
  EXPECT_EQ(gated.replicas_used, 1u);
  EXPECT_EQ(service.health().quarantined_jobs, 1u);
  EXPECT_EQ(service.health().quarantined_families, 1u);

  // After the cooldown the family goes on probation; a clean voted run
  // recovers it to full voting.
  std::this_thread::sleep_for(300ms);
  EXPECT_TRUE(service.submit(quick_job("probe")));
  const JobResponse probe = collector.await("probe");
  EXPECT_TRUE(probe.voted);
  EXPECT_FALSE(probe.quarantined);
  EXPECT_EQ(service.vote_state("four-state"),
            CircuitBreaker::VoteState::kVoting);
  EXPECT_EQ(service.health().quarantine_recovered, 1u);
  EXPECT_EQ(service.health().quarantined_families, 0u);
}

TEST(VoteServiceTest, CorruptingEveryReplicaFailsWithNoMajority) {
  ServiceConfig config = base_config(1);
  config.vote_replicas = 3;
  config.max_retries = 0;
  // A moderate rate lets corrupted replicas converge to *different*
  // decisions (or not at all) on their independent streams — all three
  // payloads disagree and no candidate reaches 2 of 3. (Too little
  // corruption and everyone still converges correctly; too much and all
  // replicas hit the step limit with *identical* payloads — a unanimous
  // wrong vote, not a tie.)
  config.chaos_corrupt_rate = 0.02;
  config.chaos = [](const ChaosContext&) { return ChaosAction::kCorruptAll; };
  Collector collector;
  JobService service(config, [&](const JobResponse& r) { collector(r); });
  JobSpec spec = quick_job("hopeless", 2);
  spec.seed = 4;  // chosen so the three corrupt payloads are pairwise distinct
  EXPECT_TRUE(service.submit(std::move(spec)));
  const JobResponse response = collector.await("hopeless");
  EXPECT_EQ(response.outcome, JobOutcome::kFailed);
  EXPECT_EQ(response.error, "no_majority");
  EXPECT_EQ(response.divergent, 3u);  // every live replica in a minority
  EXPECT_EQ(service.health().no_majority, 1u);
  EXPECT_EQ(service.health().divergences, 1u);
}

TEST(VoteServiceTest, SingleReplicaIsBitIdenticalToDirectSimulation) {
  // The k = 1 contract: replica 0 reuses the legacy stream layout, so an
  // unvoted service job must reproduce a hand-rolled simulation exactly —
  // including the stream-dependent statistics.
  JobSpec spec = quick_job("exact", 3);
  spec.seed = 123;

  Collector collector;
  JobService service(base_config(1),
                     [&](const JobResponse& r) { collector(r); });
  JobSpec submitted = spec;
  EXPECT_TRUE(service.submit(std::move(submitted)));
  const JobResponse response = collector.await("exact");
  ASSERT_EQ(response.outcome, JobOutcome::kDone);
  EXPECT_FALSE(response.voted);

  const FourStateProtocol protocol{};
  const MajorityInstance instance = make_instance(spec.n, spec.epsilon);
  const Counts initial = majority_instance_with_margin(
      protocol, instance.n, instance.margin, instance.majority);
  JobResult expected;
  double time_sum = 0.0;
  for (std::uint32_t r = 0; r < spec.replicates; ++r) {
    Xoshiro256ss rng(spec.seed, replica_stream(0, r, 0));
    const RunResult run = with_engine(
        job_engine(protocol.num_states(), spec.n), protocol, initial, rng,
        [&](auto& engine) {
          return run_to_convergence(engine, rng,
                                    spec.effective_max_interactions());
        });
    ++expected.replicates_run;
    ASSERT_EQ(run.status, RunStatus::kConverged);
    ++expected.converged;
    time_sum += run.parallel_time;
    if (run.decided == instance.correct_output()) {
      ++expected.correct;
    } else {
      ++expected.wrong;
    }
  }
  expected.mean_parallel_time =
      time_sum / static_cast<double>(expected.converged);

  EXPECT_EQ(response.result.replicates_run, expected.replicates_run);
  EXPECT_EQ(response.result.converged, expected.converged);
  EXPECT_EQ(response.result.correct, expected.correct);
  EXPECT_EQ(response.result.wrong, expected.wrong);
  // Bit-exact double equality, not approximate: same streams, same runs.
  EXPECT_EQ(response.result.mean_parallel_time, expected.mean_parallel_time);
}

}  // namespace
}  // namespace popbean::serve
