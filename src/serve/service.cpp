#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/perturbed_engine.hpp"
#include "faults/schedule_model.hpp"
#include "harness/experiment.hpp"
#include "obs/context.hpp"
#include "obs/pool_obs.hpp"
#include "population/with_engine.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "recovery/divergence.hpp"
#include "serve/replicate.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "verify/builtin_invariants.hpp"
#include "zoo/registry.hpp"

namespace popbean::serve {

namespace {

using FpMillis = std::chrono::duration<double, std::milli>;

enum class AttemptKind { kOk, kFailed, kTimeout, kShutdown };

// Vote evidence carried out of one attempt (zeroed for unvoted attempts and
// chaos-failed attempts that never ran replicas).
struct VoteSummary {
  bool voted = false;
  std::uint32_t replicas_run = 0;  // slots the executor was configured with
  std::uint32_t divergent = 0;
  std::uint32_t abandoned = 0;
  bool no_majority = false;
  bool divergence = false;  // any minority, or no majority at all
  // First minority replica, for telemetry and replay capture.
  bool has_minority = false;
  std::uint32_t minority_replica = 0;
  std::uint64_t minority_stream = 0;
  bool minority_corrupt = false;
  std::string capture_header;  // non-empty when a capture pair was written
  std::string capture_log;
};

struct Attempt {
  AttemptKind kind = AttemptKind::kFailed;
  JobResult result;
  std::string error;
  VoteSummary vote;
};

// Everything one attempt needs beyond the spec: the ladder-adjusted
// replication counts, the chaos corruption target, and the capture budget.
struct AttemptPlan {
  std::uint32_t replicates = 1;
  std::uint64_t max_interactions = 0;
  std::uint32_t vote_replicas = 1;
  int corrupt_replica = -1;  // -1 none, -2 every replica, else one index
  double corrupt_rate = 0.0;
  std::uint64_t attempt_index = 0;
  std::uint64_t poll_interval = 1024;
  std::uint64_t sequence = 0;
  std::string capture_dir;  // empty = captures off
  bool capture_allowed = false;
  // Request-scoped tracing (nullptr/0 = untraced): replica spans record
  // onto the job's async track.
  obs::TraceCollector* trace = nullptr;
  std::uint64_t trace_id = 0;
};

// Runs one voting replica: all statistical replicates on their own RNG
// streams (replicate.hpp's replica_stream — replica 0 reuses the legacy
// a·1000003 + r layout), on job_engine's pick for an honest replica and on
// the PerturbedEngine recovery::record_perturbed_run re-records for a
// corrupt one. Returns nullopt when interrupted (deadline / abandon /
// cancel), which the vote treats as a non-matching slot.
template <typename P, typename StopFn>
std::optional<ReplicaPayload> run_replica(
    const P& protocol, const JobSpec& spec, const Counts& initial,
    const MajorityInstance& instance, const AttemptPlan& plan, bool corrupt,
    std::uint32_t replica, const StopFn& should_stop) {
  // Per-replica span on the job's async track: replica index plus the RNG
  // stream of its first replicate (hex string args — 64-bit streams exceed
  // double precision). Recorded on every exit, including interruption.
  const auto replica_start = obs::TraceCollector::Clock::now();
  const auto record_replica = [&](bool interrupted) {
    if (plan.trace == nullptr || plan.trace_id == 0) return;
    plan.trace->async_span(
        "replica", "serve", plan.trace_id, replica_start,
        obs::TraceCollector::Clock::now(),
        {{"replica", static_cast<double>(replica)},
         {"attempt", static_cast<double>(plan.attempt_index)},
         {"corrupt", corrupt ? 1.0 : 0.0},
         {"interrupted", interrupted ? 1.0 : 0.0}},
        {{"stream0", obs::trace_id_hex(replica_stream(plan.attempt_index, 0,
                                                      replica))}});
  };
  ReplicaPayload payload;
  payload.corrupt = corrupt;
  double time_sum = 0.0;
  for (std::uint32_t r = 0; r < plan.replicates; ++r) {
    const std::uint64_t stream =
        replica_stream(plan.attempt_index, r, replica);
    Xoshiro256ss rng(spec.seed, stream);
    const auto run = [&](auto& engine) {
      return run_to_convergence_interruptible(
          engine, rng, plan.max_interactions, should_stop, plan.poll_interval);
    };
    std::optional<RunResult> result;
    if (corrupt) {
      auto engine = faults::make_perturbed(
          protocol, initial, faults::TransientCorruption(plan.corrupt_rate),
          faults::UniformSchedule{}, rng);
      result = run(engine);
    } else {
      result = with_engine(job_engine(protocol.num_states(), instance.n),
                           protocol, initial, rng, run);
    }
    if (!result) {
      record_replica(true);
      return std::nullopt;
    }
    payload.streams.push_back(stream);
    append_decision(payload.bytes, *result);
    ++payload.result.replicates_run;
    switch (result->status) {
      case RunStatus::kConverged:
        ++payload.result.converged;
        time_sum += result->parallel_time;
        if (result->decided == instance.correct_output()) {
          ++payload.result.correct;
        } else {
          ++payload.result.wrong;
        }
        break;
      case RunStatus::kStepLimit:
        ++payload.result.step_limit;
        break;
      case RunStatus::kAbsorbing:
        ++payload.result.absorbing;
        break;
    }
  }
  if (payload.result.converged > 0) {
    payload.result.mean_parallel_time =
        time_sum / static_cast<double>(payload.result.converged);
  }
  record_replica(false);
  return payload;
}

// Runs one attempt: k voting replicas sequentially, then a vote_memory-
// style majority over the canonical decision payloads. k = 1 degenerates to
// exactly the pre-voting single-run path (same streams, same result).
template <typename P, typename StopFn>
Attempt run_attempt(const P& protocol,
                    const verify::LinearInvariant& invariant,
                    const JobSpec& spec, const AttemptPlan& plan,
                    const StopFn& should_stop,
                    const std::atomic<bool>& cancel) {
  Attempt attempt;
  const MajorityInstance instance = make_instance(spec.n, spec.epsilon);
  const Counts initial = majority_instance_with_margin(
      protocol, instance.n, instance.margin, instance.majority);

  ReplicatedExecutor executor(plan.vote_replicas);
  std::vector<std::optional<ReplicaPayload>> slots;
  const VoteOutcome vote = executor.execute(slots, [&](std::uint32_t j) {
    const bool corrupt =
        plan.corrupt_replica == -2 ||
        (plan.corrupt_replica >= 0 &&
         static_cast<std::uint32_t>(plan.corrupt_replica) == j);
    return run_replica(protocol, spec, initial, instance, plan, corrupt, j,
                       should_stop);
  });

  attempt.vote.voted = vote.voted;
  attempt.vote.replicas_run = plan.vote_replicas;
  attempt.vote.divergent = vote.divergent;
  attempt.vote.abandoned = vote.abandoned;

  if (!vote.majority_found) {
    if (vote.abandoned > 0) {
      // Killed replicas, not disagreeing ones — the job ran out of time (or
      // the service is shutting down); the family is not to blame.
      attempt.kind = cancel.load(std::memory_order_relaxed)
                         ? AttemptKind::kShutdown
                         : AttemptKind::kTimeout;
      return attempt;
    }
    // Every replica finished and no payload reached a majority: the
    // strongest possible divergence evidence.
    attempt.vote.no_majority = true;
    attempt.vote.divergence = true;
    attempt.kind = AttemptKind::kFailed;
    attempt.error = "no_majority";
    return attempt;
  }

  const ReplicaPayload& winner = *slots[vote.winner];
  if (vote.divergent > 0) {
    attempt.vote.divergence = true;
    attempt.vote.has_minority = true;
    const std::uint32_t loser = vote.minority.front();
    const ReplicaPayload& minority = *slots[loser];
    const std::uint32_t group =
        first_diverging_replicate(winner, minority).value_or(0);
    const std::size_t idx =
        std::min<std::size_t>(group, minority.streams.size() - 1);
    attempt.vote.minority_replica = loser;
    attempt.vote.minority_stream = minority.streams[idx];
    attempt.vote.minority_corrupt = minority.corrupt;
    // Freeze the outvoted run for popbean-replay. Only corrupt replicas are
    // capturable (§7 recording needs an active fault model); a clean-vs-
    // clean divergence would be a real service bug, and telemetry still
    // carries its (seed, stream) pair.
    if (plan.capture_allowed && minority.corrupt &&
        !plan.capture_dir.empty()) {
      recovery::RecordSpec record;
      record.protocol_name = spec.protocol;
      record.seed = spec.seed;
      record.stream = attempt.vote.minority_stream;
      record.max_interactions = plan.max_interactions;
      record.rate = plan.corrupt_rate;
      record.epsilon = spec.epsilon;
      const std::string tag = "div-" + spec.id + "-seq" +
                              std::to_string(plan.sequence) + "-a" +
                              std::to_string(plan.attempt_index) + "-r" +
                              std::to_string(loser);
      if (const auto capture = recovery::record_divergent_replica(
              protocol, invariant, initial, plan.corrupt_rate, record,
              plan.capture_dir, tag)) {
        attempt.vote.capture_header = capture->header_path;
        attempt.vote.capture_log = capture->log_path;
      }
    }
  }

  attempt.kind = AttemptKind::kOk;
  attempt.result = winner.result;
  return attempt;
}

template <typename StopFn>
Attempt dispatch_attempt(const JobSpec& spec, const AttemptPlan& plan,
                         const StopFn& should_stop,
                         const std::atomic<bool>& cancel) {
  if (spec.protocol == "four-state") {
    return run_attempt(FourStateProtocol{},
                       verify::four_state_difference_invariant(), spec, plan,
                       should_stop, cancel);
  }
  if (spec.protocol == "three-state") {
    const ThreeStateProtocol protocol{};
    return run_attempt(protocol,
                       recovery::trivial_invariant(protocol.num_states()),
                       spec, plan, should_stop, cancel);
  }
  if (zoo::is_zoo_spec(spec.protocol)) {
    // Shared immutable runtimes (zoo/registry.hpp) — safe across workers.
    // An unknown member throws; execute() surfaces it as a failed job.
    return zoo::with_zoo_runtime(spec.protocol, [&](const auto& runtime) {
      return run_attempt(runtime,
                         recovery::trivial_invariant(runtime.num_states()),
                         spec, plan, should_stop, cancel);
    });
  }
  POPBEAN_CHECK_MSG(spec.protocol == "avc",
                    "JobService: unknown protocol " + spec.protocol);
  const avc::AvcProtocol protocol(spec.m, spec.d);
  return run_attempt(protocol, verify::avc_sum_invariant(protocol), spec,
                     plan, should_stop, cancel);
}

// Config/sink validation runs while the *first* members initialize, before
// the thread pool and watchdog threads exist — throwing from the constructor
// body after those threads start would std::terminate on the joinable
// std::thread member during unwinding.
ServiceConfig validated(ServiceConfig config) {
  POPBEAN_CHECK_MSG(
      config.vote_replicas >= 1 && config.vote_replicas % 2 == 1,
      "JobService: vote_replicas must be odd (even replica counts can tie "
      "and a tie has no majority)");
  return config;
}

JobService::ResponseFn validated(JobService::ResponseFn on_response) {
  POPBEAN_CHECK_MSG(on_response != nullptr,
                    "JobService: a response sink is required");
  return on_response;
}

}  // namespace

JobService::MetricIds JobService::register_metrics(
    obs::MetricsRegistry& registry) {
  const Histogram latency_shape = Histogram::logarithmic(1e-3, 3.6e6, 48);
  MetricIds ids;
  ids.accepted = registry.counter("serve.accepted");
  ids.rejected = registry.counter("serve.rejected");
  ids.invalid = registry.counter("serve.invalid");
  ids.completed = registry.counter("serve.completed");
  ids.truncated = registry.counter("serve.truncated");
  ids.failed = registry.counter("serve.failed");
  ids.timeouts = registry.counter("serve.timeouts");
  ids.retries = registry.counter("serve.retries");
  ids.shed = registry.counter("serve.shed");
  ids.circuit_open = registry.counter("serve.circuit_open");
  ids.watchdog_abandons = registry.counter("serve.watchdog_abandons");
  ids.breaker_opens = registry.counter("serve.breaker_opens");
  ids.breaker_closes = registry.counter("serve.breaker_closes");
  ids.voted = registry.counter("serve.vote.voted");
  ids.divergences = registry.counter("serve.vote.divergences");
  ids.no_majority = registry.counter("serve.vote.no_majority");
  ids.quarantine_entered = registry.counter("serve.vote.quarantine_entered");
  ids.quarantine_recovered =
      registry.counter("serve.vote.quarantine_recovered");
  ids.quarantined_jobs = registry.counter("serve.vote.quarantined_jobs");
  ids.captures = registry.counter("serve.vote.captures");
  ids.live = registry.gauge("serve.live");
  ids.draining = registry.gauge("serve.draining");
  ids.queue_depth = registry.gauge("serve.queue_depth");
  ids.queue_capacity = registry.gauge("serve.queue_capacity");
  ids.inflight = registry.gauge("serve.inflight");
  ids.degradation_level = registry.gauge("serve.degradation_level");
  ids.breakers_open = registry.gauge("serve.breakers_open");
  ids.overloaded = registry.gauge("serve.overloaded");
  ids.quarantined_families = registry.gauge("serve.vote.quarantined_families");
  ids.queue_ms = registry.histogram("serve.queue_ms", latency_shape);
  ids.run_ms = registry.histogram("serve.run_ms", latency_shape);
  return ids;
}

JobService::JobService(ServiceConfig config, ResponseFn on_response)
    : config_(validated(std::move(config))),
      on_response_(validated(std::move(on_response))),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? *config_.metrics
                                          : *owned_metrics_),
      ids_(register_metrics(metrics_)),
      queue_(config_.admission),
      breakers_(config_.breaker),
      overload_gauge_(config_.degradation.high_watermark,
                      config_.degradation.low_watermark),
      pool_(config_.threads),
      watchdog_([this] { watchdog_loop(); }) {
  // Observer attached before any submit — the pool's attach-then-submit
  // contract (thread_pool.hpp).
  obs::attach_thread_pool(pool_, metrics_);
  metrics_.set(ids_.live, 1.0);
  metrics_.set(ids_.queue_capacity,
               static_cast<double>(config_.admission.capacity));
}

JobService::~JobService() {
  drain(config_.drain_deadline);
  {
    std::lock_guard lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  pool_.shutdown();
  metrics_.set(ids_.live, 0.0);
}

void JobService::emit(JobResponse response) {
  response.shard = config_.shard_index;
  std::lock_guard lock(response_mutex_);
  on_response_(response);
}

JobResponse JobService::overloaded_response(std::string id, std::string reason,
                                            std::uint64_t trace_id,
                                            std::uint64_t origin) const {
  JobResponse response;
  response.id = std::move(id);
  response.outcome = JobOutcome::kOverloaded;
  response.error = std::move(reason);
  response.trace_id = trace_id;
  response.origin = origin;
  return response;
}

void JobService::trace_job_end(std::uint64_t trace_id, const char* outcome,
                               const char* reason) {
  if (config_.trace == nullptr || trace_id == 0) return;
  obs::TraceCollector::StringArgs sargs{{"outcome", outcome}};
  if (reason != nullptr) sargs.emplace_back("reason", reason);
  config_.trace->async_end("job", "serve", trace_id, {}, std::move(sargs));
}

bool JobService::submit(JobSpec spec) {
  return !submit_internal(std::move(spec), true).has_value();
}

std::optional<std::string> JobService::try_submit(JobSpec spec) {
  return submit_internal(std::move(spec), false);
}

std::optional<std::string> JobService::submit_internal(JobSpec spec,
                                                       bool emit_rejection) {
  const auto now = Clock::now();
  // Direct submits (tests, tools skipping the codec) get their trace id
  // minted here so admission is never the untraced part of the tree.
  if (config_.trace != nullptr && spec.trace_id == 0) {
    spec.trace_id = obs::mint_trace_id();
  }
  std::vector<JobResponse> to_emit;
  std::optional<std::string> rejection;
  {
    std::lock_guard lock(mutex_);
    if (draining_) {
      metrics_.add(ids_.rejected);
      rejection = "draining";
      if (config_.trace != nullptr && spec.trace_id != 0) {
        config_.trace->async_instant("reject", "serve", spec.trace_id, {},
                                     {{"reason", *rejection}});
      }
      if (emit_rejection) {
        to_emit.push_back(overloaded_response(spec.id, *rejection,
                                              spec.trace_id, spec.origin));
      }
    } else {
      QueuedJob job;
      job.spec = std::move(spec);
      const std::chrono::milliseconds budget =
          job.spec.deadline.count() != 0 ? job.spec.deadline
                                         : config_.default_deadline;
      job.deadline = budget.count() != 0 ? Deadline::after(budget, now)
                                         : Deadline::unlimited();
      job.admitted = now;
      job.sequence = next_sequence_++;
      const std::string id = job.spec.id;  // push moves the job
      const std::string protocol = job.spec.protocol;
      const std::uint64_t trace_id = job.spec.trace_id;
      const std::uint64_t origin = job.spec.origin;
      AdmitResult result = queue_.push(std::move(job));
      if (!result.admitted) {
        metrics_.add(ids_.rejected);
        rejection = result.reason;
        if (config_.trace != nullptr && trace_id != 0) {
          config_.trace->async_instant("reject", "serve", trace_id, {},
                                       {{"reason", result.reason}});
        }
        if (emit_rejection) {
          to_emit.push_back(
              overloaded_response(id, result.reason, trace_id, origin));
        }
      } else {
        metrics_.add(ids_.accepted);
        // The root "job" span opens at admission; exactly one terminal site
        // (run_job, shed, eviction, drain flush) closes it.
        if (config_.trace != nullptr && trace_id != 0) {
          config_.trace->async_begin(
              "job", "serve", trace_id,
              {{"shard", static_cast<double>(config_.shard_index)}},
              {{"job", id}, {"protocol", protocol}});
        }
        if (result.evicted.has_value()) {
          metrics_.add(ids_.shed);
          trace_job_end(result.evicted->spec.trace_id, "overloaded",
                        "shed_deadline");
          to_emit.push_back(overloaded_response(result.evicted->spec.id,
                                                "shed_deadline",
                                                result.evicted->spec.trace_id,
                                                result.evicted->spec.origin));
        }
        update_overload_locked(now, to_emit);
        pump_locked();
      }
    }
    update_gauges_locked();
  }
  for (JobResponse& response : to_emit) emit(std::move(response));
  return rejection;
}

void JobService::note_invalid() { metrics_.add(ids_.invalid); }

void JobService::pump_locked() {
  while (!cancel_.load(std::memory_order_relaxed) &&
         running_ < pool_.thread_count()) {
    std::optional<QueuedJob> job = queue_.pop();
    if (!job.has_value()) break;
    ++running_;
    auto ctx = std::make_shared<ActiveJob>();
    ctx->deadline = job->deadline;
    ctx->id = job->spec.id;
    ctx->trace_id = job->spec.trace_id;
    active_.push_back(ctx);
    // Boxed so the lambda stays copyable (std::function requirement).
    auto boxed = std::make_shared<QueuedJob>(std::move(*job));
    pool_.submit(boxed->spec.id,
                 [this, boxed, ctx] { run_job(*boxed, *ctx); });
  }
}

void JobService::update_overload_locked(Clock::time_point now,
                                        std::vector<JobResponse>& to_emit) {
  const double occupancy = queue_.occupancy();
  if (occupancy >= config_.degradation.high_watermark) {
    if (!overload_since_.has_value()) overload_since_ = now;
    const auto dwell = now - *overload_since_;
    int level = 1;
    if (dwell >= config_.degradation.escalate_after) level = 2;
    if (dwell >= 2 * config_.degradation.escalate_after) level = 3;
    level_ = std::max(level_, level);
    if (level_ >= 3) {
      while (queue_.occupancy() > config_.degradation.high_watermark) {
        std::optional<QueuedJob> victim = queue_.shed_lowest();
        if (!victim.has_value()) break;
        metrics_.add(ids_.shed);
        trace_job_end(victim->spec.trace_id, "overloaded", "shed_overload");
        to_emit.push_back(overloaded_response(victim->spec.id,
                                              "shed_overload",
                                              victim->spec.trace_id,
                                              victim->spec.origin));
      }
    }
  } else if (occupancy <= config_.degradation.low_watermark) {
    // Hysteresis: between the watermarks the current rung holds.
    overload_since_.reset();
    level_ = 0;
  }
}

void JobService::update_gauges_locked() {
  metrics_.set(ids_.queue_depth, static_cast<double>(queue_.size()));
  metrics_.set(ids_.inflight, static_cast<double>(running_));
  metrics_.set(ids_.degradation_level, static_cast<double>(level_));
  metrics_.set(ids_.breakers_open,
               static_cast<double>(breakers_.open_count()));
  metrics_.set(ids_.overloaded,
               overload_gauge_.update(queue_.occupancy()) ? 1.0 : 0.0);
  metrics_.set(ids_.quarantined_families,
               static_cast<double>(breakers_.quarantined_count()));
}

void JobService::run_job(const QueuedJob& job, ActiveJob& ctx) {
  JobResponse response = execute(job, ctx);
  trace_job_end(job.spec.trace_id, to_string(response.outcome),
                response.error.empty() ? nullptr : response.error.c_str());
  if (config_.slow_log != nullptr) {
    obs::SlowLog::Entry entry;
    entry.trace_id = job.spec.trace_id;
    entry.job_id = job.spec.id;
    entry.outcome = to_string(response.outcome);
    entry.shard = config_.shard_index;
    entry.queue_ms = response.queue_ms;
    entry.run_ms = response.run_ms;
    entry.attempts = response.attempts;
    config_.slow_log->record(std::move(entry));
  }
  emit(std::move(response));
  std::vector<JobResponse> to_emit;
  {
    std::lock_guard lock(mutex_);
    POPBEAN_CHECK(running_ > 0);
    --running_;
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&ctx](const std::shared_ptr<ActiveJob>& a) {
                                   return a.get() == &ctx;
                                 }),
                  active_.end());
    update_overload_locked(Clock::now(), to_emit);
    pump_locked();
    update_gauges_locked();
    if (running_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
  for (JobResponse& shed_response : to_emit) emit(std::move(shed_response));
}

JobResponse JobService::execute(const QueuedJob& job, ActiveJob& ctx) {
  const auto start = Clock::now();
  obs::TraceCollector* const trace = config_.trace;
  const std::uint64_t trace_id = job.spec.trace_id;
  const bool traced = trace != nullptr && trace_id != 0;
  JobResponse response;
  response.id = job.spec.id;
  response.trace_id = trace_id;
  response.origin = job.spec.origin;
  response.queue_ms = FpMillis(start - job.admitted).count();
  metrics_.observe(ids_.queue_ms, response.queue_ms, trace_id);
  // The queue wait is only measurable once the job pops — recorded
  // retrospectively over [admitted, start].
  if (traced) {
    trace->async_span("queue", "serve", trace_id, job.admitted, start);
  }

  if (job.deadline.expired(start)) {
    // Expired while queued: the job never ran, so the breaker learns
    // nothing about the protocol from it.
    metrics_.add(ids_.timeouts);
    response.outcome = JobOutcome::kTimeout;
    response.error = "deadline expired in queue";
    return response;
  }
  {
    std::lock_guard lock(mutex_);
    CircuitBreaker& breaker = breakers_.for_key(job.spec.protocol);
    if (!breaker.allow(start)) {
      metrics_.add(ids_.circuit_open);
      metrics_.add(ids_.failed);
      update_gauges_locked();
      if (traced) {
        trace->async_instant("circuit_open", "serve", trace_id);
      }
      response.outcome = JobOutcome::kFailed;
      response.error = "circuit_open";
      return response;
    }
    update_gauges_locked();  // allow() may have moved open → half-open
  }

  // Snapshot the degradation ladder for this job: voting is the first
  // rung's sacrifice (k → 3 → 1), then statistical replication, then the
  // interaction cap.
  std::uint32_t vote_k = job.spec.vote_replicas != 0 ? job.spec.vote_replicas
                                                     : config_.vote_replicas;
  std::uint32_t replicates = job.spec.replicates;
  std::uint64_t max_interactions = job.spec.effective_max_interactions();
  {
    std::lock_guard lock(mutex_);
    if (level_ >= 1) {
      if (replicates > 1) {
        replicates = 1;
        response.degraded = true;
      }
      if (vote_k > 3) {
        vote_k = 3;
        response.degraded = true;
      }
    }
    if (level_ >= 2) {
      if (config_.degradation.truncate_interactions < max_interactions) {
        max_interactions = config_.degradation.truncate_interactions;
        response.degraded = true;
      }
      if (vote_k > 1) {
        vote_k = 1;
        response.degraded = true;
      }
    }
    if (vote_k > 1) {
      CircuitBreaker& breaker = breakers_.for_key(job.spec.protocol);
      if (!breaker.vote_allowed(start)) {
        // Quarantined family: execute unvoted, label the response so the
        // client knows this answer carries no replication guarantee.
        vote_k = 1;
        response.quarantined = true;
        metrics_.add(ids_.quarantined_jobs);
      }
      update_gauges_locked();  // vote_allowed may have started probation
    }
  }
  const bool capped = max_interactions < job.spec.effective_max_interactions();

  DecorrelatedJitterBackoff backoff(config_.backoff,
                                    Xoshiro256ss(config_.seed, job.sequence));
  const auto should_stop = [this, &ctx, &job] {
    return cancel_.load(std::memory_order_relaxed) ||
           ctx.abandon.load(std::memory_order_relaxed) ||
           job.deadline.expired();
  };

  Attempt attempt;
  for (std::size_t attempt_index = 0;; ++attempt_index) {
    ++response.attempts;
    const auto attempt_start = Clock::now();
    ChaosAction action = ChaosAction::kNone;
    if (config_.chaos) {
      action = config_.chaos(ChaosContext{job.spec, attempt_index,
                                          job.sequence});
    }
    if (action == ChaosAction::kSlow) {
      // A wedged worker: deliberately does NOT poll the job deadline, so
      // only the watchdog's abandon flag or a drain cancel unsticks it.
      sleep_interruptible(config_.chaos_slow, ctx);
    }
    if (action == ChaosAction::kFail) {
      attempt = Attempt{AttemptKind::kFailed, JobResult{}, "chaos_fail", {}};
    } else {
      AttemptPlan plan;
      plan.replicates = replicates;
      plan.max_interactions = max_interactions;
      plan.vote_replicas = vote_k;
      if (action == ChaosAction::kCorrupt) {
        // Under voting, corrupt the last replica only — a minority of one
        // the vote must outlive; unvoted jobs corrupt their single replica
        // exactly as the pre-voting service did.
        plan.corrupt_replica = vote_k > 1 ? static_cast<int>(vote_k - 1) : 0;
      } else if (action == ChaosAction::kCorruptAll) {
        plan.corrupt_replica = -2;
      }
      plan.corrupt_rate = config_.chaos_corrupt_rate;
      plan.attempt_index = static_cast<std::uint64_t>(attempt_index);
      plan.poll_interval = config_.stop_check_interval;
      plan.sequence = job.sequence;
      plan.trace = trace;
      plan.trace_id = trace_id;
      plan.capture_dir = config_.vote_capture_dir;
      if (!plan.capture_dir.empty()) {
        std::lock_guard lock(mutex_);
        // Soft limit: concurrent divergences may overshoot by the worker
        // count; the point is bounding disk, not exact accounting.
        plan.capture_allowed =
            captures_written_ < config_.vote_capture_limit;
      }
      try {
        attempt = dispatch_attempt(job.spec, plan, should_stop, cancel_);
      } catch (const std::exception& e) {
        attempt = Attempt{AttemptKind::kFailed, JobResult{}, e.what(), {}};
      }
    }

    if (traced) {
      trace->async_span(
          "attempt", "serve", trace_id, attempt_start, Clock::now(),
          {{"attempt", static_cast<double>(attempt_index)},
           {"replicas", static_cast<double>(vote_k)}},
          {{"kind", attempt.kind == AttemptKind::kOk        ? "ok"
                    : attempt.kind == AttemptKind::kTimeout ? "timeout"
                    : attempt.kind == AttemptKind::kShutdown
                        ? "shutdown"
                        : "failed"}});
      if (attempt.vote.voted) {
        trace->async_instant(
            "vote", "serve", trace_id,
            {{"replicas", static_cast<double>(attempt.vote.replicas_run)},
             {"divergent", static_cast<double>(attempt.vote.divergent)},
             {"no_majority", attempt.vote.no_majority ? 1.0 : 0.0}});
      }
    }

    // Vote bookkeeping per attempt (retried attempts count too — quarantine
    // evidence must not vanish just because a retry later succeeded).
    if (attempt.vote.voted) {
      const auto now = Clock::now();
      bool entered = false;
      bool recovered = false;
      {
        std::lock_guard lock(mutex_);
        CircuitBreaker& breaker = breakers_.for_key(job.spec.protocol);
        metrics_.add(ids_.voted);
        if (attempt.vote.divergence) {
          metrics_.add(ids_.divergences);
          metrics_.add(
              metrics_.counter("serve.vote.divergence." + job.spec.protocol));
          if (attempt.vote.no_majority) metrics_.add(ids_.no_majority);
          entered = breaker.record_divergence(now);
          if (entered) metrics_.add(ids_.quarantine_entered);
          if (!attempt.vote.capture_header.empty()) {
            ++captures_written_;
            metrics_.add(ids_.captures);
          }
        } else if (attempt.vote.abandoned == 0) {
          recovered = breaker.record_clean_vote();
          if (recovered) metrics_.add(ids_.quarantine_recovered);
        }
        update_gauges_locked();
      }
      if (attempt.vote.divergence && config_.telemetry != nullptr) {
        const VoteSummary& vote = attempt.vote;
        config_.telemetry->record("vote_divergence", [&](JsonWriter& json) {
          json.kv("job", job.spec.id);
          json.kv("family", job.spec.protocol);
          json.kv("attempt", static_cast<std::uint64_t>(attempt_index));
          json.kv("replicas", static_cast<std::uint64_t>(vote.replicas_run));
          json.kv("divergent", static_cast<std::uint64_t>(vote.divergent));
          json.kv("no_majority", vote.no_majority);
          json.kv("seed", job.spec.seed);
          if (vote.has_minority) {
            json.kv("minority_replica",
                    static_cast<std::uint64_t>(vote.minority_replica));
            json.kv("stream", vote.minority_stream);
            json.kv("minority_corrupt", vote.minority_corrupt);
          }
          if (!vote.capture_header.empty()) {
            json.kv("capture_header", vote.capture_header);
            json.kv("capture_log", vote.capture_log);
          }
          json.kv("quarantined", entered);
        });
      }
    }

    if (attempt.kind != AttemptKind::kFailed) break;
    const bool may_retry = attempt_index < config_.max_retries &&
                           !job.deadline.expired() &&
                           !cancel_.load(std::memory_order_relaxed) &&
                           !ctx.abandon.load(std::memory_order_relaxed);
    if (!may_retry) break;
    metrics_.add(ids_.retries);
    const auto delay = std::min<Clock::duration>(backoff.next(),
                                                 job.deadline.remaining());
    const auto backoff_start = Clock::now();
    sleep_interruptible(delay, ctx);
    if (traced) {
      trace->async_span("backoff", "serve", trace_id, backoff_start,
                        Clock::now(),
                        {{"attempt", static_cast<double>(attempt_index)}});
    }
  }

  const auto finish = Clock::now();
  response.run_ms = FpMillis(finish - start).count();
  metrics_.observe(ids_.run_ms, response.run_ms, trace_id);
  response.replicas_used =
      attempt.vote.replicas_run > 0 ? attempt.vote.replicas_run : vote_k;
  response.voted = attempt.vote.voted;
  response.divergent = attempt.vote.divergent;

  std::lock_guard lock(mutex_);
  CircuitBreaker& breaker = breakers_.for_key(job.spec.protocol);
  const std::uint64_t opens_before = breaker.opens();
  const std::uint64_t closes_before = breaker.closes();
  switch (attempt.kind) {
    case AttemptKind::kOk:
      response.outcome = capped ? JobOutcome::kTruncated : JobOutcome::kDone;
      response.result = attempt.result;
      breaker.record_success(finish);
      metrics_.add(ids_.completed);
      if (capped) metrics_.add(ids_.truncated);
      break;
    case AttemptKind::kTimeout:
      response.outcome = JobOutcome::kTimeout;
      response.error = ctx.abandon.load(std::memory_order_relaxed)
                           ? "watchdog_abandoned"
                           : "deadline expired";
      breaker.record_timeout(finish);
      metrics_.add(ids_.timeouts);
      break;
    case AttemptKind::kFailed:
      response.outcome = JobOutcome::kFailed;
      response.error = attempt.error;
      breaker.record_failure(finish);
      metrics_.add(ids_.failed);
      break;
    case AttemptKind::kShutdown:
      // Shutdown says nothing about the protocol — no breaker record.
      response.outcome = JobOutcome::kFailed;
      response.error = "shutdown";
      metrics_.add(ids_.failed);
      break;
  }
  // Only a recorded outcome moves a breaker between open and closed.
  if (breaker.opens() != opens_before) metrics_.add(ids_.breaker_opens);
  if (breaker.closes() != closes_before) metrics_.add(ids_.breaker_closes);
  // Per-family outcome counter (register-or-lookup, same pattern as the
  // divergence counter above) — what popbean-top's family table reads.
  metrics_.add(metrics_.counter("serve.family." + job.spec.protocol + "." +
                                to_string(response.outcome)));
  update_gauges_locked();
  return response;
}

void JobService::sleep_interruptible(Clock::duration duration,
                                     const ActiveJob& ctx) {
  const auto until = Clock::now() + duration;
  while (Clock::now() < until && !cancel_.load(std::memory_order_relaxed) &&
         !ctx.abandon.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void JobService::begin_drain() {
  std::lock_guard lock(mutex_);
  draining_ = true;
  metrics_.set(ids_.draining, 1.0);
}

bool JobService::drain(std::chrono::milliseconds budget) {
  begin_drain();
  const auto hard = Deadline::after(budget);
  std::vector<JobResponse> to_emit;
  bool clean = false;
  {
    std::unique_lock lock(mutex_);
    const auto drained = [this] { return running_ == 0 && queue_.empty(); };
    if (hard.is_unlimited()) {
      idle_cv_.wait(lock, drained);
      clean = true;
    } else {
      clean = idle_cv_.wait_until(lock, hard.time(), drained);
    }
    if (!clean) {
      // Budget blown: cancel cooperatively and flush the queue — every
      // still-queued job gets its failed("shutdown") response now.
      cancel_.store(true, std::memory_order_relaxed);
      while (std::optional<QueuedJob> job = queue_.pop()) {
        metrics_.add(ids_.failed);
        trace_job_end(job->spec.trace_id, "failed", "shutdown");
        JobResponse response;
        response.id = job->spec.id;
        response.outcome = JobOutcome::kFailed;
        response.error = "shutdown";
        response.trace_id = job->spec.trace_id;
        response.origin = job->spec.origin;
        to_emit.push_back(std::move(response));
      }
      // Running jobs observe cancel_ within a poll interval (or the
      // watchdog grace); the backstop below only trips on a genuine bug.
      idle_cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return running_ == 0; });
      POPBEAN_CHECK_MSG(running_ == 0,
                        "JobService::drain: workers ignored cancellation");
    }
    update_gauges_locked();
  }
  for (JobResponse& response : to_emit) emit(std::move(response));
  return clean;
}

void JobService::watchdog_loop() {
  std::unique_lock wl(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(wl, config_.watchdog_interval,
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    wl.unlock();
    const auto now = Clock::now();
    {
      std::lock_guard lock(mutex_);
      for (const std::shared_ptr<ActiveJob>& ctx : active_) {
        if (ctx->abandon.load(std::memory_order_relaxed)) continue;
        if (!ctx->deadline.is_unlimited() &&
            now >= ctx->deadline.time() + config_.watchdog_grace) {
          ctx->abandon.store(true, std::memory_order_relaxed);
          metrics_.add(ids_.watchdog_abandons);
          if (config_.trace != nullptr && ctx->trace_id != 0) {
            config_.trace->async_instant("abandon", "serve", ctx->trace_id);
          }
        }
      }
    }
    wl.lock();
  }
}

int JobService::degradation_level() const {
  std::lock_guard lock(mutex_);
  return level_;
}

std::size_t JobService::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t JobService::inflight() const {
  std::lock_guard lock(mutex_);
  return running_;
}

CircuitBreaker::State JobService::breaker_state(
    const std::string& protocol) const {
  std::lock_guard lock(mutex_);
  const auto& bank = breakers_.breakers();
  const auto it = bank.find(protocol);
  return it == bank.end() ? CircuitBreaker::State::kClosed
                          : it->second.state();
}

CircuitBreaker::VoteState JobService::vote_state(
    const std::string& protocol) const {
  std::lock_guard lock(mutex_);
  const auto& bank = breakers_.breakers();
  const auto it = bank.find(protocol);
  return it == bank.end() ? CircuitBreaker::VoteState::kVoting
                          : it->second.vote_state();
}

}  // namespace popbean::serve
