// JobService: the resilient in-process job service (DESIGN.md §9).
//
// One object ties the resilience pieces together around a ThreadPool:
//
//   submit() ──▶ AdmissionQueue (bounded, priority, shed policy)
//                    │ pump: ≤ thread_count jobs in flight, so priority
//                    ▼        is decided at pop time, not submit time
//                CircuitBreaker per protocol (fast-fail `circuit_open`)
//                    ▼
//                attempt loop: run replicates, bounded retries under
//                decorrelated-jitter backoff, per-job Deadline polled
//                cooperatively; a watchdog thread abandons runs that
//                blow deadline + grace without polling (wedged worker)
//                    ▼
//                exactly one terminal JobResponse via the response sink
//
// Overload is answered by a three-rung graceful-degradation ladder driven
// by queue occupancy with hysteresis (high/low watermarks). Voting rides
// the ladder as the first thing sacrificed — redundancy is a luxury an
// overloaded service sheds before it sheds work:
//
//   rung 1  vote replicas k → min(k, 3); statistical replicates → 1
//           (responses flagged `degraded`)
//   rung 2  vote replicas → 1 (unvoted); additionally cap interactions
//           (outcome `truncated`)
//   rung 3  additionally shed queued lowest-priority jobs (`overloaded`)
//
// Shutdown: begin_drain() stops admission; drain(budget) waits for the
// queue and workers, then past the budget cancels cooperatively and
// flushes still-queued jobs as failed("shutdown"). Every admitted job
// still gets its one response.
//
// The chaos hook exists so tests and tools/popbean-serve can inject
// worker faults deterministically: kFail fails the attempt (retryable),
// kSlow wedges the worker without polling the deadline (only the watchdog
// or drain can unstick it — proving the watchdog is load-bearing), and
// kCorrupt runs the replicates under faults::TransientCorruption. The
// hook runs on worker threads and must be thread-safe.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slow_log.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/health.hpp"
#include "serve/job.hpp"
#include "util/backoff.hpp"
#include "util/thread_pool.hpp"

namespace popbean::serve {

enum class ChaosAction {
  kNone,     // run the attempt normally
  kFail,     // the attempt fails immediately (retryable worker fault)
  kSlow,     // wedge the worker for chaos_slow, NOT polling the deadline
  kCorrupt,  // corrupt one replica (all replicates, when voting: only the
             // last replica — a minority of one that the vote outvotes;
             // unvoted jobs corrupt their single replica as before)
  kCorruptAll,  // corrupt every replica — voting cannot recover; exercises
                // the no_majority path deterministically
};

struct ChaosContext {
  const JobSpec& spec;
  std::size_t attempt = 0;        // 0-based attempt index
  std::uint64_t sequence = 0;     // service-wide admission order
};

// Called on worker threads; must be thread-safe and cheap.
using ChaosHook = std::function<ChaosAction(const ChaosContext&)>;

struct DegradationConfig {
  double high_watermark = 0.75;  // occupancy that arms the ladder
  double low_watermark = 0.25;   // occupancy that fully disarms it
  // Dwell time above the high watermark before escalating to the next
  // rung: rung 1 immediately, rung 2 after escalate_after, rung 3 after
  // 2 × escalate_after.
  std::chrono::milliseconds escalate_after{250};
  std::uint64_t truncate_interactions = 50'000;  // rung 2 interaction cap
};

struct ServiceConfig {
  std::size_t threads = 0;  // 0 = hardware concurrency
  AdmissionConfig admission;
  BreakerConfig breaker;
  BackoffPolicy backoff;
  std::size_t max_retries = 2;  // attempts per job ≤ 1 + max_retries
  // Applied when a job's spec carries no deadline; zero means unlimited.
  std::chrono::milliseconds default_deadline{10'000};
  std::chrono::milliseconds drain_deadline{5'000};  // destructor's budget
  DegradationConfig degradation;
  std::uint64_t seed = 0x5e7;        // backoff jitter streams
  std::uint64_t stop_check_interval = 1024;  // cancellation poll period
  std::chrono::milliseconds watchdog_interval{50};
  std::chrono::milliseconds watchdog_grace{250};  // past deadline → abandon
  std::chrono::milliseconds chaos_slow{400};      // length of a kSlow wedge
  double chaos_corrupt_rate = 1e-3;               // kCorrupt fault rate
  ChaosHook chaos;                                // empty = no chaos
  // Replicated voting (DESIGN.md §12): run each attempt on this many
  // replicas with independent RNG streams and majority-vote the decision
  // payload. Must be odd; 1 disables voting and is bit-identical to the
  // unreplicated service (replica 0 reuses the legacy stream layout).
  std::uint32_t vote_replicas = 1;
  // Divergence captures: when a voted attempt's minority replica ran under
  // chaos corruption, re-record it as a §7 .pbsn capture pair here so
  // popbean-replay can reproduce the outvoted execution. Empty = off.
  std::string vote_capture_dir;
  std::size_t vote_capture_limit = 8;  // max capture pairs per service
  // Divergence events (JSONL) land here; must outlive the service.
  obs::TelemetrySink* telemetry = nullptr;
  // External registry (must outlive the service); nullptr = service owns
  // one, readable via metrics().
  obs::MetricsRegistry* metrics = nullptr;
  // Request-scoped tracing (DESIGN.md §13): every job's async span tree is
  // recorded here, keyed by the spec's trace id. nullptr = tracing off.
  // Safe to share across router shards — the collector serializes
  // internally and a fleet reads best on one timeline. Must outlive the
  // service.
  obs::TraceCollector* trace = nullptr;
  // Bounded top-k slow-request log; nullptr = off. Must outlive the
  // service; shareable across shards.
  obs::SlowLog* slow_log = nullptr;
  // Which router shard this service is (0 for an unsharded service); echoed
  // in responses, trace spans, and slow-log entries.
  std::size_t shard_index = 0;
};

class JobService {
 public:
  using Clock = std::chrono::steady_clock;
  // Receives every terminal response, serialized under an internal lock
  // (never concurrently, never while service locks are held — it may call
  // back into health()/metrics(), but must not call submit()/drain()).
  using ResponseFn = std::function<void(const JobResponse&)>;

  JobService(ServiceConfig config, ResponseFn on_response);
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  // Submits one job. Returns true if the job was admitted to the queue;
  // false means an `overloaded` response was already delivered. Either
  // way the job receives exactly one terminal response (an admitted job
  // may still later be shed by the ladder or flushed by drain).
  bool submit(JobSpec spec);

  // Router-facing admission: like submit(), but on rejection returns the
  // reason *instead of* emitting the overloaded response, so a ShardRouter
  // can retry the job on a sibling shard while preserving exactly-one-
  // response (side responses — shed victims — are still emitted here).
  // Returns std::nullopt when the job was admitted.
  std::optional<std::string> try_submit(JobSpec spec);

  // Counts a request line that never parsed into a job (the NDJSON front
  // ends report these; the service itself only sees valid specs).
  void note_invalid();

  // Stops admission; queued and running jobs continue.
  void begin_drain();

  // begin_drain(), then waits up to `budget` for all admitted jobs to
  // reach their terminal response. Past the budget, cancels cooperatively:
  // still-queued jobs are flushed as failed("shutdown") and running jobs
  // observe the cancel flag at their next poll. Returns true if the
  // service drained within the budget, false if it had to cancel.
  bool drain(std::chrono::milliseconds budget);

  HealthSnapshot health() const { return derive_health(metrics_); }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  std::size_t thread_count() const noexcept { return pool_.thread_count(); }
  int degradation_level() const;
  std::size_t queue_depth() const;
  std::size_t inflight() const;
  // State of the breaker guarding `protocol` (kClosed if never touched).
  CircuitBreaker::State breaker_state(const std::string& protocol) const;
  // Vote-quarantine state of `protocol`'s family (kVoting if never touched).
  CircuitBreaker::VoteState vote_state(const std::string& protocol) const;

 private:
  struct ActiveJob {
    Deadline deadline;
    std::atomic<bool> abandon{false};
    std::string id;
    std::uint64_t trace_id = 0;  // for the watchdog's abandon instant
  };

  struct MetricIds {
    obs::CounterId accepted, rejected, invalid, completed, truncated, failed,
        timeouts, retries, shed, circuit_open, watchdog_abandons,
        breaker_opens, breaker_closes, voted, divergences, no_majority,
        quarantine_entered, quarantine_recovered, quarantined_jobs, captures;
    obs::GaugeId live, draining, queue_depth, queue_capacity, inflight,
        degradation_level, breakers_open, overloaded, quarantined_families;
    obs::HistogramId queue_ms, run_ms;
  };

  static MetricIds register_metrics(obs::MetricsRegistry& registry);

  void emit(JobResponse response);
  JobResponse overloaded_response(std::string id, std::string reason,
                                  std::uint64_t trace_id,
                                  std::uint64_t origin) const;
  // Closes the job's async span tree with its terminal outcome; every
  // admitted job passes through exactly one call (run_job, shed, eviction,
  // or drain flush) — the trace-side face of the exactly-one-response
  // contract.
  void trace_job_end(std::uint64_t trace_id, const char* outcome,
                     const char* reason = nullptr);
  std::optional<std::string> submit_internal(JobSpec spec,
                                             bool emit_rejection);
  // Pops queued jobs into the pool while workers are available, so the
  // admission queue (not the pool's FIFO) decides execution order.
  void pump_locked();
  // Re-evaluates the degradation ladder. Jobs shed by rung 3 are counted,
  // their spans closed, and their responses appended to `to_emit`, which the
  // caller emits after unlocking.
  void update_overload_locked(Clock::time_point now,
                              std::vector<JobResponse>& to_emit);
  void update_gauges_locked();
  void run_job(const QueuedJob& job, ActiveJob& ctx);
  JobResponse execute(const QueuedJob& job, ActiveJob& ctx);
  void sleep_interruptible(Clock::duration duration, const ActiveJob& ctx);
  void watchdog_loop();

  ServiceConfig config_;
  ResponseFn on_response_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry& metrics_;
  MetricIds ids_;

  mutable std::mutex mutex_;  // queue_, breakers_, active_, ladder state
  std::condition_variable idle_cv_;
  AdmissionQueue queue_;
  BreakerBank breakers_;
  std::vector<std::shared_ptr<ActiveJob>> active_;
  std::size_t running_ = 0;
  std::uint64_t next_sequence_ = 0;
  int level_ = 0;  // degradation rung, 0 = healthy
  std::optional<Clock::time_point> overload_since_;
  // Latched overload gauge (health.hpp): enters at the high watermark,
  // exits at the low one — the raw comparison flapped every poll when
  // occupancy hovered at the boundary.
  OverloadHysteresis overload_gauge_;
  std::size_t captures_written_ = 0;  // against vote_capture_limit
  bool draining_ = false;
  std::atomic<bool> cancel_{false};

  std::mutex response_mutex_;  // serializes on_response_

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  // Declared last: the pool's workers and the watchdog touch everything
  // above, so they are torn down first (explicitly, in the destructor).
  ThreadPool pool_;
  std::thread watchdog_;
};

}  // namespace popbean::serve
