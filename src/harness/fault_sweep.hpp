// Fault sweep: replicated perturbed runs across a grid of fault rates,
// fanned out on the thread pool. This is the harness entry point for
// robustness studies — it produces, per rate, the full outcome breakdown
// (accuracy, error fraction, RunStatus counts), aggregated fault counters,
// and the distribution of first-invariant-violation times in parallel-time
// units: the moment the exactness proof's premise (Invariant 4.3 for AVC)
// died in each replicate.
//
// Fault and schedule models are supplied as factories so every replicate
// gets a fresh, stateless-from-its-own-view instance (models like
// EpidemicRounds carry per-run state), parameterized by the swept rate.
//
// One entry point, run_fault_sweep_recoverable, is the crash-tolerant sweep
// (DESIGN.md §7): per-cell wall-clock timeouts with bounded retry, periodic
// checkpointing of completed cells to a manifest, --resume skipping finished
// work, cancellation draining, and a hung-cell watchdog. With a default
// FaultSweepRecovery it is a plain blocking sweep: no manifest, no timeout.
// Because cell (p, r) always runs on rng stream p·replicates + r, a resumed
// sweep's merged results are bit-identical to an uninterrupted run's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_model.hpp"
#include "faults/invariant_monitor.hpp"
#include "faults/perturbed_engine.hpp"
#include "faults/schedule_model.hpp"
#include "harness/checkpoint.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "population/run.hpp"
#include "population/with_engine.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "verify/linear_invariant.hpp"

namespace popbean {

struct FaultSweepConfig {
  std::uint64_t n = 0;
  double epsilon = 0.0;
  std::size_t replicates = 0;
  std::uint64_t seed = 0;
  std::uint64_t max_interactions = 0;
};

// Aggregate of one rate point.
struct FaultSweepPoint {
  double rate = 0.0;
  ReplicationSummary summary;
  faults::FaultCounters counters;        // summed across replicates
  std::size_t violated = 0;              // replicates whose Φ left Φ(c₀)
  std::vector<double> violation_times;   // parallel time of first violation
  Summary violation_time;                // summarize(violation_times)
};

// Checkpointing/resume/timeout policy of a recoverable sweep.
struct FaultSweepRecovery {
  std::string manifest_path;        // empty = no checkpointing
  bool resume = false;              // load the manifest, skip finished cells
  std::size_t checkpoint_every = 16;  // manifest flush cadence, in cells
  SweepRunOptions run;              // timeouts, retries, cancel, watchdog
};

struct FaultSweepOutcome {
  std::vector<FaultSweepPoint> points;
  CellSweepReport report;
  // Raw per-cell outcomes (index point·replicates + replicate; `present`
  // gates completion) — what --record scans to find a violating cell.
  std::vector<FaultCellOutcome> cells;
  std::vector<char> present;
};

// Binds a manifest to the exact sweep it checkpoints: any change to the
// protocol label, grid, instance, seeding, or budget changes the value.
inline std::uint64_t fault_sweep_fingerprint(const std::string& label,
                                             const std::vector<double>& rates,
                                             const FaultSweepConfig& config) {
  BinaryWriter out;
  out.str(label);
  out.u64(config.n);
  out.f64(config.epsilon);
  out.u64(config.replicates);
  out.u64(config.seed);
  out.u64(config.max_interactions);
  out.u64(rates.size());
  for (const double rate : rates) out.f64(rate);
  return fnv1a64(out.bytes());
}

namespace detail {

// Runs cell (p, r) deterministically on stream p·replicates + r: on the
// PerturbedEngine, or on the plain count engine when no fault model is
// active and the schedule delegates (the zero-rate control). Returns
// nullopt iff should_stop fired mid-run (the outcome is then undefined and
// nothing may be recorded). Completed cells flush engine transition-kind
// counts, fault tallies, run-status counters, and the run's parallel time
// into `obs.metrics` (when set); abandoned attempts record nothing, so
// metrics never double-count a retried cell.
template <ProtocolLike P, typename FaultFactory, typename ScheduleFactory,
          typename StopFn>
std::optional<FaultCellOutcome> run_fault_cell(
    const P& protocol, const verify::LinearInvariant& invariant,
    const Counts& initial, const FaultSweepConfig& config, double rate,
    std::size_t point, std::size_t replicate, FaultFactory&& make_faults,
    ScheduleFactory&& make_schedule, StopFn&& should_stop,
    std::uint64_t stop_check_interval, const obs::ObsContext& obs = {}) {
  const std::uint64_t stream =
      static_cast<std::uint64_t>(point) * config.replicates + replicate;
  Xoshiro256ss rng(config.seed, stream);
  obs::EngineProbe probe;
  const auto run = [&](auto& engine) {
    if (obs.metrics != nullptr) engine.attach_probe(&probe);
    return run_to_convergence_interruptible(engine, rng,
                                            config.max_interactions,
                                            should_stop, stop_check_interval);
  };
  auto faults = make_faults(rate);
  faults::InvariantMonitor monitor(invariant, initial);
  FaultCellOutcome out;
  std::optional<RunResult> result;
  if (decltype(make_schedule())::kDelegates && !faults.active()) {
    // The control keeps the plain engine's trajectory and its O(log s)
    // count-tree draw; nothing moves Φ and no fault fires.
    result = with_engine(EngineKind::kCount, protocol, initial, rng, run);
  } else {
    faults::PerturbedEngine engine(protocol, initial, std::move(faults),
                                   make_schedule(), rng);
    engine.attach_monitor(&monitor);
    result = run(engine);
    out.counters = engine.fault_counters();
  }
  if (!result) return std::nullopt;
  out.result = *result;
  out.violated = monitor.violated();
  out.violation_step = monitor.first_violation_step().value_or(0);

  if (obs.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *obs.metrics;
    const faults::FaultCounters& c = out.counters;
    obs::flush_engine_probe(metrics, probe);
    metrics.add(metrics.counter("faults.crashes"), c.crashes);
    metrics.add(metrics.counter("faults.recoveries"), c.recoveries);
    metrics.add(metrics.counter("faults.corruptions"), c.corruptions);
    metrics.add(metrics.counter("faults.sign_flips"), c.sign_flips);
    metrics.add(metrics.counter("faults.stuck"), c.stuck);
    metrics.add(metrics.counter("faults.schedule_delays"), c.schedule_delays);
    metrics.add(metrics.counter("faults.injected_interactions"),
                c.injected_interactions);
    switch (result->status) {
      case RunStatus::kConverged:
        metrics.add(metrics.counter("runs.converged"));
        break;
      case RunStatus::kStepLimit:
        metrics.add(metrics.counter("runs.step_limit"));
        break;
      case RunStatus::kAbsorbing:
        metrics.add(metrics.counter("runs.absorbing"));
        break;
    }
    if (out.violated) metrics.add(metrics.counter("runs.violated"));
    metrics.observe(
        metrics.histogram("run.parallel_time",
                          Histogram::logarithmic(1e-2, 1e8, 50)),
        static_cast<double>(result->interactions) /
            static_cast<double>(config.n));
  }
  return out;
}

// Folds per-cell outcomes (cell (p, r) at index p·replicates + r; `present`
// gates which were completed) into per-rate points. Aggregation order is by
// cell index, so the result is independent of execution order — the bit-
// identical-merge guarantee of the resume path.
inline std::vector<FaultSweepPoint> aggregate_fault_cells(
    const std::vector<double>& rates, const FaultSweepConfig& config,
    const MajorityInstance& instance,
    const std::vector<FaultCellOutcome>& cells,
    const std::vector<char>& present) {
  std::vector<FaultSweepPoint> points;
  points.reserve(rates.size());
  for (std::size_t p = 0; p < rates.size(); ++p) {
    FaultSweepPoint point;
    point.rate = rates[p];
    std::vector<double> times;
    for (std::size_t r = 0; r < config.replicates; ++r) {
      const std::size_t index = p * config.replicates + r;
      if (!present[index]) continue;
      const FaultCellOutcome& out = cells[index];
      if (out.timed_out) {
        ++point.summary.replicates;
        ++point.summary.timed_out;
        continue;  // no trustworthy dynamics to aggregate
      }
      tally_run(out.result, instance, point.summary, times);
      point.counters += out.counters;
      if (out.violated) {
        ++point.violated;
        point.violation_times.push_back(
            static_cast<double>(out.violation_step) /
            static_cast<double>(config.n));
      }
    }
    if (!times.empty()) point.summary.parallel_time = summarize(times);
    if (!point.violation_times.empty()) {
      point.violation_time = summarize(point.violation_times);
    }
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace detail

// Sweeps `rates`, running `config.replicates` runs per rate (one
// run_fault_cell each). `make_faults(rate)` builds the fault model,
// `make_schedule()` the schedule model; `invariant` is watched live in every
// perturbed replicate (use the protocol's conservation law, e.g.
// verify::avc_sum_invariant); `label` names the sweep in its manifest
// fingerprint. Replicate r of rate point p draws its root rng from stream
// p·replicates + r, so every cell is reproducible in isolation. `recovery`
// adds, each off by default:
//   * recovery.manifest_path + checkpoint_every: completed cells are
//     appended to the manifest (one checksummed line each) and flushed every
//     checkpoint_every cells, so a crash loses at most that much work;
//   * recovery.resume: previously-completed cells are loaded from the
//     manifest (validated against the sweep fingerprint) and skipped;
//   * recovery.run.cell_timeout / max_retries: cells exceeding the wall-
//     clock budget are retried, then recorded as timed out (they surface in
//     ReplicationSummary::timed_out, never as fabricated dynamics);
//   * recovery.run.cancel: a drain flag (set it from SIGINT/SIGTERM) —
//     in-flight cells stop at their next poll, the manifest is flushed, and
//     the partial aggregate is returned with report.interrupted set.
// The aggregate covers exactly the cells present (prior + this run), folded
// in deterministic cell order.
template <ProtocolLike P, typename FaultFactory, typename ScheduleFactory>
FaultSweepOutcome run_fault_sweep_recoverable(
    ThreadPool& pool, const P& protocol,
    const verify::LinearInvariant& invariant, const std::string& label,
    const std::vector<double>& rates, const FaultSweepConfig& config,
    const FaultSweepRecovery& recovery, FaultFactory&& make_faults,
    ScheduleFactory&& make_schedule) {
  POPBEAN_CHECK(!rates.empty());
  POPBEAN_CHECK(config.replicates > 0);
  POPBEAN_CHECK_MSG(invariant.num_states() == protocol.num_states(),
                    "monitored invariant does not match the protocol");
  const MajorityInstance instance = make_instance(config.n, config.epsilon);
  const Counts initial = majority_instance_with_margin(
      protocol, instance.n, instance.margin, instance.majority);
  const std::uint64_t fingerprint =
      fault_sweep_fingerprint(label, rates, config);

  const std::size_t total = rates.size() * config.replicates;
  std::vector<FaultCellOutcome> cells(total);
  std::vector<char> present(total, 0);

  const bool checkpointing = !recovery.manifest_path.empty();
  if (checkpointing && recovery.resume) {
    if (std::ifstream(recovery.manifest_path).good()) {
      for (const auto& [key, cell] :
           load_manifest(recovery.manifest_path, fingerprint)) {
        const auto [p, r] = key;
        if (p >= rates.size() || r >= config.replicates) continue;
        const std::size_t index = p * config.replicates + r;
        cells[index] = cell;
        present[index] = 1;
      }
    }
  }

  std::optional<ManifestWriter> manifest;
  if (checkpointing) {
    manifest.emplace(recovery.manifest_path, fingerprint, recovery.resume);
  }

  std::size_t since_flush = 0;
  const auto on_cell_done = [&](const SweepCell& cell, CellOutcomeKind kind) {
    const std::size_t index = cell.point * config.replicates + cell.replicate;
    if (kind == CellOutcomeKind::kTimedOut) {
      cells[index] = FaultCellOutcome{};
      cells[index].timed_out = true;
    }
    present[index] = 1;
    if (manifest) {
      manifest->record(cell.point, cell.replicate, cells[index]);
      if (++since_flush >= std::max<std::size_t>(recovery.checkpoint_every, 1)) {
        manifest->flush();
        since_flush = 0;
      }
    }
  };

  CellSweepReport report = run_cell_sweep(
      pool, rates.size(), config.replicates, present, recovery.run,
      [&](const SweepCell& cell, const auto& should_stop) {
        std::optional<FaultCellOutcome> out = detail::run_fault_cell(
            protocol, invariant, initial, config, rates[cell.point],
            cell.point, cell.replicate, make_faults, make_schedule,
            should_stop, recovery.run.stop_check_interval, recovery.run.obs);
        if (!out) return false;
        const std::size_t index =
            cell.point * config.replicates + cell.replicate;
        cells[index] = std::move(*out);
        return true;
      },
      on_cell_done);
  if (manifest) manifest->flush();

  FaultSweepOutcome outcome;
  outcome.points = detail::aggregate_fault_cells(rates, config, instance,
                                                 cells, present);
  outcome.report = std::move(report);
  outcome.cells = std::move(cells);
  outcome.present = std::move(present);
  return outcome;
}

// Streams one sweep (config + per-rate points) as a JSON object under the
// given protocol label.
inline void write_fault_sweep_json(JsonWriter& json, const std::string& label,
                                   const FaultSweepConfig& config,
                                   const std::vector<FaultSweepPoint>& points) {
  json.begin_object();
  json.kv("protocol", label);
  json.kv("n", config.n);
  json.kv("epsilon", config.epsilon);
  json.kv("replicates", config.replicates);
  json.kv("seed", config.seed);
  json.kv("max_interactions", config.max_interactions);
  json.key("points");
  json.begin_array();
  for (const FaultSweepPoint& point : points) {
    json.begin_object();
    json.kv("rate", point.rate);
    json.key("summary");
    write_summary_json(json, point.summary);
    json.key("faults");
    json.begin_object();
    json.kv("crashes", point.counters.crashes);
    json.kv("recoveries", point.counters.recoveries);
    json.kv("corruptions", point.counters.corruptions);
    json.kv("sign_flips", point.counters.sign_flips);
    json.kv("stuck", point.counters.stuck);
    json.kv("schedule_delays", point.counters.schedule_delays);
    json.kv("injected_interactions", point.counters.injected_interactions);
    json.end_object();
    json.kv("violated_replicates", point.violated);
    json.key("first_violation_time");
    write_stats_json(json, point.violation_time);
    json.key("first_violation_times");
    json.begin_array();
    for (double t : point.violation_times) json.value(t);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace popbean
