// Parameter-sweep helpers for the reproduction benches, plus the generic
// crash-tolerant cell driver (DESIGN.md §7): a sweep is a grid of
// (point, replicate) cells, each deterministic in isolation, and the driver
// runs the not-yet-done cells through the thread pool with per-cell
// wall-clock timeouts, bounded retry, cooperative cancellation (SIGINT /
// SIGTERM draining), and a watchdog that flags — and abandons — hung cells
// instead of deadlocking on wait_idle().
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace popbean {

// `count` log-spaced values from low to high inclusive.
inline std::vector<double> log_spaced(double low, double high,
                                      std::size_t count) {
  POPBEAN_CHECK(low > 0.0 && high > low);
  POPBEAN_CHECK(count >= 2);
  std::vector<double> values(count);
  const double log_low = std::log(low);
  const double step = (std::log(high) - log_low) /
                      static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = std::exp(log_low + step * static_cast<double>(i));
  }
  values.front() = low;
  values.back() = high;
  return values;
}

// The ε grid of the paper's Figure 4: powers of 10 from 1/n up, densified
// with a half-decade point, clipped to (0, 0.5]. The final 0.5 anchor is
// deduplicated against the geometric ladder with a relative tolerance: when
// the ladder's last rung lands within floating-point noise of 0.5 (some n
// put √10-multiples a few ulps below it), the rung is snapped to 0.5 instead
// of emitting a near-duplicate point that would burn a whole sweep column on
// an indistinguishable ε.
inline std::vector<double> figure4_epsilons(std::uint64_t n) {
  POPBEAN_CHECK(n >= 4);
  std::vector<double> eps;
  const double floor_eps = 1.0 / static_cast<double>(n);
  for (double e = floor_eps; e <= 0.5; e *= std::sqrt(10.0)) {
    eps.push_back(e);
  }
  constexpr double kRelTol = 1e-9;
  if (!eps.empty() && eps.back() >= 0.5 * (1.0 - kRelTol)) {
    eps.back() = 0.5;
  } else {
    eps.push_back(0.5);
  }
  return eps;
}

// --- crash-tolerant cell driver ---------------------------------------------

// One unit of sweep work: replicate `replicate` of grid point `point`.
struct SweepCell {
  std::size_t point = 0;
  std::size_t replicate = 0;
};

struct SweepRunOptions {
  // Per-cell wall-clock budget; zero means unlimited. A cell that exceeds it
  // is abandoned at its next poll and retried up to `max_retries` times —
  // retries help only against *external* slowness (a descheduled VM, a cold
  // cache): the cell's trajectory is deterministic, so a genuinely too-slow
  // cell will time out every attempt and be recorded as timed out.
  std::chrono::milliseconds cell_timeout{0};
  std::size_t max_retries = 1;

  // How often workers poll for cancellation/deadline, in interactions.
  std::uint64_t stop_check_interval = 4096;

  // Set by a signal handler (or a test) to drain: in-flight cells stop at
  // their next poll, pending cells are never started, and the driver
  // returns with `interrupted` set. Nothing is recorded for drained cells,
  // so a later --resume re-runs them.
  const std::atomic<bool>* cancel = nullptr;

  // Main-thread wakeup cadence for draining completed cells and running the
  // watchdog.
  std::chrono::milliseconds watchdog_interval{1000};
  // A cell overdue by more than cell_timeout + grace (per attempt) is
  // flagged hung and told to abandon — the backstop for a worker whose
  // deadline polling is itself wedged. Meaningless when cell_timeout is 0.
  std::chrono::milliseconds watchdog_grace{5000};

  // Optional observability sinks (src/obs): per-cell wall times and outcome
  // counters into `metrics`, one trace span per attempt into `trace`, and
  // one JSONL event per finished cell into `telemetry`. The sinks must
  // outlive the sweep call.
  obs::ObsContext obs;
};

enum class CellOutcomeKind {
  kDone,       // ran to completion; the caller's run_cell stored its result
  kTimedOut,   // every attempt hit the wall-clock budget
  kCancelled,  // drained by cancellation; nothing recorded
};

struct CellSweepReport {
  std::size_t completed = 0;   // kDone cells this run
  std::size_t timed_out = 0;   // kTimedOut cells this run
  std::size_t skipped = 0;     // cells already done before this run (resume)
  std::size_t cancelled = 0;   // cells drained or never started
  std::vector<std::string> hung;  // watchdog-flagged cell labels
  bool interrupted = false;

  bool complete() const noexcept { return !interrupted && cancelled == 0; }
};

// Runs every cell of a points × replicates grid whose `already_done` entry
// (index point·replicates + replicate) is false.
//
//   run_cell(cell, should_stop) -> bool
//     executes one cell on a worker thread; polls should_stop() about every
//     stop_check_interval interactions and returns false if it stopped early
//     (true = completed and its result is stored by the caller).
//
//   on_cell_done(cell, kind)
//     invoked on the *calling* thread, as results drain, for every kDone and
//     kTimedOut cell — the checkpoint hook: append to the manifest here
//     without any locking.
//
// Determinism: the driver imposes no ordering on cell execution, so
// run_cell must derive all randomness from the cell indices (seed/stream),
// never from shared state.
template <typename RunCell, typename OnCellDone>
CellSweepReport run_cell_sweep(ThreadPool& pool, std::size_t points,
                               std::size_t replicates,
                               const std::vector<char>& already_done,
                               const SweepRunOptions& options,
                               RunCell&& run_cell, OnCellDone&& on_cell_done) {
  POPBEAN_CHECK(points > 0 && replicates > 0);
  POPBEAN_CHECK(already_done.size() == points * replicates);
  using Clock = std::chrono::steady_clock;

  struct CellSlot {
    SweepCell cell;
    std::atomic<bool> abandon{false};
    std::atomic<Clock::rep> attempt_started{0};
    CellOutcomeKind kind = CellOutcomeKind::kCancelled;
  };

  CellSweepReport report;
  std::vector<std::unique_ptr<CellSlot>> slots;
  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t r = 0; r < replicates; ++r) {
      if (already_done[p * replicates + r]) {
        ++report.skipped;
        continue;
      }
      auto slot = std::make_unique<CellSlot>();
      slot->cell = {p, r};
      slots.push_back(std::move(slot));
    }
  }
  // Metric ids are registered once up front; recording then stays on the
  // registry's wait-free per-thread path inside the workers.
  obs::MetricsRegistry* const metrics = options.obs.metrics;
  obs::TraceCollector* const trace = options.obs.trace;
  obs::TelemetrySink* const telemetry = options.obs.telemetry;
  struct SweepMetricIds {
    obs::CounterId completed, timed_out, cancelled, retries, resume_skipped,
        hung;
    obs::HistogramId cell_ms;
  } ids{};
  if (metrics != nullptr) {
    ids.completed = metrics->counter("sweep.cells_completed");
    ids.timed_out = metrics->counter("sweep.cells_timed_out");
    ids.cancelled = metrics->counter("sweep.cells_cancelled");
    ids.retries = metrics->counter("sweep.cell_retries");
    ids.resume_skipped = metrics->counter("sweep.cells_resume_skipped");
    ids.hung = metrics->counter("sweep.cells_hung");
    ids.cell_ms = metrics->histogram(
        "sweep.cell_ms", Histogram::logarithmic(1e-2, 3.6e6, 44));
    if (report.skipped > 0) metrics->add(ids.resume_skipped, report.skipped);
  }

  if (slots.empty()) return report;

  const auto cancelled = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // Workers push finished slots here; the main thread drains in order of
  // completion and forwards kDone/kTimedOut cells to on_cell_done.
  std::vector<CellSlot*> done_queue;
  std::mutex done_mutex;
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (const std::unique_ptr<CellSlot>& owned : slots) {
    CellSlot* slot = owned.get();
    std::ostringstream label;
    label << "cell p" << slot->cell.point << " r" << slot->cell.replicate;
    pool.submit(label.str(), [&, slot] {
      CellOutcomeKind kind = CellOutcomeKind::kCancelled;
      try {
        if (!cancelled()) {
          for (std::size_t attempt = 0; attempt <= options.max_retries;
               ++attempt) {
            if (attempt > 0 && metrics != nullptr) {
              metrics->add(ids.retries);
            }
            slot->abandon.store(false, std::memory_order_relaxed);
            const Clock::time_point started = Clock::now();
            slot->attempt_started.store(started.time_since_epoch().count(),
                                        std::memory_order_relaxed);
            const bool bounded = options.cell_timeout.count() > 0;
            const Clock::time_point deadline = started + options.cell_timeout;
            const auto should_stop = [&] {
              return cancelled() ||
                     slot->abandon.load(std::memory_order_relaxed) ||
                     (bounded && Clock::now() >= deadline);
            };
            const bool done = run_cell(slot->cell, should_stop);
            const Clock::time_point finished = Clock::now();
            if (metrics != nullptr) {
              metrics->observe(
                  ids.cell_ms,
                  std::chrono::duration<double, std::milli>(finished - started)
                      .count());
            }
            if (trace != nullptr) {
              trace->complete_event(
                  "cell", "sweep", started, finished,
                  {{"point", static_cast<double>(slot->cell.point)},
                   {"replicate", static_cast<double>(slot->cell.replicate)},
                   {"attempt", static_cast<double>(attempt)},
                   {"done", done ? 1.0 : 0.0}});
            }
            if (done) {
              kind = CellOutcomeKind::kDone;
              break;
            }
            if (cancelled()) {
              kind = CellOutcomeKind::kCancelled;
              break;
            }
            kind = CellOutcomeKind::kTimedOut;  // retry unless attempts spent
          }
        }
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        kind = CellOutcomeKind::kCancelled;  // nothing recorded; rethrown below
      }
      slot->kind = kind;
      slot->attempt_started.store(0, std::memory_order_relaxed);  // watchdog off
      {
        std::lock_guard lock(done_mutex);
        done_queue.push_back(slot);
      }
    });
  }

  // Main loop: wake up on the watchdog cadence, drain completions in
  // checkpoint order, flag overdue cells.
  std::size_t drained = 0;
  const auto drain = [&] {
    std::vector<CellSlot*> batch;
    {
      std::lock_guard lock(done_mutex);
      batch.swap(done_queue);
    }
    for (CellSlot* slot : batch) {
      ++drained;
      const auto emit_telemetry = [&](std::string_view event) {
        if (telemetry == nullptr) return;
        telemetry->record(event, [&](JsonWriter& json) {
          json.kv("point", slot->cell.point);
          json.kv("replicate", slot->cell.replicate);
        });
      };
      switch (slot->kind) {
        case CellOutcomeKind::kDone:
          ++report.completed;
          if (metrics != nullptr) metrics->add(ids.completed);
          emit_telemetry("cell_done");
          on_cell_done(slot->cell, CellOutcomeKind::kDone);
          break;
        case CellOutcomeKind::kTimedOut:
          ++report.timed_out;
          if (metrics != nullptr) metrics->add(ids.timed_out);
          emit_telemetry("cell_timed_out");
          on_cell_done(slot->cell, CellOutcomeKind::kTimedOut);
          break;
        case CellOutcomeKind::kCancelled:
          ++report.cancelled;
          if (metrics != nullptr) metrics->add(ids.cancelled);
          break;
      }
    }
  };

  const bool watchdog_active = options.cell_timeout.count() > 0;
  while (!pool.wait_for(options.watchdog_interval)) {
    drain();
    if (!watchdog_active) continue;
    const auto budget = options.cell_timeout + options.watchdog_grace;
    const Clock::rep now = Clock::now().time_since_epoch().count();
    for (const std::unique_ptr<CellSlot>& owned : slots) {
      CellSlot* slot = owned.get();
      const Clock::rep started =
          slot->attempt_started.load(std::memory_order_relaxed);
      if (started == 0) continue;  // not yet attempted
      if (slot->abandon.load(std::memory_order_relaxed)) continue;
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::duration(now - started));
      if (elapsed <= budget) continue;
      // Overdue past the per-attempt budget: the worker's own deadline poll
      // should have fired long ago. Flag it and force the abandon path.
      slot->abandon.store(true, std::memory_order_relaxed);
      if (metrics != nullptr) metrics->add(ids.hung);
      std::ostringstream what;
      what << "cell p" << slot->cell.point << " r" << slot->cell.replicate
           << " overdue (" << elapsed.count() << " ms elapsed, budget "
           << budget.count() << " ms)";
      report.hung.push_back(what.str());
    }
  }
  drain();
  if (first_error) std::rethrow_exception(first_error);
  report.interrupted = cancelled();
  return report;
}

}  // namespace popbean
