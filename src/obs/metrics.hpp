// MetricsRegistry: counters, gauges, and mergeable histograms with
// thread-local sharding (DESIGN.md §8).
//
// Design: metric *names* are registered up front (register-or-lookup, under
// a mutex, bounded by the kMax* capacities) and return small ids; the hot
// recording paths then touch only the calling thread's shard:
//
//   * add(CounterId)   — a relaxed load/store on the shard's own cell. Each
//     shard has exactly one writer (its thread), so no RMW is needed: the
//     increment is wait-free and never contends.
//   * observe(HistogramId) — appends to the shard's private Histogram under
//     the shard's own mutex, which only a concurrent snapshot() ever shares.
//   * set(GaugeId)     — a relaxed atomic store on the registry (gauges are
//     last-write-wins and rare; sharding them would lose the semantics).
//
// snapshot() folds all shards: counter cells are summed with relaxed loads
// and histograms merged via Histogram::merge. A live snapshot is a
// consistent *lower bound* per metric (each cell read is atomic and
// monotone); for exact totals, establish happens-before with the writers
// first — join the threads or drain the pool (ThreadPool::wait_idle), after
// which every prior relaxed store is visible.
//
// Shards are owned by the registry and indexed by the process-wide thread
// index (obs.hpp), so a shard outlives its thread and nothing is lost when
// pool workers exit. Metric naming scheme: dot-separated
// "subsystem.metric[.detail]", e.g. "engine.reactions.averaging",
// "pool.task_run_ms", "sweep.cell_ms" (DESIGN.md §8 lists the registry).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/histogram.hpp"

namespace popbean::obs {

// Typed metric handles; cheap to copy, valid for the registry's lifetime.
struct CounterId {
  std::uint32_t index = 0;
};
struct GaugeId {
  std::uint32_t index = 0;
};
struct HistogramId {
  std::uint32_t index = 0;
};

class MetricsRegistry {
 public:
  // Fixed capacities keep shards flat arrays (wait-free indexing, no
  // resize races); registration past a capacity is a programming error.
  static constexpr std::size_t kMaxCounters = 256;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxHistograms = 64;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Register-or-lookup by name. Registering an existing histogram name
  // requires the same bin edges.
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name, const Histogram& shape);

  void add(CounterId id, std::uint64_t delta = 1);
  void set(GaugeId id, double value);
  void observe(HistogramId id, double value);
  // As observe(), and stamps the bucket's exemplar with `trace_id` (0 =
  // untraced, no exemplar) — see Histogram::Exemplar.
  void observe(HistogramId id, double value, std::uint64_t trace_id);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;
  };

  // Aggregated view in registration order (deterministic for a fixed code
  // path). Safe to call while other threads record.
  Snapshot snapshot() const;

 private:
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    // Guards hists (growth and bin updates) against concurrent snapshots;
    // uncontended on the recording path.
    mutable std::mutex hist_mutex;
    std::vector<std::unique_ptr<Histogram>> hists;
  };

  Shard& shard_for_this_thread();

  const std::uint64_t generation_;  // process-unique, for shard caching
  mutable std::mutex mutex_;        // names, shapes, shard list
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::vector<Histogram> hist_shapes_;
  std::array<std::atomic<double>, kMaxGauges> gauges_{};
  std::vector<std::unique_ptr<Shard>> shards_;  // index: thread index
};

}  // namespace popbean::obs
