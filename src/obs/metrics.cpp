#include "obs/metrics.hpp"

#include "obs/probe.hpp"
#include "util/check.hpp"

namespace popbean::obs {

namespace {

std::atomic<std::size_t> g_next_thread_index{0};
std::atomic<std::uint64_t> g_next_registry_generation{1};

}  // namespace

std::size_t current_thread_index() noexcept {
  thread_local const std::size_t index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

MetricsRegistry::MetricsRegistry()
    : generation_(
          g_next_registry_generation.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

CounterId MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) {
      return {static_cast<std::uint32_t>(i)};
    }
  }
  POPBEAN_CHECK_MSG(counter_names_.size() < kMaxCounters,
                    "MetricsRegistry: counter capacity exhausted");
  counter_names_.emplace_back(name);
  return {static_cast<std::uint32_t>(counter_names_.size() - 1)};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) {
      return {static_cast<std::uint32_t>(i)};
    }
  }
  POPBEAN_CHECK_MSG(gauge_names_.size() < kMaxGauges,
                    "MetricsRegistry: gauge capacity exhausted");
  gauge_names_.emplace_back(name);
  return {static_cast<std::uint32_t>(gauge_names_.size() - 1)};
}

HistogramId MetricsRegistry::histogram(std::string_view name,
                                       const Histogram& shape) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    if (hist_names_[i] == name) {
      POPBEAN_CHECK_MSG(hist_shapes_[i].same_shape(shape),
                        "MetricsRegistry: histogram re-registered with "
                        "different bin edges");
      return {static_cast<std::uint32_t>(i)};
    }
  }
  POPBEAN_CHECK_MSG(hist_names_.size() < kMaxHistograms,
                    "MetricsRegistry: histogram capacity exhausted");
  hist_names_.emplace_back(name);
  hist_shapes_.push_back(shape);
  return {static_cast<std::uint32_t>(hist_names_.size() - 1)};
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_this_thread() {
  // One-entry per-thread cache keyed by the registry generation: the hot
  // path (one registry at a time) never takes the registry mutex. A stale
  // entry can never alias a different registry — generations are
  // process-unique.
  thread_local std::uint64_t cached_generation = 0;
  thread_local Shard* cached_shard = nullptr;
  if (cached_shard != nullptr && cached_generation == generation_) {
    return *cached_shard;
  }
  const std::size_t index = current_thread_index();
  std::lock_guard lock(mutex_);
  if (shards_.size() <= index) shards_.resize(index + 1);
  if (shards_[index] == nullptr) shards_[index] = std::make_unique<Shard>();
  cached_shard = shards_[index].get();
  cached_generation = generation_;
  return *cached_shard;
}

void MetricsRegistry::add(CounterId id, std::uint64_t delta) {
  std::atomic<std::uint64_t>& cell = shard_for_this_thread().counters[id.index];
  // Single writer per shard: a plain load/store pair is a correct increment
  // and cheaper than a fetch_add.
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void MetricsRegistry::set(GaugeId id, double value) {
  gauges_[id.index].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::observe(HistogramId id, double value) {
  observe(id, value, 0);
}

void MetricsRegistry::observe(HistogramId id, double value,
                              std::uint64_t trace_id) {
  Shard& shard = shard_for_this_thread();
  {
    std::lock_guard hist_lock(shard.hist_mutex);
    if (id.index < shard.hists.size() && shard.hists[id.index] != nullptr) {
      shard.hists[id.index]->add(value, trace_id);
      return;
    }
  }
  // First observation on this shard: clone the registered shape. The
  // registry mutex is taken *before* the shard mutex, matching snapshot()'s
  // lock order.
  auto fresh = [&] {
    std::lock_guard lock(mutex_);
    POPBEAN_CHECK(id.index < hist_shapes_.size());
    return std::make_unique<Histogram>(hist_shapes_[id.index]);
  }();
  std::lock_guard hist_lock(shard.hist_mutex);
  if (shard.hists.size() <= id.index) shard.hists.resize(id.index + 1);
  if (shard.hists[id.index] == nullptr) {
    shard.hists[id.index] = std::move(fresh);
  }
  shard.hists[id.index]->add(value, trace_id);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::uint64_t total = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard == nullptr) continue;
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(counter_names_[i], total);
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.emplace_back(gauge_names_[i],
                             gauges_[i].load(std::memory_order_relaxed));
  }
  snap.histograms.reserve(hist_names_.size());
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    Histogram merged = hist_shapes_[i];
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard == nullptr) continue;
      std::lock_guard hist_lock(shard->hist_mutex);
      if (i < shard->hists.size() && shard->hists[i] != nullptr) {
        merged.merge(*shard->hists[i]);
      }
    }
    snap.histograms.emplace_back(hist_names_[i], std::move(merged));
  }
  return snap;
}

#if POPBEAN_OBS_ENABLED
void flush_engine_probe(MetricsRegistry& registry, const EngineProbe& probe,
                        std::string_view prefix) {
  const std::string base(prefix);
  registry.add(registry.counter(base + ".interactions"), probe.interactions);
  registry.add(registry.counter(base + ".productive"), probe.productive);
  for (std::size_t k = 0; k < kReactionKindCount; ++k) {
    registry.add(
        registry.counter(base + ".reactions." +
                         std::string(reaction_kind_name(
                             static_cast<ReactionKind>(k)))),
        probe.kinds[k]);
  }
}
#else
void flush_engine_probe(MetricsRegistry&, const EngineProbe&,
                        std::string_view) {}
#endif

}  // namespace popbean::obs
