// MetricsRegistry: register-or-lookup semantics, exact multi-threaded
// totals after a happens-before edge, and live-snapshot monotonicity. The
// multi-writer cases double as the TSan exercise for the sharded hot path
// (ctest -L obs runs under POPBEAN_SANITIZE=thread in CI).
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "util/histogram.hpp"

namespace popbean::obs {
namespace {

std::uint64_t counter_value(const MetricsRegistry::Snapshot& snapshot,
                            const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return 0;
}

TEST(MetricsRegistryTest, CounterRegistrationIsIdempotent) {
  MetricsRegistry registry;
  const CounterId a = registry.counter("engine.interactions");
  const CounterId b = registry.counter("engine.interactions");
  const CounterId other = registry.counter("engine.productive");
  EXPECT_EQ(a.index, b.index);
  EXPECT_NE(a.index, other.index);
}

TEST(MetricsRegistryTest, CountersSumExactlyAcrossThreads) {
  MetricsRegistry registry;
  const CounterId id = registry.counter("test.increments");
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) registry.add(id);
    });
  }
  for (std::thread& thread : threads) thread.join();
  // join() establishes happens-before with every store, so the snapshot is
  // exact, not just a lower bound.
  EXPECT_EQ(counter_value(registry.snapshot(), "test.increments"),
            kThreads * kPerThread);
}

TEST(MetricsRegistryTest, DeltasAndGaugesAreRecorded) {
  MetricsRegistry registry;
  const CounterId counter = registry.counter("test.bulk");
  registry.add(counter, 41);
  registry.add(counter);
  const GaugeId gauge = registry.gauge("test.depth");
  registry.set(gauge, 3.0);
  registry.set(gauge, 7.5);  // last write wins
  const MetricsRegistry::Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(counter_value(snapshot, "test.bulk"), 42u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].first, "test.depth");
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 7.5);
}

TEST(MetricsRegistryTest, HistogramsMergeAcrossThreads) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.histogram("test.latency", Histogram::linear(0.0, 10.0, 10));
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.observe(id, static_cast<double>(t) + 0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const MetricsRegistry::Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const Histogram& merged = snapshot.histograms[0].second;
  EXPECT_EQ(merged.total(), kThreads * kPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(merged.count(t), kPerThread) << "bin " << t;
  }
}

TEST(MetricsRegistryTest, HistogramReregistrationRequiresSameShape) {
  MetricsRegistry registry;
  const Histogram shape = Histogram::linear(0.0, 1.0, 4);
  const HistogramId a = registry.histogram("test.shape", shape);
  const HistogramId b = registry.histogram("test.shape", shape);
  EXPECT_EQ(a.index, b.index);
  EXPECT_THROW(
      registry.histogram("test.shape", Histogram::linear(0.0, 2.0, 4)),
      std::logic_error);
}

TEST(MetricsRegistryTest, LiveSnapshotIsAMonotoneLowerBound) {
  MetricsRegistry registry;
  const CounterId id = registry.counter("test.live");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) registry.add(id);
  });
  std::uint64_t previous = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now = counter_value(registry.snapshot(), "test.live");
    EXPECT_GE(now, previous);
    previous = now;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(MetricsRegistryTest, RegistrationPastCapacityThrows) {
  MetricsRegistry registry;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxGauges; ++i) {
    registry.gauge("gauge." + std::to_string(i));
  }
  EXPECT_THROW(registry.gauge("gauge.overflow"), std::logic_error);
  // Existing names still resolve after the capacity is exhausted.
  EXPECT_EQ(registry.gauge("gauge.0").index, 0u);
}

}  // namespace
}  // namespace popbean::obs
