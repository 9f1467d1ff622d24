// Health derivation (serve/health.hpp): a pure read of a metrics registry
// snapshot. The exposition side (the same series in --prom-out) is pinned by
// RouterTest.PromExpositionCarriesEveryShardsHealthView.
#include "serve/health.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace popbean::serve {
namespace {

TEST(HealthTest, EmptyRegistryIsNeitherLiveNorReady) {
  obs::MetricsRegistry registry;
  const HealthSnapshot health = derive_health(registry);
  EXPECT_FALSE(health.live);
  EXPECT_FALSE(health.ready);
  EXPECT_FALSE(health.overloaded);
  EXPECT_EQ(health.accepted, 0u);
  EXPECT_EQ(health.queue_depth, 0u);
}

TEST(HealthTest, PopulatedGaugesAndCountersDeriveTheFullView) {
  obs::MetricsRegistry registry;
  registry.set(registry.gauge("serve.live"), 1.0);
  registry.set(registry.gauge("serve.draining"), 0.0);
  registry.set(registry.gauge("serve.queue_depth"), 7.0);
  registry.set(registry.gauge("serve.queue_capacity"), 64.0);
  registry.set(registry.gauge("serve.inflight"), 2.0);
  registry.set(registry.gauge("serve.degradation_level"), 2.0);
  registry.set(registry.gauge("serve.breakers_open"), 0.0);
  registry.set(registry.gauge("serve.overloaded"), 1.0);
  registry.add(registry.counter("serve.accepted"), 20);
  registry.add(registry.counter("serve.rejected"), 3);
  registry.add(registry.counter("serve.completed"), 15);
  registry.add(registry.counter("serve.timeouts"), 2);
  registry.add(registry.counter("serve.retries"), 5);
  registry.add(registry.counter("serve.shed"), 1);

  const HealthSnapshot health = derive_health(registry);
  EXPECT_TRUE(health.live);
  EXPECT_TRUE(health.ready);
  EXPECT_TRUE(health.overloaded);
  EXPECT_EQ(health.queue_depth, 7u);
  EXPECT_EQ(health.queue_capacity, 64u);
  EXPECT_EQ(health.inflight, 2u);
  EXPECT_EQ(health.degradation_level, 2);
  EXPECT_EQ(health.accepted, 20u);
  EXPECT_EQ(health.rejected, 3u);
  EXPECT_EQ(health.completed, 15u);
  EXPECT_EQ(health.timeouts, 2u);
  EXPECT_EQ(health.retries, 5u);
  EXPECT_EQ(health.shed, 1u);
}

TEST(HealthTest, DrainingServiceIsLiveButNotReady) {
  obs::MetricsRegistry registry;
  registry.set(registry.gauge("serve.live"), 1.0);
  registry.set(registry.gauge("serve.draining"), 1.0);
  const HealthSnapshot health = derive_health(registry);
  EXPECT_TRUE(health.live);
  EXPECT_FALSE(health.ready);
}

TEST(HealthTest, AnOpenBreakerAloneMarksTheServiceOverloaded) {
  obs::MetricsRegistry registry;
  registry.set(registry.gauge("serve.live"), 1.0);
  registry.set(registry.gauge("serve.overloaded"), 0.0);
  registry.set(registry.gauge("serve.breakers_open"), 1.0);
  const HealthSnapshot health = derive_health(registry);
  EXPECT_TRUE(health.overloaded);
  EXPECT_EQ(health.breakers_open, 1u);
}

TEST(HealthTest, VoteCountersDerive) {
  obs::MetricsRegistry registry;
  registry.set(registry.gauge("serve.live"), 1.0);
  registry.add(registry.counter("serve.vote.voted"), 40);
  registry.add(registry.counter("serve.vote.divergences"), 5);
  registry.add(registry.counter("serve.vote.no_majority"), 1);
  registry.add(registry.counter("serve.vote.quarantine_entered"), 2);
  registry.add(registry.counter("serve.vote.quarantine_recovered"), 1);
  registry.add(registry.counter("serve.vote.quarantined_jobs"), 7);
  registry.set(registry.gauge("serve.vote.quarantined_families"), 1.0);

  const HealthSnapshot health = derive_health(registry);
  EXPECT_EQ(health.voted, 40u);
  EXPECT_EQ(health.divergences, 5u);
  EXPECT_EQ(health.no_majority, 1u);
  EXPECT_EQ(health.quarantine_entered, 2u);
  EXPECT_EQ(health.quarantine_recovered, 1u);
  EXPECT_EQ(health.quarantined_jobs, 7u);
  EXPECT_EQ(health.quarantined_families, 1u);
}

// --- Overload hysteresis (the flapping fix) --------------------------------

TEST(HealthTest, OverloadLatchHoldsBetweenThresholds) {
  OverloadHysteresis latch(0.75, 0.25);
  EXPECT_FALSE(latch.overloaded());
  EXPECT_FALSE(latch.update(0.74));  // below enter: stays calm
  EXPECT_TRUE(latch.update(0.75));   // at enter: latches
  EXPECT_TRUE(latch.update(0.50));   // in the band: holds
  EXPECT_TRUE(latch.update(0.26));   // still above exit: holds
  EXPECT_FALSE(latch.update(0.25));  // at exit: releases
  EXPECT_FALSE(latch.update(0.50));  // in the band from below: stays calm
}

TEST(HealthTest, OccupancyHoveringAtTheBoundaryDoesNotFlap) {
  // Regression: the raw comparison (occupancy >= high) emitted a fresh
  // 0→1 edge on every poll while occupancy oscillated around the
  // watermark. The latch must report one sustained episode.
  OverloadHysteresis latch(0.75, 0.25);
  int edges = 0;
  bool last = latch.overloaded();
  for (int i = 0; i < 100; ++i) {
    // Hover: 0.74, 0.76, 0.74, 0.76, … — around the enter threshold.
    const bool now = latch.update(i % 2 == 0 ? 0.74 : 0.76);
    if (now != last) ++edges;
    last = now;
  }
  EXPECT_EQ(edges, 1);  // a single 0→1 transition, then latched
  EXPECT_TRUE(latch.overloaded());
  // And dropping through the band releases exactly once.
  EXPECT_TRUE(latch.update(0.30));
  EXPECT_FALSE(latch.update(0.10));
}

TEST(HealthTest, InvertedHysteresisBandIsALogicError) {
  EXPECT_THROW(OverloadHysteresis(0.25, 0.75), std::logic_error);
  // A degenerate-but-ordered band (enter == exit) is allowed; the enter
  // comparison wins at the shared boundary.
  OverloadHysteresis latch(0.5, 0.5);
  EXPECT_TRUE(latch.update(0.5));
  EXPECT_TRUE(latch.update(0.5));
  EXPECT_FALSE(latch.update(0.49));
}

}  // namespace
}  // namespace popbean::serve
