// ShardRouter (serve/router.hpp): rendezvous placement, reject-to-sibling
// spill, the fleet-wide exactly-one-response contract, and health
// aggregation across shards.
#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prom.hpp"

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

JobSpec quick_job(std::string id, const std::string& protocol = "four-state") {
  JobSpec spec;
  spec.id = std::move(id);
  spec.protocol = protocol;
  spec.n = 60;
  spec.epsilon = 0.2;
  spec.seed = 7;
  spec.replicates = 1;
  return spec;
}

RouterConfig base_config(std::size_t shards, std::size_t threads = 1) {
  RouterConfig config;
  config.shards = shards;
  config.service.threads = threads;
  config.service.admission.capacity = 16;
  config.service.backoff = BackoffPolicy{1ms, 4ms};
  config.service.default_deadline = 10'000ms;
  config.service.drain_deadline = 20'000ms;
  config.service.degradation.escalate_after = 10'000ms;
  return config;
}

TEST(RouterTest, RendezvousOrderIsADeterministicPermutation) {
  Collector collector;
  ShardRouter router(base_config(5),
                     [&](const JobResponse& r) { collector(r); });
  for (const char* family : {"avc", "four-state", "three-state", "zoo:x"}) {
    const std::vector<std::size_t> order = router.rendezvous_order(family);
    ASSERT_EQ(order.size(), 5u);
    std::set<std::size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), 5u) << family << " order is not a permutation";
    EXPECT_EQ(router.owner_of(family), order.front());
    // Stable across calls — two routers with the same shard count agree.
    EXPECT_EQ(router.rendezvous_order(family), order);
  }
}

TEST(RouterTest, FamiliesSpreadAcrossShards) {
  Collector collector;
  ShardRouter router(base_config(4),
                     [&](const JobResponse& r) { collector(r); });
  std::set<std::size_t> owners;
  for (int f = 0; f < 64; ++f) {
    owners.insert(router.owner_of("family-" + std::to_string(f)));
  }
  // 64 families over 4 shards: rendezvous hashing should touch every shard.
  EXPECT_EQ(owners.size(), 4u);
}

TEST(RouterTest, JobsLandOnTheirOwnerShard) {
  Collector collector;
  ShardRouter router(base_config(3),
                     [&](const JobResponse& r) { collector(r); });
  const std::size_t owner = router.owner_of("four-state");
  for (int j = 0; j < 6; ++j) {
    EXPECT_TRUE(router.submit(quick_job("own-" + std::to_string(j))));
  }
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(collector.await("own-" + std::to_string(j)).outcome,
              JobOutcome::kDone);
  }
  EXPECT_EQ(router.shard(owner).health().accepted, 6u);
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    if (i != owner) {
      EXPECT_EQ(router.shard(i).health().accepted, 0u);
    }
  }
  EXPECT_EQ(router.stats().submitted, 6u);
  EXPECT_EQ(router.stats().redirected, 0u);
}

// Plugs shards deterministically: a chaos kSlow job wedges the single
// worker, a second job fills the capacity-1 queue, so the next submission
// is guaranteed to be rejected by that shard — no racing the workers.
RouterConfig pluggable_config(std::size_t shards) {
  RouterConfig config = base_config(shards);
  config.service.admission.capacity = 1;
  config.service.chaos_slow = 300ms;
  config.service.chaos = [](const ChaosContext& ctx) {
    return ctx.spec.id.rfind("plug", 0) == 0 ? ChaosAction::kSlow
                                             : ChaosAction::kNone;
  };
  return config;
}

TEST(RouterTest, OwnerRejectionSpillsToTheSiblingSequence) {
  Collector collector;
  ShardRouter router(pluggable_config(2),
                     [&](const JobResponse& r) { collector(r); });
  const std::size_t owner = router.owner_of("four-state");
  const std::size_t sibling = 1 - owner;
  // Wedge and fill the owner, then the sibling, then overflow the fleet.
  EXPECT_TRUE(router.submit(quick_job("plug-owner")));     // owner running
  EXPECT_TRUE(router.submit(quick_job("fill-owner")));     // owner queued
  EXPECT_TRUE(router.submit(quick_job("plug-sibling")));   // spills, wedges
  EXPECT_TRUE(router.submit(quick_job("fill-sibling")));   // spills, queued
  EXPECT_FALSE(router.submit(quick_job("nowhere")));       // every shard full
  const JobResponse rejected = collector.await("nowhere");
  EXPECT_EQ(rejected.outcome, JobOutcome::kOverloaded);
  EXPECT_EQ(rejected.error, "all_shards_overloaded");
  for (const char* id :
       {"plug-owner", "fill-owner", "plug-sibling", "fill-sibling"}) {
    EXPECT_EQ(collector.await(id).outcome, JobOutcome::kDone) << id;
    EXPECT_EQ(collector.count(id), 1u) << id;
  }
  const ShardRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.redirected, 2u);  // plug-sibling and fill-sibling
  EXPECT_EQ(stats.rejected_all, 1u);
  EXPECT_EQ(router.shard(sibling).health().accepted, 2u);
  EXPECT_EQ(router.shard(owner).health().accepted, 2u);
}

TEST(RouterTest, DrainAllPreservesExactlyOneResponse) {
  Collector collector;
  ShardRouter router(base_config(3, 2),
                     [&](const JobResponse& r) { collector(r); });
  const int jobs = 18;
  std::size_t admitted = 0;
  for (int j = 0; j < jobs; ++j) {
    const std::string protocol = j % 2 == 0 ? "four-state" : "three-state";
    if (router.submit(quick_job("drain-" + std::to_string(j), protocol))) {
      ++admitted;
    }
  }
  EXPECT_TRUE(router.drain(20'000ms));
  EXPECT_EQ(collector.total(), static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    EXPECT_EQ(collector.count("drain-" + std::to_string(j)), 1u);
  }
  // Admission is closed fleet-wide after a drain: no sibling accepts either.
  EXPECT_FALSE(router.submit(quick_job("late")));
  const JobResponse late = collector.await("late");
  EXPECT_EQ(late.outcome, JobOutcome::kOverloaded);
  EXPECT_EQ(late.error, "all_shards_overloaded");
}

TEST(RouterTest, FleetHealthAggregatesAcrossShards) {
  Collector collector;
  ShardRouter router(base_config(3),
                     [&](const JobResponse& r) { collector(r); });
  for (int j = 0; j < 4; ++j) {
    EXPECT_TRUE(router.submit(quick_job("fs-" + std::to_string(j))));
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(
        router.submit(quick_job("ts-" + std::to_string(j), "three-state")));
  }
  router.note_invalid();
  EXPECT_TRUE(router.drain(20'000ms));
  const HealthSnapshot fleet = router.health();
  EXPECT_TRUE(fleet.live);
  EXPECT_FALSE(fleet.ready);  // drained
  EXPECT_EQ(fleet.accepted, 7u);
  EXPECT_EQ(fleet.completed, 7u);
  EXPECT_EQ(fleet.invalid, 1u);
  // The per-shard view sums to the fleet view.
  std::uint64_t accepted = 0;
  for (const HealthSnapshot& h : router.shard_health()) {
    accepted += h.accepted;
  }
  EXPECT_EQ(accepted, fleet.accepted);
  // Shard 0 keeps the fleet's invalid-line total.
  EXPECT_EQ(router.shard(0).health().invalid, 1u);
}

// The value of `name{shard="<shard>"}`, which must appear exactly once.
double shard_series(const obs::PromDocument& doc, const std::string& name,
                    const std::string& shard) {
  const obs::PromSample* found = nullptr;
  for (const obs::PromSample& sample : doc.samples) {
    const auto label = sample.labels.find("shard");
    if (sample.name != name || label == sample.labels.end() ||
        label->second != shard) {
      continue;
    }
    EXPECT_EQ(found, nullptr) << "duplicate series " << name;
    found = &sample;
  }
  EXPECT_NE(found, nullptr) << "no series " << name << "{shard=\"" << shard
                            << "\"}";
  return found != nullptr ? found->value : -1.0;
}

// The exposition is the one snapshot format: every counter and gauge that
// derive_health reads for a shard is in it as that shard's series.
TEST(RouterTest, PromExpositionCarriesEveryShardsHealthView) {
  Collector collector;
  ShardRouter router(base_config(2),
                     [&](const JobResponse& r) { collector(r); });
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(router.submit(quick_job("fs-" + std::to_string(j))));
    EXPECT_TRUE(
        router.submit(quick_job("ts-" + std::to_string(j), "three-state")));
  }
  router.note_invalid();
  ASSERT_TRUE(router.drain(20'000ms));
  std::ostringstream os;
  router.write_prometheus(os);
  const obs::PromDocument doc = obs::parse_prometheus(os.str());

  const std::vector<HealthSnapshot> health = router.shard_health();
  ASSERT_EQ(health.size(), 2u);
  double accepted = 0.0;
  for (std::size_t i = 0; i < health.size(); ++i) {
    const HealthSnapshot& h = health[i];
    const std::string shard = std::to_string(i);
    SCOPED_TRACE("shard " + shard);
    const auto series = [&](const std::string& name) {
      return shard_series(doc, "popbean_serve_" + name, shard);
    };
    EXPECT_EQ(series("draining"), 1.0);
    EXPECT_FALSE(h.ready);
    EXPECT_EQ(series("live") > 0.5, h.live);
    EXPECT_EQ(series("overloaded") > 0.5 || series("breakers_open") > 0.0,
              h.overloaded);
    const std::vector<std::pair<std::string, double>> gauges = {
        {"queue_depth", static_cast<double>(h.queue_depth)},
        {"queue_capacity", static_cast<double>(h.queue_capacity)},
        {"inflight", static_cast<double>(h.inflight)},
        {"degradation_level", static_cast<double>(h.degradation_level)},
        {"breakers_open", static_cast<double>(h.breakers_open)},
        {"vote_quarantined_families",
         static_cast<double>(h.quarantined_families)}};
    for (const auto& [name, value] : gauges) {
      EXPECT_EQ(series(name), value) << name;
    }
    const std::vector<std::pair<std::string, std::uint64_t>> counters = {
        {"accepted", h.accepted},
        {"rejected", h.rejected},
        {"invalid", h.invalid},
        {"completed", h.completed},
        {"truncated", h.truncated},
        {"failed", h.failed},
        {"timeouts", h.timeouts},
        {"retries", h.retries},
        {"shed", h.shed},
        {"breaker_opens", h.breaker_opens},
        {"breaker_closes", h.breaker_closes},
        {"vote_voted", h.voted},
        {"vote_divergences", h.divergences},
        {"vote_no_majority", h.no_majority},
        {"vote_quarantine_entered", h.quarantine_entered},
        {"vote_quarantine_recovered", h.quarantine_recovered},
        {"vote_quarantined_jobs", h.quarantined_jobs}};
    for (const auto& [name, value] : counters) {
      EXPECT_EQ(series(name + "_total"), static_cast<double>(value)) << name;
    }
    accepted += series("accepted_total");
  }
  EXPECT_EQ(accepted, 6.0);
  EXPECT_EQ(health[0].invalid, 1u);
}

TEST(RouterTest, ConfigIsValidatedAtConstruction) {
  const auto sink = [](const JobResponse&) {};
  RouterConfig none = base_config(1);
  none.shards = 0;
  EXPECT_THROW(ShardRouter(none, sink), std::logic_error);

  obs::MetricsRegistry registry;
  RouterConfig shared = base_config(2);
  shared.service.metrics = &registry;  // shards must own their registries
  EXPECT_THROW(ShardRouter(shared, sink), std::logic_error);

  EXPECT_THROW(ShardRouter(base_config(1), nullptr), std::logic_error);
}

}  // namespace
}  // namespace popbean::serve
