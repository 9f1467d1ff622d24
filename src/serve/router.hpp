// ShardRouter: N in-process JobService shards, each owning a slice of job
// families (DESIGN.md §12).
//
// Placement is rendezvous (highest-random-weight) hashing on the protocol
// fingerprint: shard(family) = argmax_i mix_seed(fnv1a64(family), i). Every
// shard scores every family independently, so adding or removing a shard
// moves only the families whose top score changed — no modular-bucket
// avalanche — and two routers with the same shard count always agree, with
// no coordination state.
//
// Each shard is a full JobService: its own admission queue, breaker bank
// (including vote quarantine), degradation ladder, and metrics registry.
// A family's breaker state therefore lives exactly where its jobs run.
//
// Admission is shard-aware: a job goes to its owner shard first; if the
// owner rejects (queue full, quota, draining), the router walks the
// remaining shards in descending rendezvous order (each family has its own
// deterministic fallback sequence, so spill load spreads instead of piling
// onto shard 0). Only when every shard rejects does the router emit the
// single `overloaded` response — the exactly-one-response contract holds
// across the fleet because rejected-then-redirected submissions use
// try_submit(), which reports the reason without emitting.
//
// Remote shards (DESIGN.md §14) extend the slot space past the local
// services: a ShardProxy occupies rendezvous slots L..L+R-1 after the L
// local shards and competes in the same HRW scoring, so a family's owner
// may live in another process and the spill walk crosses process
// boundaries without the router knowing anything about sockets. Proxies
// deliver their responses through their own transport; the router only
// ever sees admit/reject.
//
// Shutdown drains all shards against one shared budget: admission stops
// everywhere first (no shard can spill into a sibling that is already
// draining), then each shard drains with whatever budget remains.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/context.hpp"
#include "obs/prom.hpp"
#include "serve/health.hpp"
#include "serve/service.hpp"
#include "util/backoff.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean::serve {

// A shard the router reaches through a narrow admission/drain interface
// instead of owning in-process. net/remote_shard.hpp implements it over
// TCP; tests stub it. An implementation that admits a job (try_submit →
// nullopt) takes over the exactly-one-response contract for that job and
// delivers the terminal response through its own path — the router never
// hears about it again.
class ShardProxy {
 public:
  virtual ~ShardProxy() = default;
  // Like JobService::try_submit: nullopt = admitted, otherwise the
  // rejection reason (breaker open, link down, inflight cap, draining)
  // and the job was NOT taken, so the router keeps walking the spill
  // order. Must be thread-safe; must not block on the network beyond a
  // bounded connect/write.
  virtual std::optional<std::string> try_submit(JobSpec spec) = 0;
  // Stops admitting; in-flight jobs keep their response path.
  virtual void begin_drain() = 0;
  // Waits up to `budget` for in-flight jobs to reach their terminal
  // response (flushing them as failed past the budget). True = clean.
  virtual bool drain(std::chrono::milliseconds budget) = 0;
};

struct RouterConfig {
  std::size_t shards = 1;
  // Per-shard service template. `metrics` must be null (each shard owns its
  // registry so per-shard health stays meaningful); `telemetry` may be
  // shared (the sink is line-granular under its own mutex).
  ServiceConfig service;
  // Remote shards: slot i of `remotes` occupies rendezvous slot shards+i.
  // Shared because the transport that feeds a proxy its responses usually
  // co-owns it. Health/metrics of a remote shard live in its own process
  // (health() here covers local shards only).
  std::vector<std::shared_ptr<ShardProxy>> remotes;
};

class ShardRouter {
 public:
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t redirected = 0;    // admitted by a non-owner slot
    std::uint64_t rejected_all = 0;  // every slot said no
    std::uint64_t remote = 0;        // admitted by a remote shard proxy
  };

  ShardRouter(RouterConfig config, JobService::ResponseFn on_response)
      : config_(std::move(config)),
        on_response_(std::move(on_response)) {
    POPBEAN_CHECK_MSG(config_.shards >= 1,
                      "ShardRouter: at least one shard required");
    for (const auto& remote : config_.remotes) {
      POPBEAN_CHECK_MSG(remote != nullptr,
                        "ShardRouter: null remote shard proxy");
    }
    POPBEAN_CHECK_MSG(config_.service.metrics == nullptr,
                      "ShardRouter: shards own their metrics registries");
    POPBEAN_CHECK_MSG(on_response_ != nullptr,
                      "ShardRouter: a response sink is required");
    shards_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      ServiceConfig shard_config = config_.service;
      // Decorrelate backoff jitter across shards.
      shard_config.seed = mix_seed(config_.service.seed, i);
      // Responses, spans, and slow-log entries name the shard that served
      // them (the trace/slow_log pointers are shared across shards — both
      // serialize internally, and a fleet reads best on one timeline).
      shard_config.shard_index = i;
      shards_.push_back(std::make_unique<JobService>(
          std::move(shard_config), [this](const JobResponse& response) {
            std::lock_guard lock(response_mutex_);
            on_response_(response);
          }));
    }
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  // Local shards plus remote proxy slots — the rendezvous slot space.
  std::size_t slot_count() const noexcept {
    return shards_.size() + config_.remotes.size();
  }
  JobService& shard(std::size_t i) { return *shards_.at(i); }
  const JobService& shard(std::size_t i) const { return *shards_.at(i); }

  // Owner slot of a family (top rendezvous score); may name a remote.
  std::size_t owner_of(std::string_view family) const {
    return rendezvous_order(family).front();
  }

  // All slots in descending rendezvous score for a family: the owner
  // first, then the deterministic spill sequence.
  std::vector<std::size_t> rendezvous_order(std::string_view family) const {
    const std::uint64_t fingerprint = fnv1a64(family);
    std::vector<std::size_t> order(slot_count());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<std::uint64_t> score(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      score[i] = mix_seed(fingerprint, i);
    }
    std::sort(order.begin(), order.end(),
              [&score](std::size_t a, std::size_t b) {
                return score[a] != score[b] ? score[a] > score[b] : a < b;
              });
    return order;
  }

  // Routes one job. Returns true when some shard admitted it; false means
  // the single `overloaded` response was already delivered.
  bool submit(JobSpec spec) {
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.submitted;
    }
    // Mint before the spill walk: try_submit copies the spec per shard, so
    // minting inside a shard would give every spill attempt a fresh id and
    // split one job across trace trees.
    if (config_.service.trace != nullptr && spec.trace_id == 0) {
      spec.trace_id = obs::mint_trace_id();
    }
    const std::vector<std::size_t> order = rendezvous_order(spec.protocol);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t i = order[pos];
      const bool is_remote = i >= shards_.size();
      std::optional<std::string> rejected =
          is_remote ? config_.remotes[i - shards_.size()]->try_submit(spec)
                    : shards_[i]->try_submit(spec);
      if (!rejected.has_value()) {
        if (pos > 0 || is_remote) {
          std::lock_guard lock(stats_mutex_);
          if (pos > 0) ++stats_.redirected;
          if (is_remote) ++stats_.remote;
        }
        return true;
      }
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.rejected_all;
    }
    JobResponse response;
    response.origin = spec.origin;
    response.id = std::move(spec.id);
    response.outcome = JobOutcome::kOverloaded;
    response.error = "all_shards_overloaded";
    // Each shard's try_submit recorded its own reject instant; the spec's
    // trace id (minted at decode) still joins this response to them.
    response.trace_id = spec.trace_id;
    response.shard = order.front();  // the owner that should have served it
    {
      std::lock_guard lock(response_mutex_);
      on_response_(response);
    }
    return false;
  }

  // Counted on the owner of nothing — shard 0 keeps the fleet's invalid
  // total so health sums stay correct.
  void note_invalid() { shards_.front()->note_invalid(); }

  void begin_drain() {
    for (const auto& shard : shards_) shard->begin_drain();
    for (const auto& remote : config_.remotes) remote->begin_drain();
  }

  // Drain-all: stop admission on every slot first, then drain each local
  // shard, then each remote proxy, against the shared absolute deadline.
  // Returns true only if every slot drained cleanly within the budget.
  bool drain(std::chrono::milliseconds budget) {
    begin_drain();
    const Deadline hard = Deadline::after(budget);
    const auto remaining_budget = [&hard, budget] {
      if (hard.is_unlimited()) return budget;
      return std::max(std::chrono::milliseconds{0},
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          hard.remaining()));
    };
    bool clean = true;
    for (const auto& shard : shards_) {
      clean = shard->drain(remaining_budget()) && clean;
    }
    for (const auto& remote : config_.remotes) {
      clean = remote->drain(remaining_budget()) && clean;
    }
    return clean;
  }

  Stats stats() const {
    std::lock_guard lock(stats_mutex_);
    return stats_;
  }

  // Fleet health: live/ready are conjunctions, overloaded is a disjunction,
  // counters and depths are sums, degradation level is the max.
  HealthSnapshot health() const {
    HealthSnapshot fleet;
    fleet.live = true;
    fleet.ready = true;
    for (const auto& shard : shards_) {
      const HealthSnapshot h = shard->health();
      fleet.live = fleet.live && h.live;
      fleet.ready = fleet.ready && h.ready;
      fleet.overloaded = fleet.overloaded || h.overloaded;
      fleet.queue_depth += h.queue_depth;
      fleet.queue_capacity += h.queue_capacity;
      fleet.inflight += h.inflight;
      fleet.degradation_level =
          std::max(fleet.degradation_level, h.degradation_level);
      fleet.breakers_open += h.breakers_open;
      fleet.breaker_opens += h.breaker_opens;
      fleet.breaker_closes += h.breaker_closes;
      fleet.accepted += h.accepted;
      fleet.rejected += h.rejected;
      fleet.invalid += h.invalid;
      fleet.completed += h.completed;
      fleet.truncated += h.truncated;
      fleet.failed += h.failed;
      fleet.timeouts += h.timeouts;
      fleet.retries += h.retries;
      fleet.shed += h.shed;
      fleet.voted += h.voted;
      fleet.divergences += h.divergences;
      fleet.no_majority += h.no_majority;
      fleet.quarantine_entered += h.quarantine_entered;
      fleet.quarantine_recovered += h.quarantine_recovered;
      fleet.quarantined_jobs += h.quarantined_jobs;
      fleet.quarantined_families += h.quarantined_families;
    }
    return fleet;
  }

  std::vector<HealthSnapshot> shard_health() const {
    std::vector<HealthSnapshot> all;
    all.reserve(shards_.size());
    for (const auto& shard : shards_) all.push_back(shard->health());
    return all;
  }

  // Prometheus text-format exposition (obs/prom.hpp) of the whole fleet:
  // every registry series once per shard under shard="i", plus the merged
  // rollup under shard="fleet" (counters/histograms summed, gauges from the
  // last shard — meaningful fleet gauges live in the per-shard series) and
  // the router's own spill counters. `enrich` lets a front end append
  // series the router cannot see (the TCP server's connection counters)
  // into the same exposition before it is written, so one scrape covers
  // the whole process. Remote shards expose themselves in their own
  // process; this exposition covers local slots only.
  void write_prometheus(
      std::ostream& os,
      const std::function<void(obs::PromExposition&)>& enrich = {}) const {
    std::vector<obs::MetricsRegistry::Snapshot> snaps;
    snaps.reserve(shards_.size());
    for (const auto& shard : shards_) {
      snaps.push_back(shard->metrics().snapshot());
    }
    obs::PromExposition prom;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      prom.add(snaps[i], {{"shard", std::to_string(i)}});
    }
    prom.add(obs::merge_snapshots(snaps), {{"shard", "fleet"}});
    if (config_.service.trace != nullptr) {
      prom.add_counter("obs.trace_events_dropped",
                       config_.service.trace->dropped_count(),
                       {{"shard", "fleet"}});
    }
    const Stats s = stats();
    prom.add_counter("router.submitted", s.submitted, {{"shard", "fleet"}});
    prom.add_counter("router.redirected", s.redirected, {{"shard", "fleet"}});
    prom.add_counter("router.rejected_all", s.rejected_all,
                     {{"shard", "fleet"}});
    prom.add_counter("router.remote_admitted", s.remote,
                     {{"shard", "fleet"}});
    if (enrich) enrich(prom);
    prom.write(os);
  }

 private:
  RouterConfig config_;
  JobService::ResponseFn on_response_;
  std::mutex response_mutex_;  // serializes the shared sink across shards
  mutable std::mutex stats_mutex_;
  Stats stats_;
  std::vector<std::unique_ptr<JobService>> shards_;
};

}  // namespace popbean::serve
