// Request-scoped tracing through the sharded serve path (DESIGN.md §13):
// every admitted job produces exactly one complete "job" span tree in the
// shared TraceCollector — across shards, voting replicas, retries, and
// rejections — its trace id is echoed in the response, histogram exemplars
// resolve to recorded trace ids, and the router's Prometheus exposition
// parses cleanly with monotone counters. Runs under the serve TSan shard:
// the collector, slow log, and registries are hit from every worker.
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/context.hpp"
#include "obs/prom.hpp"
#include "obs/slow_log.hpp"
#include "obs/trace.hpp"
#include "serve/router.hpp"
#include "util/json_parse.hpp"

namespace popbean::serve {
namespace {

using namespace std::chrono_literals;

class Collector {
 public:
  void operator()(const JobResponse& response) {
    std::lock_guard lock(mutex_);
    responses_.push_back(response);
  }

  std::vector<JobResponse> all() {
    std::lock_guard lock(mutex_);
    return responses_;
  }

 private:
  std::mutex mutex_;
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

// Counts Chrome async events per (name, trace-id-hex) from the collector's
// serialized document — the same artifact Perfetto loads.
struct AsyncCounts {
  std::map<std::string, std::size_t> begins;  // trace-id hex → count
  std::map<std::string, std::size_t> ends;
  std::map<std::string, std::size_t> replica_spans;  // 'b' halves
  std::map<std::string, std::size_t> rejects;        // "reject" instants
};

AsyncCounts count_async(const obs::TraceCollector& trace) {
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());
  const JsonValue* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  AsyncCounts counts;
  for (std::size_t i = 0; events != nullptr && i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    const JsonValue* ph = event.find("ph");
    const JsonValue* name = event.find("name");
    const JsonValue* id = event.find("id");
    if (ph == nullptr || name == nullptr || id == nullptr) continue;
    const std::string& phase = ph->as_string();
    if (name->as_string() == "job") {
      if (phase == "b") ++counts.begins[id->as_string()];
      if (phase == "e") ++counts.ends[id->as_string()];
    } else if (name->as_string() == "replica" && phase == "b") {
      ++counts.replica_spans[id->as_string()];
    } else if (name->as_string() == "reject" && phase == "n") {
      ++counts.rejects[id->as_string()];
    }
  }
  return counts;
}

TEST(TracePropagationTest, EveryAdmittedJobHasExactlyOneCompleteSpanTree) {
  obs::TraceCollector trace;
  obs::SlowLog slow_log;
  Collector collector;
  RouterConfig config;
  config.shards = 3;
  config.service.threads = 2;
  config.service.admission.capacity = 64;
  config.service.backoff = BackoffPolicy{1ms, 4ms};
  config.service.default_deadline = 10'000ms;
  config.service.drain_deadline = 20'000ms;
  config.service.degradation.escalate_after = 10'000ms;
  config.service.trace = &trace;
  config.service.slow_log = &slow_log;
  // Chaos: every third job's first attempt fails, forcing retries — the
  // retry attempts must land on the SAME trace id, not open a second tree.
  config.service.max_retries = 2;
  config.service.chaos = [](const ChaosContext& ctx) {
    return (ctx.sequence % 3 == 0 && ctx.attempt == 0) ? ChaosAction::kFail
                                                       : ChaosAction::kNone;
  };

  ShardRouter router(config, [&](const JobResponse& r) { collector(r); });
  constexpr int kJobs = 30;
  for (int i = 0; i < kJobs; ++i) {
    const char* protocol = i % 2 == 0 ? "four-state" : "three-state";
    router.submit(quick_job("job-" + std::to_string(i), protocol));
  }
  ASSERT_TRUE(router.drain(20'000ms));

  const std::vector<JobResponse> responses = collector.all();
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kJobs));

  // Response-side: every trace id nonzero and unique (one tree per job).
  std::set<std::uint64_t> trace_ids;
  for (const JobResponse& response : responses) {
    EXPECT_NE(response.trace_id, 0u) << response.id;
    EXPECT_TRUE(trace_ids.insert(response.trace_id).second)
        << "trace id reused across jobs";
    EXPECT_LT(response.shard, config.shards);
  }

  // Trace-side: exactly one 'b' and one 'e' "job" event per admitted id,
  // and at least one replica span inside each tree.
  const AsyncCounts counts = count_async(trace);
  for (const JobResponse& response : responses) {
    if (response.outcome == JobOutcome::kOverloaded ||
        response.outcome == JobOutcome::kInvalid) {
      continue;  // never admitted — no tree, only reject instants
    }
    const std::string hex = obs::trace_id_hex(response.trace_id);
    EXPECT_EQ(counts.begins.count(hex), 1u) << response.id;
    auto begin_it = counts.begins.find(hex);
    auto end_it = counts.ends.find(hex);
    ASSERT_NE(begin_it, counts.begins.end()) << response.id;
    ASSERT_NE(end_it, counts.ends.end())
        << response.id << ": span tree never closed";
    EXPECT_EQ(begin_it->second, 1u) << response.id;
    EXPECT_EQ(end_it->second, 1u) << response.id;
    EXPECT_GE(counts.replica_spans.count(hex), 1u)
        << response.id << ": no replica execution span";
  }
  // No stray trees for ids that never got a response.
  for (const auto& [hex, count] : counts.begins) {
    bool known = false;
    for (const std::uint64_t id : trace_ids) {
      if (obs::trace_id_hex(id) == hex) known = true;
    }
    EXPECT_TRUE(known) << "span tree " << hex << " has no response";
  }

  // Exemplars: at least one run_ms exemplar across the shards, and every
  // exemplar's trace id belongs to a job we actually submitted.
  std::size_t exemplars = 0;
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const auto snap = router.shard(s).metrics().snapshot();
    for (const auto& [name, hist] : snap.histograms) {
      for (std::size_t bin = 0; bin < hist.bin_count(); ++bin) {
        if (const Histogram::Exemplar* exemplar = hist.exemplar(bin)) {
          EXPECT_EQ(trace_ids.count(exemplar->trace_id), 1u)
              << name << " exemplar carries an unknown trace id";
          ++exemplars;
        }
      }
    }
  }
  EXPECT_GE(exemplars, 1u);

  // The slow log's entries join back to real trace ids too.
  for (const obs::SlowLog::Entry& entry : slow_log.entries()) {
    EXPECT_EQ(trace_ids.count(entry.trace_id), 1u) << entry.job_id;
  }
  EXPECT_GE(slow_log.entries().size(), 1u);
}

TEST(TracePropagationTest, RejectionsGetInstantsNotTrees) {
  obs::TraceCollector trace;
  Collector collector;
  RouterConfig config;
  config.shards = 1;
  config.service.threads = 1;
  config.service.admission.capacity = 1;
  config.service.backoff = BackoffPolicy{1ms, 4ms};
  config.service.drain_deadline = 20'000ms;
  config.service.trace = &trace;
  ShardRouter router(config, [&](const JobResponse& r) { collector(r); });

  // Flood one family far past the queue bound so some submissions are
  // rejected outright.
  for (int i = 0; i < 40; ++i) {
    router.submit(quick_job("flood-" + std::to_string(i)));
  }
  ASSERT_TRUE(router.drain(20'000ms));

  const AsyncCounts counts = count_async(trace);
  std::size_t admitted = 0, rejected = 0;
  for (const JobResponse& response : collector.all()) {
    const std::string hex = obs::trace_id_hex(response.trace_id);
    EXPECT_NE(response.trace_id, 0u);
    if (response.outcome == JobOutcome::kOverloaded) {
      ++rejected;
      // Two causally different overloads: refused at admission (reject
      // instant, no tree) or admitted-then-shed (a complete tree). Never
      // an unclosed tree, never neither.
      if (counts.begins.count(hex) != 0) {
        EXPECT_EQ(counts.begins.at(hex), 1u) << response.id;
        EXPECT_EQ(counts.ends.count(hex), 1u)
            << response.id << ": shed job's tree never closed";
      } else {
        EXPECT_GE(counts.rejects.count(hex), 1u)
            << response.id << ": rejection left no instant";
      }
    } else {
      ++admitted;
      EXPECT_EQ(counts.begins.count(hex), 1u) << response.id;
      EXPECT_EQ(counts.ends.count(hex), 1u) << response.id;
    }
  }
  EXPECT_GE(admitted, 1u);
  EXPECT_GE(rejected, 1u);
}

TEST(TracePropagationTest, PrometheusExpositionParsesWithMonotoneCounters) {
  obs::TraceCollector trace;
  Collector collector;
  RouterConfig config;
  config.shards = 2;
  config.service.threads = 2;
  config.service.admission.capacity = 64;
  config.service.backoff = BackoffPolicy{1ms, 4ms};
  config.service.drain_deadline = 20'000ms;
  config.service.trace = &trace;
  ShardRouter router(config, [&](const JobResponse& r) { collector(r); });

  const auto scrape = [&router] {
    std::ostringstream os;
    router.write_prometheus(os);
    return obs::parse_prometheus(os.str());  // throws on a format violation
  };

  for (int i = 0; i < 10; ++i) {
    router.submit(quick_job("a-" + std::to_string(i)));
  }
  const obs::PromDocument before = scrape();  // live scrape, mid-traffic
  for (int i = 0; i < 10; ++i) {
    router.submit(quick_job("b-" + std::to_string(i)));
  }
  ASSERT_TRUE(router.drain(20'000ms));
  const obs::PromDocument after = scrape();

  // Series structure: every sample labelled, per-shard and fleet present.
  std::set<std::string> shards;
  for (const obs::PromSample& sample : after.samples) {
    ASSERT_EQ(sample.labels.count("shard"), 1u) << sample.name;
    shards.insert(sample.labels.at("shard"));
  }
  EXPECT_EQ(shards, (std::set<std::string>{"0", "1", "fleet"}));

  // Counters are monotone between scrapes, per series.
  const auto counter_values = [](const obs::PromDocument& doc) {
    std::map<std::string, double> values;
    for (const obs::PromSample& sample : doc.samples) {
      if (doc.types.count(sample.name) != 0 &&
          doc.types.at(sample.name) == "counter") {
        values[sample.name + "|" + sample.labels.at("shard")] = sample.value;
      }
    }
    return values;
  };
  const auto earlier = counter_values(before);
  std::size_t compared = 0;
  for (const auto& [key, value] : counter_values(after)) {
    const auto it = earlier.find(key);
    if (it == earlier.end()) continue;  // family counter born mid-run
    EXPECT_GE(value, it->second) << key << " went backwards";
    ++compared;
  }
  EXPECT_GE(compared, 10u);

  // The fleet rollup actually aggregates: fleet completed == sum of shards.
  double fleet = 0.0, shard_sum = 0.0;
  for (const obs::PromSample& sample : after.samples) {
    if (sample.name != "popbean_serve_completed_total") continue;
    if (sample.labels.at("shard") == "fleet") {
      fleet = sample.value;
    } else {
      shard_sum += sample.value;
    }
  }
  EXPECT_DOUBLE_EQ(fleet, shard_sum);
  EXPECT_DOUBLE_EQ(fleet, 20.0);
}

}  // namespace
}  // namespace popbean::serve
